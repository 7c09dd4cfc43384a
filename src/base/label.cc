#include "base/label.h"

#include <atomic>
#include <utility>

namespace tpc {

uint64_t LabelPool::NextGeneration() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

LabelPool::LabelPool() : generation_(NextGeneration()) {
  // The wildcard is pre-interned so that kWildcard == 0 in every pool.
  Intern("*");
}

LabelPool::LabelPool(LabelPool&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  names_ = std::move(other.names_);
  ids_ = std::move(other.ids_);
  fresh_counter_ = other.fresh_counter_;
  bottom_ = std::exchange(other.bottom_, kNoLabel);
  root_mark_ = std::exchange(other.root_mark_, kNoLabel);
  // The generation travels with the mapping; the moved-from pool is a new
  // (empty) mapping and must not keep answering for the old identity.
  generation_ = other.generation_;
  other.generation_ = NextGeneration();
}

LabelPool& LabelPool::operator=(LabelPool&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  names_ = std::move(other.names_);
  ids_ = std::move(other.ids_);
  fresh_counter_ = other.fresh_counter_;
  bottom_ = std::exchange(other.bottom_, kNoLabel);
  root_mark_ = std::exchange(other.root_mark_, kNoLabel);
  generation_ = other.generation_;
  other.generation_ = NextGeneration();
  return *this;
}

LabelId LabelPool::InternLocked(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

LabelId LabelPool::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const LabelId id = InternLocked(name);
  // The caller may put `id` into a pattern: a reserved label must stay out
  // of every pattern it is used to decide, so retire it.
  if (id == bottom_) bottom_ = kNoLabel;
  if (id == root_mark_) root_mark_ = kNoLabel;
  return id;
}

LabelId LabelPool::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kNoLabel : it->second;
}

const std::string& LabelPool::Name(LabelId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Safe to hand the reference out past the unlock: deque elements never
  // move and interned spellings are never mutated.
  return names_[id];
}

size_t LabelPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

LabelId LabelPool::Fresh(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  return FreshLocked(prefix);
}

LabelId LabelPool::FreshLocked(std::string_view prefix) {
  std::string candidate(prefix);
  if (ids_.count(candidate) == 0) return InternLocked(candidate);
  // Numeric suffixes keep Fresh amortized O(1) on a long-lived pool whose
  // earlier spellings already took the plain prefix.
  while (true) {
    std::string numbered =
        candidate + "'" + std::to_string(fresh_counter_++);
    if (ids_.count(numbered) == 0) return InternLocked(numbered);
  }
}

LabelId LabelPool::Bottom() {
  std::lock_guard<std::mutex> lock(mu_);
  if (bottom_ == kNoLabel) bottom_ = FreshLocked("_bot");
  return bottom_;
}

LabelId LabelPool::RootMark() {
  std::lock_guard<std::mutex> lock(mu_);
  if (root_mark_ == kNoLabel) root_mark_ = FreshLocked("_root");
  return root_mark_;
}

}  // namespace tpc
