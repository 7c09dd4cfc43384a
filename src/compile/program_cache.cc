#include "compile/program_cache.h"

#include <algorithm>

namespace tpc {

ProgramCache::ProgramCache(size_t num_shards, int64_t max_bytes,
                           int32_t hot_threshold, Budget* budget)
    : shard_bytes_limit_(std::max<int64_t>(
          1, max_bytes / static_cast<int64_t>(std::max<size_t>(1, num_shards)))),
      hot_threshold_(std::max<int32_t>(1, hot_threshold)),
      budget_(budget) {
  shards_.reserve(std::max<size_t>(1, num_shards));
  for (size_t i = 0; i < std::max<size_t>(1, num_shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->tracked.Attach(budget);
  }
}

std::shared_ptr<const MatcherProgram> ProgramCache::Get(const ProgramKey& key,
                                                        bool* should_compile) {
  *should_compile = false;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Entry& entry = *it->second;
    ++entry.hits;
    shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
    if (entry.program != nullptr) return entry.program;
    *should_compile = entry.hits >= hot_threshold_;
    return nullptr;
  }
  // First sighting: install a tracker stub so later hits can accumulate.
  // With a degenerate threshold of 1 the caller compiles immediately and the
  // stub is upgraded by `Put`; a refused stub charge just means the key stays
  // cold (the caller keeps using the generic DP — never an error).
  *should_compile = hot_threshold_ <= 1;
  if (!shard.tracked.TryCharge(kTrackerBytes)) return nullptr;
  shard.entries.push_front(Entry{key, nullptr, kTrackerBytes, 1});
  shard.index.emplace(key, shard.entries.begin());
  shard.bytes += kTrackerBytes;
  EvictOverLimitLocked(&shard);
  return nullptr;
}

int64_t ProgramCache::Put(const ProgramKey& key,
                          std::shared_ptr<const MatcherProgram> program) {
  if (program == nullptr) return 0;
  // The program's table bytes are already charged against the budget by
  // Compile; the cache only counts them toward its own LRU bound.
  const int64_t bytes = kTrackerBytes + program->byte_size();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Entry& entry = *it->second;
    shard.bytes += bytes - entry.bytes;
    entry.program = std::move(program);
    entry.bytes = bytes;
    shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
    return EvictOverLimitLocked(&shard);
  }
  if (!shard.tracked.TryCharge(kTrackerBytes)) return 0;
  shard.entries.push_front(Entry{key, std::move(program), bytes, 1});
  shard.index.emplace(key, shard.entries.begin());
  shard.bytes += bytes;
  return EvictOverLimitLocked(&shard);
}

std::shared_ptr<const MatcherProgram> ProgramCache::Fetch(
    const Tpq& pattern, const ProgramKey& key, bool force,
    EngineStats* stats) {
  if (!MatcherProgram::Compilable(pattern)) return nullptr;
  bool should_compile = false;
  std::shared_ptr<const MatcherProgram> program = Get(key, &should_compile);
  if (program != nullptr || !(should_compile || force)) return program;
  program = MatcherProgram::Compile(pattern, budget_, stats);
  if (program != nullptr) {
    stats->program_cache_evictions.fetch_add(Put(key, program),
                                             std::memory_order_relaxed);
  }
  return program;
}

size_t ProgramCache::resident_programs() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& e : shard->entries) {
      if (e.program != nullptr) ++n;
    }
  }
  return n;
}

std::vector<ProgramKey> ProgramCache::HotKeys() const {
  std::vector<ProgramKey> keys;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& e : shard->entries) {
      if (e.program != nullptr || e.hits >= hot_threshold_) {
        keys.push_back(e.key);
      }
    }
  }
  return keys;
}

void ProgramCache::Warm(const ProgramKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->hits = std::max<int64_t>(it->second->hits, hot_threshold_);
    return;
  }
  if (!shard.tracked.TryCharge(kTrackerBytes)) return;
  // Hits start at threshold, so the next Get (which adds its own hit) fires
  // should_compile right away.
  shard.entries.push_front(Entry{key, nullptr, kTrackerBytes, hot_threshold_});
  shard.index.emplace(key, shard.entries.begin());
  shard.bytes += kTrackerBytes;
  EvictOverLimitLocked(&shard);
}

int64_t ProgramCache::EvictOverLimitLocked(Shard* shard) {
  int64_t evicted = 0;
  while (shard->bytes > shard_bytes_limit_ && shard->entries.size() > 1) {
    const Entry& victim = shard->entries.back();
    shard->bytes -= victim.bytes;
    shard->tracked.Release(kTrackerBytes);
    shard->index.erase(victim.key);
    shard->entries.pop_back();
    ++evicted;
  }
  return evicted;
}

}  // namespace tpc
