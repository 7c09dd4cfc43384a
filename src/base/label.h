// Label interning for tree and pattern alphabets.
//
// Trees, patterns, DTDs and automata in this library all refer to labels by
// small integer ids (`LabelId`).  A `LabelPool` owns the bidirectional mapping
// between ids and their textual spelling.  The wildcard of tree pattern
// queries is a distinguished, pre-interned label (`kWildcard`): patterns may
// carry it, trees never do (Definition 2.1 of the paper).

#ifndef TPC_BASE_LABEL_H_
#define TPC_BASE_LABEL_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace tpc {

/// Interned label identifier.  Ids are dense and start at 0.
using LabelId = uint32_t;

/// The wildcard label `*`.  Always interned with id 0 in every pool.
inline constexpr LabelId kWildcard = 0;

/// An invalid/absent label, used as a sentinel.
inline constexpr LabelId kNoLabel = UINT32_MAX;

/// Owns the mapping between label spellings and dense `LabelId`s.
///
/// Thread-safe: the service layer fans one batch out over pool workers that
/// parse patterns and fetch the reserved bottom/root labels mid-decision, so
/// the pool takes an internal mutex.  Hot loops never touch the pool — they
/// compare `LabelId`s — so the lock sits on parse/setup paths only.
/// Spellings are stored in a deque: the reference returned by `Name` stays
/// valid across later interns.
///
/// The pool reserves two labels for the containment procedures: the bottom
/// letter ⊥ of canonical trees and the root mark of the Observation 2.3
/// strong-to-weak reduction.  Each is minted once (like `Fresh`) and reused
/// by every later decision, so a long-lived pool does not grow per decision.
/// Soundness needs only that a reserved label occurs in no pattern being
/// decided; patterns get their labels through `Intern` (or `Fresh`), and an
/// `Intern` that returns a current reserved id retires it, so the next
/// decision mints a new one.  Reserved labels are interned by name like any
/// other, so label tables (snapshots) round-trip them.
class LabelPool {
 public:
  LabelPool();

  /// Movable (workload structs carry their pool by value); moving is a
  /// setup-path operation and must not race with concurrent use.
  LabelPool(LabelPool&& other) noexcept;
  LabelPool& operator=(LabelPool&& other) noexcept;

  /// Returns the id for `name`, interning it if new.
  LabelId Intern(std::string_view name);

  /// Returns the id for `name` or `kNoLabel` if never interned.
  LabelId Find(std::string_view name) const;

  /// Returns the spelling of `id`.  Precondition: `id < size()`.  The
  /// reference is stable: interning never moves stored spellings.
  const std::string& Name(LabelId id) const;

  /// Number of interned labels (including the wildcard).
  size_t size() const;

  /// Returns a label id guaranteed to be distinct from every id interned so
  /// far; spelled `prefix`, `prefix'`, `prefix''`, ... until fresh.
  LabelId Fresh(std::string_view prefix);

  /// The reserved bottom letter ⊥ (spelled `_bot`, `_bot'0`, ...): distinct
  /// from every label interned before the call and from `RootMark()`.
  LabelId Bottom();

  /// The reserved root mark (spelled `_root`, ...): distinct from every
  /// label interned before the call and from `Bottom()`.
  LabelId RootMark();

  /// Process-unique identity of this pool's id ↔ spelling mapping.  Two
  /// pools never share a generation, and moving a pool moves the generation
  /// *with the mapping* (the moved-from pool gets a fresh one).  Caches keyed
  /// on hashes of interned ids — the minimize memo, the compiled-program
  /// pool — fold the generation into their keys, so entries built against
  /// one pool can never be served for numerically identical ids of another
  /// (e.g. after a workload move-assigns a fresh pool between batches).
  uint64_t generation() const { return generation_; }

 private:
  LabelId InternLocked(std::string_view name);
  LabelId FreshLocked(std::string_view prefix);
  static uint64_t NextGeneration();

  mutable std::mutex mu_;
  std::deque<std::string> names_;
  std::unordered_map<std::string, LabelId> ids_;
  uint64_t fresh_counter_ = 0;
  uint64_t generation_ = 0;
  LabelId bottom_ = kNoLabel;     // kNoLabel: mint on next Bottom()
  LabelId root_mark_ = kNoLabel;  // kNoLabel: mint on next RootMark()
};

}  // namespace tpc

#endif  // TPC_BASE_LABEL_H_
