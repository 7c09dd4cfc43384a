// A sharded pool of compiled matcher programs with per-key hotness
// tracking, sitting beside the verdict cache in the query service.
//
// Keys are `(canonical pattern hash, label-pool generation, mode)`:
//
//   * the canonical hash (pattern/tpq_hash.h) folds sibling permutations of
//     one pattern onto one program — sound, because programs only produce
//     verdicts and embedding existence is sibling-order invariant;
//   * the pool generation (base/label.h) fences entries against label-pool
//     replacement: hashes are relative to a pool's id assignment, so a
//     program compiled under one pool must never answer for numerically
//     identical ids of another;
//   * the mode matters because the service compiles *minimized* patterns
//     and minimization is mode-dependent.
//
// Unlike the verdict cache, most keys never deserve a program: a one-shot
// pattern would pay the compile without amortizing it.  The pool therefore
// stores two kinds of entries in one LRU: cheap *trackers* (a hit counter,
// no program) and resident programs.  `Get` counts a hit and reports — via
// `should_compile` — when a key has crossed the hotness threshold
// (`ContainmentOptions::compile_threshold`), at which point the caller
// compiles and `Put`s; `Fetch` does all three.  Canonical-enumeration
// sweeps bypass the threshold (one sweep executes the program thousands of
// times, amortizing the compile internally) but still publish through the
// pool so later requests start warm.
//
// Byte accounting is *soft* end to end: tracker stubs are charged through
// `TrackedBytes::TryCharge`, and resident programs carry their own
// compile-time charge (see MatcherProgram::Compile), so the pool can never
// exhaust the context budget — under memory pressure it simply stops
// absorbing entries, like every accelerator tier in this library.  The
// pool's own LRU bound is enforced on `byte_size()` sums per shard.

#ifndef TPC_COMPILE_PROGRAM_CACHE_H_
#define TPC_COMPILE_PROGRAM_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "compile/matcher_program.h"
#include "engine/tracked.h"

namespace tpc {

struct ProgramKey {
  uint64_t pattern_hash = 0;
  uint64_t pool_generation = 0;
  uint32_t mode_tag = 0;  // numeric value of contain/'s Mode enum

  bool operator==(const ProgramKey& o) const {
    return pattern_hash == o.pattern_hash &&
           pool_generation == o.pool_generation && mode_tag == o.mode_tag;
  }
};

struct ProgramKeyHash {
  size_t operator()(const ProgramKey& k) const {
    uint64_t h = k.pattern_hash * 0x9e3779b97f4a7c15ULL;
    h ^= (k.pool_generation + 0xbf58476d1ce4e5b9ULL) + (h << 6) + (h >> 2);
    h ^= static_cast<uint64_t>(k.mode_tag) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

class ProgramCache {
 public:
  /// `hot_threshold` is the number of `Get` calls a key must accumulate
  /// before `should_compile` fires (clamped to >= 1).  `budget` may be null.
  ProgramCache(size_t num_shards, int64_t max_bytes, int32_t hot_threshold,
               Budget* budget);

  /// Looks `key` up, counting one hotness hit.  Returns the resident
  /// program (recency bumped) or nullptr; on a miss, `*should_compile` is
  /// set when the key's accumulated hits have reached the threshold.
  std::shared_ptr<const MatcherProgram> Get(const ProgramKey& key,
                                            bool* should_compile);

  /// Publishes a program for `key` (nullptr is ignored).  Returns the
  /// number of entries evicted under the shard's byte bound, for
  /// `EngineStats::program_cache_evictions`.  If the tracker-stub charge is
  /// refused the entry is simply not retained.
  int64_t Put(const ProgramKey& key,
              std::shared_ptr<const MatcherProgram> program);

  /// `Get` and `Put` in one step, the way every caller uses the pool: looks
  /// `key` up (one hotness hit) and, on a miss, compiles `pattern` against
  /// `budget()` once the key is hot — or regardless with `force` (sweeps) —
  /// and publishes the program, booking evictions and the compile on
  /// `stats`.  Null when `pattern` is not compilable (no hit is counted),
  /// still cold, or the compile charge was refused.
  std::shared_ptr<const MatcherProgram> Fetch(const Tpq& pattern,
                                              const ProgramKey& key,
                                              bool force, EngineStats* stats);

  /// Resident programs (not trackers), over all shards.  O(entries).
  size_t resident_programs() const;

  /// Keys of every resident program plus every tracker at/over the hotness
  /// threshold — the warm set a snapshot persists.  O(entries).
  std::vector<ProgramKey> HotKeys() const;

  /// Pre-heats `key`: marks its tracker as already at the hotness threshold,
  /// so the *next* `Get` miss reports `should_compile` immediately instead
  /// of re-counting hits from zero.  Snapshot load runs this for each
  /// persisted hot key — the program itself is recompiled on first use (the
  /// bytecode is cheap to rebuild and label-remap-sensitive, so the file
  /// stores only the key).  No-op if the tracker charge is refused.
  void Warm(const ProgramKey& key);

  int32_t hot_threshold() const { return hot_threshold_; }

  /// The budget cached programs must be compiled against: entries outlive
  /// any per-decision context, so their table bytes have to be charged to
  /// the pool's own (service-lifetime) budget, not the caller's.
  Budget* budget() const { return budget_; }

 private:
  struct Entry {
    ProgramKey key;
    std::shared_ptr<const MatcherProgram> program;  // null for trackers
    int64_t bytes = 0;  // contribution to the shard's LRU bound
    int64_t hits = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> entries;  // front = most recent
    std::unordered_map<ProgramKey, std::list<Entry>::iterator, ProgramKeyHash>
        index;
    TrackedBytes tracked;  // tracker stubs only; programs self-charge
    int64_t bytes = 0;
  };

  /// LRU-bound contribution of a tracker stub (entry + index slot).
  static constexpr int64_t kTrackerBytes = 96;

  Shard& ShardFor(const ProgramKey& key) {
    return *shards_[ProgramKeyHash{}(key) % shards_.size()];
  }
  int64_t EvictOverLimitLocked(Shard* shard);

  const int64_t shard_bytes_limit_;
  const int32_t hot_threshold_;
  Budget* budget_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tpc

#endif  // TPC_COMPILE_PROGRAM_CACHE_H_
