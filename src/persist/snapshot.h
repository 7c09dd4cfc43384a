// Versioned, checksummed columnar snapshots — the persistent warm-start
// tier's file format.
//
// A snapshot is an on-disk image of the state the query service accumulates
// over a workload and loses on restart: cached containment verdicts, the
// minimized patterns they are keyed on, and the hot keys of the
// compiled-program pool.  A cached refutation is stored only as its
// certificate, the chain-length vector that fixes one canonical model of p
// (Thm 3.3); the service rebuilds that model and re-matches q before it
// serves the refutation, so the file never carries a tree.
//
// Trust model: a snapshot is data, not authority.  The container is
// checksummed (FNV-1a over header bytes 32-63 and the payload) and
// versioned, each section count is bounded by what the remaining bytes can
// hold before it sizes an allocation (a checksum is not authentication),
// and every record is bounds-checked against the file image before any
// pointer is formed, so a corrupt, truncated or adversarially crafted file
// is rejected with a diagnostic — never undefined behaviour.  Above the
// container, the service re-derives all *semantic* trust at load: pattern
// digests are recomputed and compared (128-bit, pattern/tpq_hash.h), and
// refutation witnesses are only ever served through replay validation.
//
// Layout (all integers native-endian; a header tag rejects foreign
// endianness; every record is 8-byte aligned):
//
//   header (64 B): magic "TPCSNAP\0", format version, endian tag,
//                  total file bytes, checksum, section counts (bytes 32-47),
//                  zero reserved tail (bytes 48-63)
//   labels:    count * (u32 len, bytes, pad8)       — pool spellings, id order
//   patterns:  count * (u32 n, pad, digest128, labels, parents, edges)
//   verdicts:  count * (p_idx, q_idx, mode, bound, contained, algorithm,
//                       witness length vector)
//   hot programs: count * (pattern_idx, mode_tag)
//
// Byte accounting is *soft* end to end (`TrackedBytes::TryCharge`): a
// memory limit or an injected allocation fault mid-write or mid-load
// refuses cleanly — the writer never emits a partial entry, the reader
// frees its image and reports failure — and the service degrades to a cold
// start.

#ifndef TPC_PERSIST_SNAPSHOT_H_
#define TPC_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/label.h"
#include "engine/tracked.h"
#include "pattern/tpq.h"
#include "pattern/tpq_hash.h"

namespace tpc {

/// Bumped on any incompatible layout change; readers reject other versions.
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// One cached containment verdict, keyed by pattern-pool indices (exact —
/// no hash trust inside the file).
struct SnapshotVerdict {
  uint32_t p_index = 0;
  uint32_t q_index = 0;
  uint8_t mode_tag = 0;       // numeric value of contain/'s Mode
  uint8_t bound_tag = 0;      // numeric value of ContainmentOptions::Bound
  bool contained = false;
  uint8_t algorithm_tag = 0;  // numeric value of ContainmentAlgorithm
  /// Chain lengths of the counterexample canonical model (empty for
  /// containments).
  std::vector<int32_t> witness;
};

/// A hot compiled-program key: the pattern it compiles and the mode.
struct SnapshotHotProgram {
  uint32_t pattern_index = 0;
  uint32_t mode_tag = 0;
};

/// Accumulates sections in memory and writes the finished snapshot
/// atomically (temp file + rename), so readers never observe a partial
/// image.  All growth is soft-charged to `budget`; an `Add*` that returns
/// failure charged nothing for that entry and the writer remains usable
/// (the entry is simply not in the snapshot).
class SnapshotWriter {
 public:
  /// `budget` may be null (no accounting).
  explicit SnapshotWriter(Budget* budget = nullptr);

  /// Records every spelling of `pool`, in id order.  Call exactly once,
  /// before the first verdict consumer resolves label ids.  False on charge
  /// refusal (the writer is then label-less and `WriteTo` will refuse).
  bool SetLabels(const LabelPool& pool);

  /// Serializes `p` (labels, parents, edge kinds) plus its wide digest.
  /// Returns the pattern's index, or nullopt on refusal / empty pattern.
  std::optional<uint32_t> AddPattern(const Tpq& p, const TpqDigest& digest);

  /// Appends a verdict.  Precondition: the referenced pattern indices
  /// were returned by this writer.  False on charge refusal.
  bool AddVerdict(const SnapshotVerdict& verdict);

  bool AddHotProgram(const SnapshotHotProgram& hot);

  uint32_t pattern_count() const { return pattern_count_; }
  uint32_t verdict_count() const { return verdict_count_; }

  /// Finalizes the header + checksum and writes `path` atomically.  On any
  /// failure the temp file is removed and `*error` explains; `path` is
  /// never left half-written.
  bool WriteTo(const std::string& path, std::string* error);

 private:
  bool AppendEntry(std::string* section, const std::string& entry,
                   uint32_t* count);

  TrackedBytes tracked_;
  bool have_labels_ = false;
  std::string labels_;
  std::string patterns_;
  std::string verdicts_;
  std::string hot_programs_;
  uint32_t label_count_ = 0;
  uint32_t pattern_count_ = 0;
  uint32_t verdict_count_ = 0;
  uint32_t hot_program_count_ = 0;
};

/// Reads a snapshot into one buffer and validates the whole container up
/// front; afterwards every accessor is a bounds-safe pointer into that
/// buffer.  The buffer's bytes are soft-charged to the budget passed to
/// `Open` and released on `Close`/destruction.  Accessors must not be called
/// unless `Open` returned true; the records they return die with the reader.
class SnapshotReader {
 public:
  SnapshotReader() = default;
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// Reads and validates `path`.  False on I/O failure, version/endianness
  /// skew, truncation, checksum mismatch, malformed sections, or a refused
  /// byte charge — with `*error` naming the reason and nothing held.
  bool Open(const std::string& path, Budget* budget, std::string* error);

  /// Frees the buffer and releases the byte charge (idempotent).
  void Close();

  bool is_open() const { return !image_.empty(); }

  uint32_t label_count() const { return label_count_; }
  std::string_view LabelAt(uint32_t i) const { return labels_[i]; }

  struct PatternRecord {
    int32_t n = 0;
    const LabelId* labels = nullptr;  // snapshot-local (old pool) ids
    const NodeId* parents = nullptr;  // parents[0] == kNoNode
    const uint8_t* edges = nullptr;   // EdgeKind tags; edges[0] unused
    TpqDigest digest;                 // digest under the old pool's ids
  };
  uint32_t pattern_count() const {
    return static_cast<uint32_t>(patterns_.size());
  }
  const PatternRecord& PatternAt(uint32_t i) const { return patterns_[i]; }

  struct VerdictRecord {
    uint32_t p_index = 0;
    uint32_t q_index = 0;
    uint8_t mode_tag = 0;
    uint8_t bound_tag = 0;
    bool contained = false;
    uint8_t algorithm_tag = 0;
    const int32_t* witness = nullptr;
    uint32_t witness_len = 0;
  };
  uint32_t verdict_count() const {
    return static_cast<uint32_t>(verdicts_.size());
  }
  const VerdictRecord& VerdictAt(uint32_t i) const { return verdicts_[i]; }

  uint32_t hot_program_count() const {
    return static_cast<uint32_t>(hot_programs_.size());
  }
  const SnapshotHotProgram& HotProgramAt(uint32_t i) const {
    return hot_programs_[i];
  }

 private:
  bool Validate(std::string* error);

  std::vector<uint8_t> image_;  // the whole file
  TrackedBytes tracked_;

  uint32_t label_count_ = 0;
  std::vector<std::string_view> labels_;
  std::vector<PatternRecord> patterns_;
  std::vector<VerdictRecord> verdicts_;
  std::vector<SnapshotHotProgram> hot_programs_;
};

/// Rebuilds a `Tpq` from a validated pattern record, mapping every stored
/// label id through `remap` (snapshot id -> live pool id).  Returns nullopt
/// only if a stored id is outside `remap` (rejected records never are).
std::optional<Tpq> BuildSnapshotTpq(const SnapshotReader::PatternRecord& rec,
                                    const std::vector<LabelId>& remap);

/// Recomputes the wide digest of `rec` in the snapshot's own id space and
/// compares it with the stored digest — the load-time equality re-check
/// that keeps a colliding or silently corrupted pattern record from ever
/// seeding a cache key.
bool VerifySnapshotPatternDigest(const SnapshotReader::PatternRecord& rec);

}  // namespace tpc

#endif  // TPC_PERSIST_SNAPSHOT_H_
