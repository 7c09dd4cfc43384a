#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstring>
#include <new>

namespace tpc {
namespace {

constexpr char kMagic[8] = {'T', 'P', 'C', 'S', 'N', 'A', 'P', '\0'};
constexpr uint32_t kEndianTag = 0x01020304;
constexpr uint64_t kHeaderBytes = 64;

// Header field offsets (see the layout comment in snapshot.h).
constexpr size_t kOffVersion = 8;
constexpr size_t kOffEndian = 12;
constexpr size_t kOffFileBytes = 16;
constexpr size_t kOffChecksum = 24;
constexpr size_t kOffLabelCount = 32;
constexpr size_t kOffPatternCount = 36;
constexpr size_t kOffVerdictCount = 40;
constexpr size_t kOffHotCount = 44;
// Bytes 32-63 — the section counts and the zero reserved tail — are
// checksummed along with the payload.
constexpr size_t kOffChecked = 32;

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Pads `out` with zero bytes to the next multiple of 8, so every entry —
/// and therefore every column inside it — lands on an aligned offset in the
/// file image.
void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

/// FNV-1a 64-bit, streamed across the section buffers.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

void PutU32(std::string* buf, size_t off, uint32_t v) {
  std::memcpy(buf->data() + off, &v, sizeof(v));
}

void PutU64(std::string* buf, size_t off, uint64_t v) {
  std::memcpy(buf->data() + off, &v, sizeof(v));
}

/// Bounds-checked forward scanner over the payload.  Every accessor
/// fails (returns false) instead of reading past `size`, so a truncated or
/// lying section table can never form an out-of-range pointer.
struct Cursor {
  const uint8_t* base;
  uint64_t size;
  uint64_t off = 0;

  bool U32(uint32_t* v) {
    if (size - off < 4) return false;
    std::memcpy(v, base + off, 4);
    off += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (size - off < 8) return false;
    std::memcpy(v, base + off, 8);
    off += 8;
    return true;
  }
  /// Claims `count` elements of `elem_bytes` each; `*p` points into the
  /// image.  The caller guarantees 4-byte element types only start at
  /// 4-aligned offsets (the writer's padding discipline ensures it; the
  /// assert documents it).
  bool Array(uint64_t count, uint64_t elem_bytes, const uint8_t** p) {
    if (elem_bytes != 0 && count > (size - off) / elem_bytes) return false;
    assert(elem_bytes == 1 || off % 4 == 0);
    *p = base + off;
    off += count * elem_bytes;
    return true;
  }
  bool Align8() {
    const uint64_t target = (off + 7) & ~uint64_t{7};
    if (target > size) return false;
    off = target;
    return true;
  }
};

bool Fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = "snapshot: " + reason;
  return false;
}

// Smallest encoding of one record per section (8-byte aligned, as written):
// an empty label spelling, a one-node pattern (24-byte header + 9 bytes of
// columns), a verdict without witness, and a hot-program entry.
constexpr uint64_t kMinLabelBytes = 8;
constexpr uint64_t kMinPatternBytes = 40;
constexpr uint64_t kMinVerdictBytes = 16;
constexpr uint64_t kMinHotProgramBytes = 8;

/// A checksum is not authentication: a crafted file can carry huge section
/// counts under a matching checksum, so every count is bounded by what the
/// rest of the payload can hold before it sizes an allocation.
bool CountFits(const Cursor& cur, uint32_t count, uint64_t min_record_bytes,
               const char* section, std::string* error) {
  if (count <= (cur.size - cur.off) / min_record_bytes) return true;
  return Fail(error, std::string(section) + " count " + std::to_string(count) +
                         " exceeds what the remaining " +
                         std::to_string(cur.size - cur.off) +
                         " payload bytes can hold");
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(Budget* budget) : tracked_(budget) {}

bool SnapshotWriter::AppendEntry(std::string* section, const std::string& entry,
                                 uint32_t* count) {
  // Charge-then-append: a refused charge leaves the section byte-for-byte as
  // it was, so no partial entry can ever reach the file.
  if (!tracked_.TryCharge(static_cast<int64_t>(entry.size()))) return false;
  section->append(entry);
  ++*count;
  return true;
}

bool SnapshotWriter::SetLabels(const LabelPool& pool) {
  if (have_labels_) return false;
  std::string entry;
  const size_t n = pool.size();
  for (size_t id = 0; id < n; ++id) {
    const std::string& name = pool.Name(static_cast<LabelId>(id));
    AppendU32(&entry, static_cast<uint32_t>(name.size()));
    entry.append(name);
    PadTo8(&entry);
  }
  uint32_t ignored = 0;
  if (!AppendEntry(&labels_, entry, &ignored)) return false;
  label_count_ = static_cast<uint32_t>(n);
  have_labels_ = true;
  return true;
}

std::optional<uint32_t> SnapshotWriter::AddPattern(const Tpq& p,
                                                   const TpqDigest& digest) {
  if (p.empty()) return std::nullopt;
  const int32_t n = p.size();
  std::string entry;
  AppendU32(&entry, static_cast<uint32_t>(n));
  AppendU32(&entry, 0);
  AppendU64(&entry, digest.lo);
  AppendU64(&entry, digest.hi);
  for (NodeId v = 0; v < n; ++v) AppendU32(&entry, p.Label(v));
  for (NodeId v = 0; v < n; ++v) AppendI32(&entry, p.Parent(v));
  entry.push_back('\0');  // edges[0] is unused (the root has no parent edge)
  for (NodeId v = 1; v < n; ++v) {
    entry.push_back(static_cast<char>(p.Edge(v)));
  }
  PadTo8(&entry);
  if (!AppendEntry(&patterns_, entry, &pattern_count_)) return std::nullopt;
  return pattern_count_ - 1;
}

bool SnapshotWriter::AddVerdict(const SnapshotVerdict& verdict) {
  assert(verdict.p_index < pattern_count_ && verdict.q_index < pattern_count_);
  std::string entry;
  AppendU32(&entry, verdict.p_index);
  AppendU32(&entry, verdict.q_index);
  entry.push_back(static_cast<char>(verdict.mode_tag));
  entry.push_back(static_cast<char>(verdict.bound_tag));
  entry.push_back(verdict.contained ? 1 : 0);
  entry.push_back(static_cast<char>(verdict.algorithm_tag));
  AppendU32(&entry, static_cast<uint32_t>(verdict.witness.size()));
  for (int32_t len : verdict.witness) AppendI32(&entry, len);
  PadTo8(&entry);
  return AppendEntry(&verdicts_, entry, &verdict_count_);
}

bool SnapshotWriter::AddHotProgram(const SnapshotHotProgram& hot) {
  assert(hot.pattern_index < pattern_count_);
  std::string entry;
  AppendU32(&entry, hot.pattern_index);
  AppendU32(&entry, hot.mode_tag);
  return AppendEntry(&hot_programs_, entry, &hot_program_count_);
}

bool SnapshotWriter::WriteTo(const std::string& path, std::string* error) {
  if (!have_labels_) {
    return Fail(error, "writer has no label section (SetLabels failed/missing)");
  }
  const std::string* sections[] = {&labels_, &patterns_, &verdicts_,
                                   &hot_programs_};
  std::string header(kHeaderBytes, '\0');
  std::memcpy(header.data(), kMagic, sizeof(kMagic));
  PutU32(&header, kOffVersion, kSnapshotFormatVersion);
  PutU32(&header, kOffEndian, kEndianTag);
  PutU32(&header, kOffLabelCount, label_count_);
  PutU32(&header, kOffPatternCount, pattern_count_);
  PutU32(&header, kOffVerdictCount, verdict_count_);
  PutU32(&header, kOffHotCount, hot_program_count_);
  uint64_t file_bytes = kHeaderBytes;
  uint64_t checksum = Fnv1a(kFnvSeed, header.data() + kOffChecked,
                            kHeaderBytes - kOffChecked);
  for (const std::string* s : sections) {
    file_bytes += s->size();
    checksum = Fnv1a(checksum, s->data(), s->size());
  }
  PutU64(&header, kOffFileBytes, file_bytes);
  PutU64(&header, kOffChecksum, checksum);

  // Temp file + rename: a reader either sees the previous snapshot or the
  // complete new one, never a prefix.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Fail(error, "cannot open temp file " + tmp);
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  for (const std::string* s : sections) {
    ok = ok && std::fwrite(s->data(), 1, s->size(), f) == s->size();
  }
  ok = std::fclose(f) == 0 && ok;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return Fail(error, "write failed for " + path);
  }
  return true;
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader::~SnapshotReader() { Close(); }

void SnapshotReader::Close() {
  image_.clear();
  image_.shrink_to_fit();
  tracked_.ReleaseAll();
  label_count_ = 0;
  labels_.clear();
  patterns_.clear();
  verdicts_.clear();
  hot_programs_.clear();
}

bool SnapshotReader::Open(const std::string& path, Budget* budget,
                          std::string* error) {
  Close();
  tracked_.Attach(budget);

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Fail(error, "cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Fail(error, "cannot stat " + path);
  }
  const int64_t file_bytes = static_cast<int64_t>(st.st_size);
  if (file_bytes < static_cast<int64_t>(kHeaderBytes)) {
    ::close(fd);
    return Fail(error, "truncated: file smaller than the 64-byte header");
  }
  if (!tracked_.TryCharge(file_bytes)) {
    ::close(fd);
    return Fail(error, "byte budget refused the file image");
  }
  try {
    image_.resize(static_cast<size_t>(file_bytes));
  } catch (const std::bad_alloc&) {
    ::close(fd);
    Close();
    return Fail(error, "cannot allocate the " + std::to_string(file_bytes) +
                           "-byte file image");
  }
  int64_t done = 0;
  while (done < file_bytes) {
    const ssize_t got = ::pread(fd, image_.data() + done,
                                static_cast<size_t>(file_bytes - done), done);
    if (got <= 0) {
      ::close(fd);
      Close();
      return Fail(error, "short read from " + path);
    }
    done += got;
  }
  ::close(fd);

  if (!Validate(error)) {
    Close();
    return false;
  }
  return true;
}

bool SnapshotReader::Validate(std::string* error) {
  const uint8_t* base = image_.data();
  const uint64_t size = image_.size();
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, "bad magic (not a TPC snapshot)");
  }
  uint32_t version, endian, verdict_count, hot_count, pat_count;
  uint64_t file_bytes, checksum;
  std::memcpy(&version, base + kOffVersion, 4);
  std::memcpy(&endian, base + kOffEndian, 4);
  std::memcpy(&file_bytes, base + kOffFileBytes, 8);
  std::memcpy(&checksum, base + kOffChecksum, 8);
  std::memcpy(&label_count_, base + kOffLabelCount, 4);
  std::memcpy(&pat_count, base + kOffPatternCount, 4);
  std::memcpy(&verdict_count, base + kOffVerdictCount, 4);
  std::memcpy(&hot_count, base + kOffHotCount, 4);

  if (version != kSnapshotFormatVersion) {
    return Fail(error, "format version skew: file has v" +
                           std::to_string(version) + ", reader expects v" +
                           std::to_string(kSnapshotFormatVersion));
  }
  if (endian != kEndianTag) {
    return Fail(error, "endianness mismatch (foreign byte order)");
  }
  if (file_bytes != size) {
    return Fail(error, "truncated: header declares " +
                           std::to_string(file_bytes) + " bytes, file has " +
                           std::to_string(size));
  }
  const uint64_t actual =
      Fnv1a(kFnvSeed, base + kOffChecked, static_cast<size_t>(size) - kOffChecked);
  if (actual != checksum) {
    return Fail(error, "checksum mismatch (corrupt file)");
  }
  // The reserved header tail must be zero: a future version may assign it
  // meaning.
  for (uint64_t i = kOffHotCount + 4; i < kHeaderBytes; ++i) {
    if (base[i] != 0) {
      return Fail(error, "nonzero reserved header bytes (corrupt file)");
    }
  }
  if (label_count_ == 0) return Fail(error, "empty label section");

  Cursor cur{base + kHeaderBytes, size - kHeaderBytes};

  // Labels: spellings in id order; id 0 must be the wildcard.
  if (!CountFits(cur, label_count_, kMinLabelBytes, "label", error)) {
    return false;
  }
  labels_.reserve(label_count_);
  for (uint32_t i = 0; i < label_count_; ++i) {
    uint32_t len;
    const uint8_t* bytes;
    if (!cur.U32(&len) || !cur.Array(len, 1, &bytes) || !cur.Align8()) {
      return Fail(error, "label section overruns the file");
    }
    labels_.emplace_back(reinterpret_cast<const char*>(bytes), len);
  }
  if (labels_[0] != "*") return Fail(error, "label id 0 is not the wildcard");

  // Patterns.
  if (!CountFits(cur, pat_count, kMinPatternBytes, "pattern", error)) {
    return false;
  }
  patterns_.reserve(pat_count);
  for (uint32_t i = 0; i < pat_count; ++i) {
    uint32_t n, pad;
    PatternRecord rec;
    if (!cur.U32(&n) || !cur.U32(&pad) || !cur.U64(&rec.digest.lo) ||
        !cur.U64(&rec.digest.hi) || n == 0 ||
        n > static_cast<uint32_t>(INT32_MAX)) {
      return Fail(error, "pattern " + std::to_string(i) + ": bad header");
    }
    rec.n = static_cast<int32_t>(n);
    const uint8_t* p;
    if (!cur.Array(n, sizeof(LabelId), &p)) {
      return Fail(error, "pattern " + std::to_string(i) + " overruns the file");
    }
    rec.labels = reinterpret_cast<const LabelId*>(p);
    if (!cur.Array(n, sizeof(NodeId), &p)) {
      return Fail(error, "pattern " + std::to_string(i) + " overruns the file");
    }
    rec.parents = reinterpret_cast<const NodeId*>(p);
    if (!cur.Array(n, 1, &p) || !cur.Align8()) {
      return Fail(error, "pattern " + std::to_string(i) + " overruns the file");
    }
    rec.edges = p;
    if (rec.parents[0] != kNoNode) {
      return Fail(error, "pattern " + std::to_string(i) + ": root has parent");
    }
    for (int32_t v = 1; v < rec.n; ++v) {
      if (rec.parents[v] < 0 || rec.parents[v] >= v) {
        return Fail(error,
                    "pattern " + std::to_string(i) + ": parent out of order");
      }
      if (rec.edges[v] > 1) {
        return Fail(error, "pattern " + std::to_string(i) + ": bad edge kind");
      }
    }
    for (int32_t v = 0; v < rec.n; ++v) {
      if (rec.labels[v] >= label_count_) {
        return Fail(error,
                    "pattern " + std::to_string(i) + ": label out of range");
      }
    }
    patterns_.push_back(rec);
  }

  // Verdicts.
  if (!CountFits(cur, verdict_count, kMinVerdictBytes, "verdict", error)) {
    return false;
  }
  verdicts_.reserve(verdict_count);
  for (uint32_t i = 0; i < verdict_count; ++i) {
    VerdictRecord rec;
    uint32_t witness_len;
    uint8_t raw[4];
    const uint8_t* p;
    if (!cur.U32(&rec.p_index) || !cur.U32(&rec.q_index) ||
        !cur.Array(4, 1, &p)) {
      return Fail(error, "verdict " + std::to_string(i) + " overruns the file");
    }
    std::memcpy(raw, p, 4);
    rec.mode_tag = raw[0];
    rec.bound_tag = raw[1];
    rec.contained = raw[2] != 0;
    rec.algorithm_tag = raw[3];
    if (!cur.U32(&witness_len) ||
        !cur.Array(witness_len, sizeof(int32_t), &p) || !cur.Align8()) {
      return Fail(error, "verdict " + std::to_string(i) + " overruns the file");
    }
    rec.witness = reinterpret_cast<const int32_t*>(p);
    rec.witness_len = witness_len;
    if (rec.p_index >= pat_count || rec.q_index >= pat_count) {
      return Fail(error,
                  "verdict " + std::to_string(i) + ": pattern index oob");
    }
    verdicts_.push_back(rec);
  }

  // Hot programs.
  if (!CountFits(cur, hot_count, kMinHotProgramBytes, "hot-program", error)) {
    return false;
  }
  hot_programs_.reserve(hot_count);
  for (uint32_t i = 0; i < hot_count; ++i) {
    SnapshotHotProgram rec;
    if (!cur.U32(&rec.pattern_index) || !cur.U32(&rec.mode_tag)) {
      return Fail(error, "hot-program section overruns the file");
    }
    if (rec.pattern_index >= pat_count) {
      return Fail(error, "hot program " + std::to_string(i) + ": index oob");
    }
    hot_programs_.push_back(rec);
  }

  if (cur.off != cur.size) {
    return Fail(error, "trailing bytes after the last section");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Helpers

std::optional<Tpq> BuildSnapshotTpq(const SnapshotReader::PatternRecord& rec,
                                    const std::vector<LabelId>& remap) {
  Tpq q;
  for (int32_t v = 0; v < rec.n; ++v) {
    if (rec.labels[v] >= remap.size()) return std::nullopt;
    const LabelId label = remap[rec.labels[v]];
    if (v == 0) {
      q.AddRoot(label);
    } else {
      q.AddChild(rec.parents[v], label, static_cast<EdgeKind>(rec.edges[v]));
    }
  }
  return q;
}

bool VerifySnapshotPatternDigest(const SnapshotReader::PatternRecord& rec) {
  Tpq q;
  for (int32_t v = 0; v < rec.n; ++v) {
    if (v == 0) {
      q.AddRoot(rec.labels[v]);
    } else {
      q.AddChild(rec.parents[v], rec.labels[v],
                 static_cast<EdgeKind>(rec.edges[v]));
    }
  }
  return CanonicalTpqDigest(q) == rec.digest;
}

}  // namespace tpc
