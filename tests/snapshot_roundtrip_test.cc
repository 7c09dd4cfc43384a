// Snapshot container property suite (src/persist/snapshot.h): random
// patterns, verdict records with their witness vectors and hot-program keys
// must survive a write → read round trip bit-exactly, and damaged inputs —
// a flip of any byte, a cut at any length, version skew (a v1 file
// included), foreign endianness tags — must be rejected with a `snapshot:`
// diagnostic, never undefined behaviour or a silently wrong record.  The
// flip and truncation matrices run in a child process under an
// address-space limit, so a corrupt count that sizes an allocation before
// it is bounded fails there instead of hiding behind overcommit.  Verdict
// records carry their dispatcher route as a tag: every route's tag (up to
// the type set's) survives a service save → load, and tags past the last
// route are skipped on load.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "pattern/tpq.h"
#include "pattern/tpq_hash.h"
#include "persist/snapshot.h"
#include "reductions/hardness_families.h"
#include "service/query_service.h"

namespace tpc {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/tpc_snapshot_" + tag + ".snap";
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(SnapshotRoundTripTest, PatternsRoundTripWithVerifiedDigests) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(4, &pool);
  std::mt19937 rng(77);

  std::vector<Tpq> patterns;
  std::vector<TpqDigest> digests;
  SnapshotWriter writer;
  ASSERT_TRUE(writer.SetLabels(pool));
  for (int i = 0; i < 200; ++i) {
    RandomTpqOptions popt;
    popt.labels = labels;
    popt.fragment = fragments::kTpqFull;
    popt.size = 2 + static_cast<int32_t>(rng() % 8);
    Tpq p = RandomTpq(popt, &rng);
    TpqDigest d = CanonicalTpqDigest(p);
    ASSERT_TRUE(writer.AddPattern(p, d).has_value());
    patterns.push_back(std::move(p));
    digests.push_back(d);
  }
  const std::string path = TempPath("patterns");
  std::string error;
  ASSERT_TRUE(writer.WriteTo(path, &error)) << error;

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, nullptr, &error)) << error;
  ASSERT_EQ(reader.pattern_count(), patterns.size());
  // Identity remap: the same pool is live.
  std::vector<LabelId> remap(reader.label_count());
  for (uint32_t i = 0; i < reader.label_count(); ++i) {
    remap[i] = static_cast<LabelId>(i);
  }
  for (uint32_t i = 0; i < reader.pattern_count(); ++i) {
    const SnapshotReader::PatternRecord& rec = reader.PatternAt(i);
    // The wide stored digest must match bit-for-bit, and the load-time
    // recomputation check must accept every honestly written record.
    EXPECT_EQ(rec.digest.lo, digests[i].lo);
    EXPECT_EQ(rec.digest.hi, digests[i].hi);
    EXPECT_TRUE(VerifySnapshotPatternDigest(rec)) << i;
    std::optional<Tpq> rebuilt = BuildSnapshotTpq(rec, remap);
    ASSERT_TRUE(rebuilt.has_value()) << i;
    const TpqDigest again = CanonicalTpqDigest(*rebuilt);
    EXPECT_EQ(again.lo, digests[i].lo) << i;
    EXPECT_EQ(again.hi, digests[i].hi) << i;
  }
  reader.Close();
  std::remove(path.c_str());
}

/// The records one small valid snapshot holds: every section is non-empty,
/// so the corruption matrices below land in each of them.
struct ValidSnapshot {
  std::vector<uint8_t> bytes;
  std::vector<SnapshotVerdict> verdicts;
  std::vector<SnapshotHotProgram> hot;
};

/// Writes eight patterns, one contained and one refuted verdict (with a
/// witness vector) per adjacent pattern pair, and two hot-program keys.
ValidSnapshot MakeValidSnapshot(const std::string& path) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  std::mt19937 rng(5);
  SnapshotWriter writer;
  EXPECT_TRUE(writer.SetLabels(pool));
  for (int i = 0; i < 8; ++i) {
    RandomTpqOptions popt;
    popt.labels = labels;
    popt.fragment = fragments::kTpqFull;
    popt.size = 3;
    Tpq p = RandomTpq(popt, &rng);
    EXPECT_TRUE(writer.AddPattern(p, CanonicalTpqDigest(p)).has_value());
  }
  ValidSnapshot snap;
  for (uint32_t i = 0; i + 1 < 8; ++i) {
    SnapshotVerdict contained;
    contained.p_index = i;
    contained.q_index = i + 1;
    contained.contained = true;
    contained.algorithm_tag = static_cast<uint8_t>(i % 7);
    SnapshotVerdict refuted;
    refuted.p_index = i + 1;
    refuted.q_index = i;
    refuted.mode_tag = static_cast<uint8_t>(i % 2);
    refuted.bound_tag = 1;
    refuted.algorithm_tag = 6;
    for (uint32_t k = 0; k <= i % 3; ++k) {
      refuted.witness.push_back(static_cast<int32_t>(1 + (i + k) % 4));
    }
    for (const SnapshotVerdict& v : {contained, refuted}) {
      EXPECT_TRUE(writer.AddVerdict(v));
      snap.verdicts.push_back(v);
    }
  }
  snap.hot = {SnapshotHotProgram{2, 0}, SnapshotHotProgram{5, 1}};
  for (const SnapshotHotProgram& h : snap.hot) {
    EXPECT_TRUE(writer.AddHotProgram(h));
  }
  std::string error;
  EXPECT_TRUE(writer.WriteTo(path, &error)) << error;
  snap.bytes = ReadFile(path);
  return snap;
}

std::vector<uint8_t> MakeValidSnapshotBytes(const std::string& path) {
  return MakeValidSnapshot(path).bytes;
}

TEST(SnapshotRoundTripTest, VerdictsAndHotProgramsRoundTrip) {
  const std::string path = TempPath("verdicts");
  const ValidSnapshot snap = MakeValidSnapshot(path);
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, nullptr, &error)) << error;
  ASSERT_EQ(reader.verdict_count(), snap.verdicts.size());
  for (uint32_t i = 0; i < reader.verdict_count(); ++i) {
    const SnapshotReader::VerdictRecord& got = reader.VerdictAt(i);
    const SnapshotVerdict& want = snap.verdicts[i];
    EXPECT_EQ(got.p_index, want.p_index) << i;
    EXPECT_EQ(got.q_index, want.q_index) << i;
    EXPECT_EQ(got.mode_tag, want.mode_tag) << i;
    EXPECT_EQ(got.bound_tag, want.bound_tag) << i;
    EXPECT_EQ(got.contained, want.contained) << i;
    EXPECT_EQ(got.algorithm_tag, want.algorithm_tag) << i;
    EXPECT_EQ(std::vector<int32_t>(got.witness, got.witness + got.witness_len),
              want.witness)
        << i;
  }
  ASSERT_EQ(reader.hot_program_count(), snap.hot.size());
  for (uint32_t i = 0; i < reader.hot_program_count(); ++i) {
    EXPECT_EQ(reader.HotProgramAt(i).pattern_index, snap.hot[i].pattern_index);
    EXPECT_EQ(reader.HotProgramAt(i).mode_tag, snap.hot[i].mode_tag);
  }
  reader.Close();
  std::remove(path.c_str());
}

constexpr rlim_t kAddressSpaceLimit = rlim_t{1} << 30;

/// Caps the process's address space at `kAddressSpaceLimit`, except under
/// the sanitizers whose shadow mappings need it.  Runs only in death-test
/// children.  True when the cap is in force.
bool LimitAddressSpace() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return false;
#endif
#endif
  struct rlimit rl;
  if (getrlimit(RLIMIT_AS, &rl) != 0) return false;
  if (rl.rlim_cur != RLIM_INFINITY && rl.rlim_cur <= kAddressSpaceLimit) {
    return true;
  }
  if (rl.rlim_max != RLIM_INFINITY && rl.rlim_max < kAddressSpaceLimit) {
    return false;
  }
  rl.rlim_cur = kAddressSpaceLimit;
  return setrlimit(RLIMIT_AS, &rl) == 0;
}

/// Opens `bad` and reports (on stderr) whether it was accepted or rejected
/// without a `snapshot:` diagnostic.  True when rejected properly.
bool RejectedWithDiagnostic(const std::string& path,
                            const std::vector<uint8_t>& bad,
                            const std::string& what) {
  WriteFile(path, bad);
  SnapshotReader reader;
  std::string error;
  if (reader.Open(path, nullptr, &error)) {
    std::fprintf(stderr, "%s was accepted\n", what.c_str());
    return false;
  }
  if (error.rfind("snapshot: ", 0) != 0) {
    std::fprintf(stderr, "%s: undiagnosed rejection '%s'\n", what.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

/// Re-seals `bytes` with the container's checksum (FNV-1a over byte 32 to
/// the end, stored at byte 24), as a crafted file would be.
void Reseal(std::vector<uint8_t>* bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 32; i < bytes->size(); ++i) {
    h ^= (*bytes)[i];
    h *= 0x100000001b3ULL;
  }
  std::memcpy(bytes->data() + 24, &h, sizeof(h));
}

/// Death-test body: flips every byte of `good` (header included), then
/// forges each section count under a valid checksum.  Exits 0 iff every
/// file was rejected with a diagnostic.
[[noreturn]] void RunFlipMatrix(const std::string& path,
                                const std::vector<uint8_t>& good) {
  LimitAddressSpace();
  int failures = 0;
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x5A}, uint8_t{0x80}}) {
      std::vector<uint8_t> bad = good;
      bad[pos] ^= mask;
      if (!RejectedWithDiagnostic(path, bad,
                                  "flip at byte " + std::to_string(pos))) {
        ++failures;
      }
    }
  }
  // A checksum is not authentication: counts large enough to exhaust the
  // address space if they sized an allocation must be bounded anyway.
  for (size_t off : {32, 36, 40, 44}) {
    uint32_t real;
    std::memcpy(&real, &good[off], sizeof(real));
    for (uint32_t forged : {real + 1, 0x0FFFFFFFu, 0xFFFFFFFFu}) {
      std::vector<uint8_t> bad = good;
      std::memcpy(&bad[off], &forged, sizeof(forged));
      Reseal(&bad);
      if (!RejectedWithDiagnostic(path, bad,
                                  "count " + std::to_string(forged) +
                                      " at byte " + std::to_string(off))) {
        ++failures;
      }
    }
  }
  std::_Exit(failures == 0 ? 0 : 1);
}

/// Death-test body: cuts `good` at every length short of its own.  Under
/// the address-space cap it also offers a sparse file larger than the cap,
/// whose image cannot be allocated.
[[noreturn]] void RunTruncationMatrix(const std::string& path,
                                      const std::vector<uint8_t>& good) {
  const bool capped = LimitAddressSpace();
  int failures = 0;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bad(good.begin(), good.begin() + cut);
    if (!RejectedWithDiagnostic(path, bad,
                                "truncation to " + std::to_string(cut))) {
      ++failures;
    }
  }
  if (capped) {
    WriteFile(path, good);
    if (::truncate(path.c_str(), static_cast<off_t>(2 * kAddressSpaceLimit)) !=
        0) {
      std::fprintf(stderr, "cannot grow %s\n", path.c_str());
      ++failures;
    }
    SnapshotReader reader;
    std::string error;
    if (reader.Open(path, nullptr, &error) ||
        error.rfind("snapshot: ", 0) != 0) {
      std::fprintf(stderr, "oversized file: '%s'\n", error.c_str());
      ++failures;
    }
  }
  std::_Exit(failures == 0 ? 0 : 1);
}

/// Reads the header's section count at byte `off`.
uint32_t HeaderCount(const std::vector<uint8_t>& bytes, size_t off) {
  uint32_t v;
  std::memcpy(&v, &bytes[off], sizeof(v));
  return v;
}

// The container must reject EVERY single-byte flip: the header's leading
// fields are validated directly, and bytes 32 onward — the section counts,
// the reserved tail and the whole payload — are checksummed, so no flip
// position can slip through.  Forged counts under a valid checksum are
// bounded by the bytes left to hold them.
TEST(SnapshotRoundTripTest, EveryByteFlipIsRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = TempPath("corrupt");
  const std::vector<uint8_t> good = MakeValidSnapshotBytes(path);
  ASSERT_GT(good.size(), 64u);
  // Every section is populated: labels, patterns, verdicts, hot programs.
  EXPECT_GT(HeaderCount(good, 32), 0u);
  EXPECT_EQ(HeaderCount(good, 36), 8u);
  EXPECT_EQ(HeaderCount(good, 40), 14u);
  EXPECT_EQ(HeaderCount(good, 44), 2u);
  EXPECT_EXIT(RunFlipMatrix(path, good), ::testing::ExitedWithCode(0), "");
  std::remove(path.c_str());
}

TEST(SnapshotRoundTripTest, EveryTruncationIsRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = TempPath("trunc");
  const std::vector<uint8_t> good = MakeValidSnapshotBytes(path);
  EXPECT_EXIT(RunTruncationMatrix(path, good), ::testing::ExitedWithCode(0),
              "");
  std::remove(path.c_str());
}

TEST(SnapshotRoundTripTest, VersionSkewAndForeignEndiannessAreRejected) {
  const std::string path = TempPath("skew");
  const std::vector<uint8_t> good = MakeValidSnapshotBytes(path);

  // Version field lives at byte 8 (u32).  A reader must name the skew even
  // without consulting the checksum.  Version 1 is the old layout, which
  // still carried a tree section.
  ASSERT_EQ(kSnapshotFormatVersion, 2u);
  for (uint32_t v : {1u, kSnapshotFormatVersion + 1, kSnapshotFormatVersion + 7,
                     0u, 0xFFFFFFFFu}) {
    std::vector<uint8_t> bad = good;
    std::memcpy(&bad[8], &v, sizeof(v));
    WriteFile(path, bad);
    SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Open(path, nullptr, &error)) << "version " << v;
    EXPECT_EQ(error.rfind("snapshot: format version skew", 0), 0u) << error;
  }

  // Endianness tag lives at byte 12 (u32): a byte-swapped tag simulates a
  // snapshot written on a foreign-endian machine.
  {
    std::vector<uint8_t> bad = good;
    std::swap(bad[12], bad[15]);
    std::swap(bad[13], bad[14]);
    WriteFile(path, bad);
    SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Open(path, nullptr, &error));
    EXPECT_NE(error.find("endian"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundTripTest, BudgetRefusalIsACleanFailure) {
  const std::string path = TempPath("budget");
  const std::vector<uint8_t> good = MakeValidSnapshotBytes(path);

  Budget budget;
  budget.Arm(/*step_limit=*/0, /*deadline_ms=*/0, /*memory_limit=*/8);
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &budget, &error));
  EXPECT_NE(error.find("budget"), std::string::npos) << error;
  EXPECT_FALSE(reader.is_open());
  std::remove(path.c_str());
}

// A type-set verdict (tag 6, the last route) round-trips through a service
// snapshot and answers warm with its route intact; a hand-written record
// for the same pair tagged kNumDispatchAlgorithms is skipped on load, so the
// pair is decided live.
TEST(SnapshotRoundTripTest, TypeSetTagRoundTripsAndUnknownTagsAreSkipped) {
  ASSERT_EQ(static_cast<int>(ContainmentAlgorithm::kTypeSet), 6);
  ASSERT_EQ(kNumDispatchAlgorithms, 7);
  LabelPool pool;
  const ConpFamilyInstance inst = BuildConpFamily(3, &pool);
  const std::string path = TempPath("type_set");
  std::string error;
  {
    EngineContext ctx;
    QueryService service(&pool, &ctx);
    ContainmentResult r = service.Contains(inst.p, inst.q_yes, Mode::kWeak);
    ASSERT_EQ(r.outcome, Outcome::kDecided);
    ASSERT_TRUE(r.contained);
    ASSERT_EQ(r.algorithm, ContainmentAlgorithm::kTypeSet);
    ASSERT_TRUE(service.SaveSnapshot(path, &error)) << error;
  }
  {
    EngineContext ctx;
    QueryService service(&pool, &ctx);
    ASSERT_TRUE(service.LoadSnapshot(path, &error)) << error;
    ContainmentResult r = service.Contains(inst.p, inst.q_yes, Mode::kWeak);
    EXPECT_EQ(ctx.stats().cache_hits.load(), 1);
    EXPECT_TRUE(r.contained);
    EXPECT_EQ(r.algorithm, ContainmentAlgorithm::kTypeSet);
  }
  for (int tag : {6, kNumDispatchAlgorithms, 255}) {
    SnapshotWriter writer;
    ASSERT_TRUE(writer.SetLabels(pool));
    std::optional<uint32_t> pi =
        writer.AddPattern(inst.p, CanonicalTpqDigest(inst.p));
    std::optional<uint32_t> qi =
        writer.AddPattern(inst.q_yes, CanonicalTpqDigest(inst.q_yes));
    ASSERT_TRUE(pi.has_value() && qi.has_value());
    SnapshotVerdict v;
    v.p_index = *pi;
    v.q_index = *qi;
    v.contained = true;
    v.algorithm_tag = static_cast<uint8_t>(tag);
    ASSERT_TRUE(writer.AddVerdict(v));
    ASSERT_TRUE(writer.WriteTo(path, &error)) << error;

    EngineContext ctx;
    QueryService service(&pool, &ctx);
    ASSERT_TRUE(service.LoadSnapshot(path, &error)) << error;
    ContainmentResult r = service.Contains(inst.p, inst.q_yes, Mode::kWeak);
    EXPECT_TRUE(r.contained) << "tag " << tag;
    EXPECT_EQ(r.algorithm, ContainmentAlgorithm::kTypeSet) << "tag " << tag;
    EXPECT_EQ(ctx.stats().cache_hits.load(), tag == 6 ? 1 : 0)
        << "tag " << tag;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpc
