// Snapshot container property suite (src/persist/snapshot.h): random trees
// and patterns must survive a write → mmap → read round trip bit-exactly
// (the zero-copy `TreeView` over the mapped columns reproduces every
// traversal of the original), and damaged inputs — flipped bytes, truncated
// tails, version skew, foreign endianness tags — must be rejected with a
// diagnostic, never undefined behaviour or a silently wrong tree.  Verdict
// records carry their dispatcher route as a tag: every route's tag (up to
// the type set's) survives a service save → load, and tags past the last
// route are skipped on load.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
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
#include "tree/tree.h"

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

/// Asserts that the mapped view agrees with the original tree on every
/// column, every traversal primitive and the sibling span-jump walk.
void ExpectViewIdentity(const Tree& t, const TreeView& mapped) {
  const TreeView orig = t.View();
  ASSERT_EQ(mapped.size(), t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_EQ(mapped.Label(v), t.Label(v));
    EXPECT_EQ(mapped.Parent(v), t.Parent(v));
    EXPECT_EQ(mapped.PostOf(v), orig.PostOf(v));
    EXPECT_EQ(mapped.SubtreeSize(v), orig.SubtreeSize(v));
  }
  for (int32_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(mapped.NodeAtPost(i), orig.NodeAtPost(i));
    EXPECT_EQ(mapped.LabelAtPost(i), orig.LabelAtPost(i));
    EXPECT_EQ(mapped.SubtreeSizeAtPost(i), orig.SubtreeSizeAtPost(i));
    // The span-jump child walk must enumerate exactly the node's children.
    std::vector<NodeId> walked;
    for (int32_t c = mapped.LastChild(i); c >= mapped.SpanBegin(i);
         c = mapped.PrevSibling(c)) {
      walked.push_back(mapped.NodeAtPost(c));
    }
    std::vector<NodeId> expect = t.Children(t.View().NodeAtPost(i));
    // The walk is right-to-left.
    std::reverse(walked.begin(), walked.end());
    EXPECT_EQ(walked, expect) << "post " << i;
  }
}

TEST(SnapshotRoundTripTest, ThousandRandomTreesSurviveBitExactly) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(5, &pool);
  std::mt19937 rng(20260809);

  std::vector<Tree> trees;
  for (int i = 0; i < 1000; ++i) {
    RandomTreeOptions topt;
    topt.labels = labels;
    topt.size = 1 + static_cast<int32_t>(rng() % 40);
    topt.branch_bias = (i % 10) / 10.0;
    trees.push_back(RandomTree(topt, &rng));
  }
  // Adversarial shapes ride along: maximum depth and maximum fan-out.
  trees.push_back(ChainTree(labels, 97));
  trees.push_back(StarTree(labels, 97));

  SnapshotWriter writer;
  ASSERT_TRUE(writer.SetLabels(pool));
  for (const Tree& t : trees) {
    ASSERT_TRUE(writer.AddTree(t).has_value());
  }
  const std::string path = TempPath("roundtrip");
  std::string error;
  ASSERT_TRUE(writer.WriteTo(path, &error)) << error;

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, nullptr, &error)) << error;
  ASSERT_EQ(reader.tree_count(), trees.size());
  ASSERT_EQ(reader.label_count(), pool.size());
  for (uint32_t i = 0; i < reader.label_count(); ++i) {
    EXPECT_EQ(reader.LabelAt(i), pool.Name(static_cast<LabelId>(i)));
  }
  for (size_t i = 0; i < trees.size(); ++i) {
    ExpectViewIdentity(trees[i], reader.TreeAt(static_cast<uint32_t>(i)));
  }
  reader.Close();
  std::remove(path.c_str());
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

/// Builds one small valid snapshot (labels + trees + patterns) and returns
/// its bytes.
std::vector<uint8_t> MakeValidSnapshotBytes(const std::string& path) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  std::mt19937 rng(5);
  SnapshotWriter writer;
  EXPECT_TRUE(writer.SetLabels(pool));
  for (int i = 0; i < 8; ++i) {
    RandomTreeOptions topt;
    topt.labels = labels;
    topt.size = 3 + static_cast<int32_t>(rng() % 10);
    writer.AddTree(RandomTree(topt, &rng));
    RandomTpqOptions popt;
    popt.labels = labels;
    popt.fragment = fragments::kTpqFull;
    popt.size = 3;
    Tpq p = RandomTpq(popt, &rng);
    writer.AddPattern(p, CanonicalTpqDigest(p));
  }
  std::string error;
  EXPECT_TRUE(writer.WriteTo(path, &error)) << error;
  return ReadFile(path);
}

TEST(SnapshotRoundTripTest, SeededByteFlipsAreAlwaysRejected) {
  const std::string path = TempPath("corrupt");
  const std::vector<uint8_t> good = MakeValidSnapshotBytes(path);
  ASSERT_GT(good.size(), 64u);

  // The container must reject EVERY single-byte flip: header fields are
  // validated directly and the payload is checksummed, so no flip position
  // can slip through.  Sample positions across the whole file, seeded.
  std::mt19937 rng(0xC0DEC);
  std::vector<size_t> positions;
  for (size_t i = 0; i < 64; ++i) positions.push_back(i);  // all header bytes
  for (int i = 0; i < 200; ++i) positions.push_back(rng() % good.size());

  for (size_t pos : positions) {
    std::vector<uint8_t> bad = good;
    bad[pos] ^= 0x5A;
    WriteFile(path, bad);
    SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Open(path, nullptr, &error))
        << "flip at byte " << pos << " was accepted";
    EXPECT_FALSE(error.empty()) << "flip at byte " << pos;
    EXPECT_EQ(error.rfind("snapshot: ", 0), 0u) << error;
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundTripTest, SeededTruncationsAreAlwaysRejected) {
  const std::string path = TempPath("trunc");
  const std::vector<uint8_t> good = MakeValidSnapshotBytes(path);

  std::mt19937 rng(0x7A11);
  std::vector<size_t> cuts = {0, 1, 63, 64, 65, good.size() - 1};
  for (int i = 0; i < 50; ++i) cuts.push_back(rng() % good.size());

  for (size_t cut : cuts) {
    std::vector<uint8_t> bad(good.begin(), good.begin() + cut);
    WriteFile(path, bad);
    SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Open(path, nullptr, &error))
        << "truncation to " << cut << " bytes was accepted";
    EXPECT_FALSE(error.empty());
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundTripTest, VersionSkewAndForeignEndiannessAreRejected) {
  const std::string path = TempPath("skew");
  const std::vector<uint8_t> good = MakeValidSnapshotBytes(path);

  // Version field lives at byte 8 (u32).  A reader must name the skew even
  // without consulting the checksum.
  for (uint32_t v : {kSnapshotFormatVersion + 1, kSnapshotFormatVersion + 7,
                     0u, 0xFFFFFFFFu}) {
    std::vector<uint8_t> bad = good;
    std::memcpy(&bad[8], &v, sizeof(v));
    WriteFile(path, bad);
    SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Open(path, nullptr, &error)) << "version " << v;
    EXPECT_NE(error.find("version"), std::string::npos) << error;
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
