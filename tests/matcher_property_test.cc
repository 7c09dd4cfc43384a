// Property sweep: the Matcher dynamic program against the two reference
// oracles of reference_sweep.h — brute-force embedding enumeration and the
// definitional bool tables — which are also cross-checked against each
// other, across pattern fragments and tree shapes (parameterized).

#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "base/label.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "reference_sweep.h"

namespace tpc {
namespace {

using MatchSweepParam = std::tuple<int32_t /*fragment idx*/, int32_t /*q size*/,
                                   uint32_t /*seed*/>;

const Fragment kSweepFragments[] = {
    fragments::kPqChild,     fragments::kPqFull,      fragments::kTpqChild,
    fragments::kTpqChildDesc, fragments::kTpqDescStar, fragments::kTpqFull,
};

class MatcherSweepTest : public ::testing::TestWithParam<MatchSweepParam> {};

TEST_P(MatcherSweepTest, AgreesWithBothOracles) {
  auto [frag_idx, q_size, seed] = GetParam();
  LabelPool pool;
  std::mt19937 rng(seed * 7919 + q_size);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  RandomTpqOptions qopts;
  qopts.labels = labels;
  qopts.fragment = kSweepFragments[frag_idx];
  qopts.size = q_size;
  RandomTreeOptions topts;
  topts.labels = labels;
  for (int trial = 0; trial < 15; ++trial) {
    Tpq q = RandomTpq(qopts, &rng);
    topts.size = 2 + trial % 8;
    Tree t = RandomTree(topts, &rng);
    for (bool strong : {false, true}) {
      const bool brute = BruteForceMatch(q, t, strong);
      EXPECT_EQ(ReferenceMatches(q, t, strong), brute)
          << "oracles disagree: " << q.ToString(pool) << " on "
          << t.ToString(pool) << (strong ? " strong" : " weak");
      EXPECT_EQ(strong ? MatchesStrong(q, t) : MatchesWeak(q, t), brute)
          << q.ToString(pool) << " on " << t.ToString(pool)
          << (strong ? " strong" : " weak");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatcherSweepTest,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Values(2, 3, 5),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<MatchSweepParam>& info) {
      return "F" + std::to_string(std::get<0>(info.param)) + "_Q" +
             std::to_string(std::get<1>(info.param)) + "_S" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace tpc
