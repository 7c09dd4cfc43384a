#include <gtest/gtest.h>

#include "base/label.h"
#include "contain/containment.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "reductions/hardness_families.h"
#include "reductions/partition.h"
#include "regex/regex.h"
#include "schema/schema_engine.h"

namespace tpc {
namespace {

class ReductionsTest : public ::testing::Test {
 protected:
  LabelPool pool_;
};

// ---------------------------------------------------------------- partition

TEST_F(ReductionsTest, ThreePartitionSolver) {
  ThreePartitionInstance yes;
  yes.bound = 12;
  yes.numbers = {4, 4, 4, 5, 4, 3};  // {4,4,4} and {5,4,3}
  EXPECT_TRUE(SolveThreePartition(yes));

  ThreePartitionInstance no;
  no.bound = 12;
  no.numbers = {5, 5, 5, 4, 4, 1};  // sums 24 but {5,5,5}=15 != 12
  EXPECT_FALSE(SolveThreePartition(no));
}

TEST_F(ReductionsTest, FourPartitionSolver) {
  FourPartitionInstance yes;
  yes.log_target = 3;   // groups sum to 8
  yes.log_groups4 = 1;  // 8 numbers, 2 groups
  yes.numbers = {3, 3, 1, 1, 2, 2, 2, 2};
  EXPECT_TRUE(SolveFourPartition(yes));

  FourPartitionInstance no = yes;
  no.numbers = {7, 7, 2, 0, 0, 0, 0, 0};  // {7,7,2} can't split into sums 8
  EXPECT_FALSE(SolveFourPartition(no));
}

TEST_F(ReductionsTest, ThreeToFourPartitionPreservesAnswer) {
  ThreePartitionInstance yes;
  yes.bound = 12;
  yes.numbers = {4, 4, 4, 5, 4, 3};
  FourPartitionInstance yes4 = ThreeToFourPartition(yes);
  EXPECT_EQ(yes4.numbers.size(), 4u << yes4.log_groups4);
  EXPECT_TRUE(SolveFourPartition(yes4));

  ThreePartitionInstance no;
  no.bound = 12;
  no.numbers = {5, 5, 5, 4, 4, 1};
  EXPECT_FALSE(SolveFourPartition(ThreeToFourPartition(no)));
}

TEST_F(ReductionsTest, BalancedTreesArePairwiseDifferent) {
  std::vector<Tree> trees = EnumerateBalancedTrees(16, &pool_);
  ASSERT_EQ(trees.size(), 16u);
  for (size_t i = 0; i < trees.size(); ++i) {
    for (size_t j = i + 1; j < trees.size(); ++j) {
      EXPECT_FALSE(trees[i].EqualsUnordered(trees[j])) << i << "," << j;
    }
  }
  // All trees of one batch are perfectly balanced with equal depth.
  for (const Tree& t : trees) EXPECT_EQ(t.depth(), trees[0].depth());
}

TEST_F(ReductionsTest, PartitionReductionSolvableInstance) {
  FourPartitionInstance inst;
  inst.log_target = 2;   // groups sum to 4
  inst.log_groups4 = 0;  // 4 numbers, 1 group
  inst.numbers = {1, 1, 1, 1};
  ASSERT_TRUE(SolveFourPartition(inst));
  PartitionSatInstance sat = BuildPartitionReduction(inst, &pool_);
  SchemaDecision r = SatisfiableWithDtd(sat.p, Mode::kStrong, sat.dtd);
  EXPECT_TRUE(r.yes);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(sat.dtd.Satisfies(*r.witness));
  EXPECT_TRUE(MatchesStrong(sat.p, *r.witness));
}

TEST_F(ReductionsTest, PartitionReductionUnsolvableInstance) {
  // Sum matches 2^{K+L} but {3,3,2} cannot split into two groups of sum 4.
  FourPartitionInstance inst;
  inst.log_target = 2;   // groups of sum 4
  inst.log_groups4 = 1;  // 8 numbers, 2 groups
  inst.numbers = {3, 3, 2, 0, 0, 0, 0, 0};
  ASSERT_FALSE(SolveFourPartition(inst));
  PartitionSatInstance sat = BuildPartitionReduction(inst, &pool_);
  SchemaDecision r = SatisfiableWithDtd(sat.p, Mode::kStrong, sat.dtd);
  EXPECT_FALSE(r.yes);
}

TEST_F(ReductionsTest, PartitionReductionGroupedSolvable) {
  FourPartitionInstance inst;
  inst.log_target = 2;   // groups of sum 4
  inst.log_groups4 = 1;  // 8 numbers, 2 groups
  inst.numbers = {2, 2, 2, 2, 0, 0, 0, 0};
  ASSERT_TRUE(SolveFourPartition(inst));
  PartitionSatInstance sat = BuildPartitionReduction(inst, &pool_);
  SchemaDecision r = SatisfiableWithDtd(sat.p, Mode::kStrong, sat.dtd);
  EXPECT_TRUE(r.yes);
}

// -------------------------------------------------------------------- wood

TEST_F(ReductionsTest, WoodInstanceAllLettersWord) {
  std::vector<LabelId> sigma = {pool_.Intern("x"), pool_.Intern("y"),
                                pool_.Intern("z")};
  LabelId root = pool_.Intern("r");
  // e = (x y | y z)* : no single word contains all three letters... it does:
  // x y y z!  Use e = x y | y z instead.
  Regex e = MustParseRegex("x y | y z", &pool_);
  WoodInstance w = BuildWoodInstance(e, sigma, root, &pool_);
  EXPECT_FALSE(SatisfiableWithDtd(w.p, Mode::kWeak, w.dtd).yes);

  Regex e2 = MustParseRegex("(x y | y z)*", &pool_);
  WoodInstance w2 = BuildWoodInstance(e2, sigma, root, &pool_);
  EXPECT_TRUE(SatisfiableWithDtd(w2.p, Mode::kWeak, w2.dtd).yes);
}

// ---------------------------------------------------------------- figure 2

TEST_F(ReductionsTest, Figure2GadgetProperties) {
  Figure2Gadgets g = BuildFigure2Gadgets(&pool_);
  // t_true separates T from F.
  EXPECT_TRUE(MatchesStrong(g.y, g.t_true));
  EXPECT_TRUE(MatchesStrong(g.t, g.t_true));
  EXPECT_FALSE(MatchesStrong(g.f, g.t_true));
  // t_false separates F from T.
  EXPECT_TRUE(MatchesStrong(g.y, g.t_false));
  EXPECT_TRUE(MatchesStrong(g.f, g.t_false));
  EXPECT_FALSE(MatchesStrong(g.t, g.t_false));
}

TEST_F(ReductionsTest, Figure2UnionContainment) {
  // L_s(Y) ⊆ L_s(T) ∪ L_s(F): no canonical model of Y avoids both.
  Figure2Gadgets g = BuildFigure2Gadgets(&pool_);
  LabelId bottom = pool_.Fresh("_bot");
  // Y has one descendant edge; enumerate canonical chains up to a generous
  // bound and check the union property on each.
  for (int32_t len = 0; len <= 6; ++len) {
    std::vector<int32_t> lengths = {len};
    Tree t = CanonicalTree(g.y, lengths, bottom);
    EXPECT_TRUE(MatchesStrong(g.t, t) || MatchesStrong(g.f, t))
        << "len=" << len;
  }
  // And Y is (weakly) contained in neither T nor F alone.
  EXPECT_FALSE(Contains(g.y, g.t, Mode::kStrong, &pool_).contained);
  EXPECT_FALSE(Contains(g.y, g.f, Mode::kStrong, &pool_).contained);
}

// -------------------------------------------------------------- coNP family

TEST_F(ReductionsTest, ConpFamilyAnswers) {
  // n >= 2: with a single branch p is a path and the dispatcher would route
  // to the polynomial Theorem 3.2(1) algorithm instead.
  for (int32_t n : {2, 3, 4}) {
    LabelPool pool;
    ConpFamilyInstance inst = BuildConpFamily(n, &pool);
    ContainmentResult yes = Contains(inst.p, inst.q_yes, Mode::kWeak, &pool);
    EXPECT_TRUE(yes.contained) << n;
    EXPECT_EQ(yes.algorithm, ContainmentAlgorithm::kTypeSet);
    ContainmentOptions sweep;
    sweep.force_canonical = true;
    ContainmentResult swept =
        Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, sweep);
    EXPECT_TRUE(swept.contained) << n;
    EXPECT_EQ(swept.algorithm, ContainmentAlgorithm::kCanonicalEnumeration);
    ContainmentResult no = Contains(inst.p, inst.q_no, Mode::kWeak, &pool);
    EXPECT_FALSE(no.contained) << n;
    ASSERT_TRUE(no.counterexample.has_value());
    EXPECT_TRUE(MatchesWeak(inst.p, *no.counterexample));
    EXPECT_FALSE(MatchesWeak(inst.q_no, *no.counterexample));
  }
}

}  // namespace
}  // namespace tpc
