#include "solver/mip.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "solver/model.h"
#include "util/rng.h"

namespace dsct::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(Mip, PureLpPassthrough) {
  Model m;
  m.setMaximize(true);
  const int x = m.addVariable(0, 4.0, 1.0);
  m.addConstraint({{x, 1.0}}, Sense::kLe, 3.0);
  const MipResult res = solveMip(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 3.0, kTol);
  EXPECT_NEAR(res.bestBound, res.objective, kTol);
}

TEST(Mip, SmallKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binaries → a=1,c=1 (17) vs
  // b=1,c=1 (20). Optimal 20.
  Model m;
  m.setMaximize(true);
  const int a = m.addBinary(10.0);
  const int b = m.addBinary(13.0);
  const int c = m.addBinary(7.0);
  m.addConstraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::kLe, 6.0);
  const MipResult res = solveMip(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 20.0, kTol);
  EXPECT_NEAR(res.x[0], 0.0, kTol);
  EXPECT_NEAR(res.x[1], 1.0, kTol);
  EXPECT_NEAR(res.x[2], 1.0, kTol);
}

TEST(Mip, IntegerVariablesBeyondBinary) {
  // max x + y, x,y integer, 2x + 3y <= 12, x <= 4 → x=4, y=1 (5) ... check:
  // 2*4+3*1=11 <=12 ok; x=3,y=2 → 12, obj 5 too. Optimal value 5.
  Model m;
  m.setMaximize(true);
  const int x = m.addVariable(0, 4, 1.0, VarType::kInteger);
  const int y = m.addVariable(0, kInfinity, 1.0, VarType::kInteger);
  m.addConstraint({{x, 2.0}, {y, 3.0}}, Sense::kLe, 12.0);
  const MipResult res = solveMip(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 5.0, kTol);
  // Integrality of the reported solution.
  for (double v : res.x) {
    EXPECT_NEAR(v, std::round(v), 1e-6);
  }
}

TEST(Mip, InfeasibleIntegerRestriction) {
  // 0.4 <= x <= 0.6, x binary → infeasible.
  Model m;
  m.setMaximize(true);
  const int x = m.addVariable(0.4, 0.6, 1.0, VarType::kBinary);
  m.addConstraint({{x, 1.0}}, Sense::kLe, 1.0);
  const MipResult res = solveMip(m);
  EXPECT_EQ(res.status, SolveStatus::kInfeasible);
  EXPECT_FALSE(res.hasSolution);
}

TEST(Mip, EqualityPartition) {
  // Partition {3, 5, 8}: pick subset summing to 8 → {3,5} or {8}.
  Model m;
  m.setMaximize(true);
  const int a = m.addBinary(1.0);
  const int b = m.addBinary(1.0);
  const int c = m.addBinary(1.0);
  m.addConstraint({{a, 3.0}, {b, 5.0}, {c, 8.0}}, Sense::kEq, 8.0);
  const MipResult res = solveMip(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 2.0, kTol);  // {3,5} beats {8}
}

TEST(Mip, WarmStartAcceptedAndImproved) {
  Model m;
  m.setMaximize(true);
  const int a = m.addBinary(2.0);
  const int b = m.addBinary(3.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
  MipOptions options;
  options.initialSolution = std::vector<double>{1.0, 0.0};  // objective 2
  const MipResult res = solveMip(m, options);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 3.0, kTol);  // improves past the warm start
}

TEST(Mip, InfeasibleWarmStartIgnored) {
  Model m;
  m.setMaximize(true);
  const int a = m.addBinary(1.0);
  m.addConstraint({{a, 1.0}}, Sense::kLe, 1.0);
  MipOptions options;
  options.initialSolution = std::vector<double>{2.0};  // violates bounds
  const MipResult res = solveMip(m, options);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0, kTol);
}

TEST(Mip, NodeLimitReturnsBound) {
  // A knapsack big enough to need branching.
  Model m;
  m.setMaximize(true);
  Rng rng(5);
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 20; ++i) {
    const double value = rng.uniform(1.0, 10.0);
    const int v = m.addBinary(value);
    row.emplace_back(v, rng.uniform(1.0, 10.0));
  }
  m.addConstraint(row, Sense::kLe, 25.0);
  MipOptions options;
  options.maxNodes = 1;
  const MipResult res = solveMip(m, options);
  EXPECT_EQ(res.status, SolveStatus::kIterationLimit);
  EXPECT_TRUE(std::isfinite(res.bestBound));
}

TEST(Mip, NodeLimitIncumbentIsFeasibleAndBounded) {
  // Stopped by the node limit before proving optimality, the search still
  // reports the best incumbent it found: integral, feasible, and never
  // better than the reported bound.
  Rng rng(65);
  int withIncumbent = 0;
  for (int trial = 0; trial < 6; ++trial) {
    Model m;
    m.setMaximize(true);
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < 20; ++i) {
      row.emplace_back(m.addBinary(rng.uniform(1.0, 9.0)),
                       rng.uniform(1.0, 9.0));
    }
    m.addConstraint(row, Sense::kLe, 30.0);
    MipOptions options;
    options.maxNodes = 50;
    const MipResult res = solveMip(m, options);
    EXPECT_EQ(res.status, SolveStatus::kIterationLimit) << "trial " << trial;
    EXPECT_TRUE(std::isfinite(res.bestBound)) << "trial " << trial;
    if (!res.hasSolution) continue;
    ++withIncumbent;
    EXPECT_TRUE(m.isFeasible(res.x, 1e-6)) << "trial " << trial;
    for (const double v : res.x) EXPECT_NEAR(v, std::round(v), 1e-6);
    EXPECT_LE(res.objective, res.bestBound + kTol) << "trial " << trial;
  }
  EXPECT_GT(withIncumbent, 0);
}

TEST(Mip, FeasibleWarmStartLeavesOptimumUnchanged) {
  // Seeding the search with a feasible incumbent (the empty knapsack)
  // changes nothing about where it ends: same optimal objective as cold.
  Rng rng(64);
  for (int trial = 0; trial < 8; ++trial) {
    Model m;
    m.setMaximize(true);
    const int n = rng.uniformInt(4, 9);
    std::vector<std::pair<int, double>> row;
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      const int v = m.addBinary(rng.uniform(0.5, 5.0));
      const double w = rng.uniform(0.5, 5.0);
      row.emplace_back(v, w);
      total += w;
    }
    m.addConstraint(std::move(row), Sense::kLe, 0.5 * total);
    MipOptions warm;
    warm.initialSolution = std::vector<double>(static_cast<std::size_t>(n),
                                               0.0);
    const MipResult cold = solveMip(m);
    const MipResult seeded = solveMip(m, warm);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal);
    ASSERT_EQ(seeded.status, SolveStatus::kOptimal);
    EXPECT_NEAR(cold.objective, seeded.objective, 1e-7) << "trial " << trial;
  }
}

TEST(Mip, GapIsZeroAtOptimality) {
  Model m;
  m.setMaximize(true);
  const int a = m.addBinary(1.0);
  m.addConstraint({{a, 1.0}}, Sense::kLe, 1.0);
  const MipResult res = solveMip(m);
  EXPECT_NEAR(res.gap(), 0.0, 1e-9);
}

// Random knapsacks cross-checked against exhaustive enumeration.
class MipRandomKnapsack : public ::testing::TestWithParam<int> {};

TEST_P(MipRandomKnapsack, MatchesExhaustive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 3u);
  const int n = rng.uniformInt(4, 10);
  std::vector<double> value(static_cast<std::size_t>(n));
  std::vector<double> weight(static_cast<std::size_t>(n));
  double totalWeight = 0.0;
  for (int i = 0; i < n; ++i) {
    value[static_cast<std::size_t>(i)] = rng.uniform(0.5, 9.0);
    weight[static_cast<std::size_t>(i)] = rng.uniform(0.5, 9.0);
    totalWeight += weight[static_cast<std::size_t>(i)];
  }
  const double cap = rng.uniform(0.2, 0.8) * totalWeight;

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double v = 0.0, w = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        v += value[static_cast<std::size_t>(i)];
        w += weight[static_cast<std::size_t>(i)];
      }
    }
    if (w <= cap) best = std::max(best, v);
  }

  Model m;
  m.setMaximize(true);
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < n; ++i) {
    const int var = m.addBinary(value[static_cast<std::size_t>(i)]);
    row.emplace_back(var, weight[static_cast<std::size_t>(i)]);
  }
  m.addConstraint(std::move(row), Sense::kLe, cap);
  const MipResult res = solveMip(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(res.objective, best, 1e-6) << "seed " << GetParam();
  EXPECT_TRUE(m.isFeasible(res.x, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(RandomKnapsacks, MipRandomKnapsack,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace dsct::lp
