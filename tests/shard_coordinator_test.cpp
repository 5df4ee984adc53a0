// The shard coordinator (src/shard/coordinator.h): K = 1 bit-identity,
// outer price-loop convergence across the corpus regimes, budget safety of
// the merged schedule, and the ShardedSolver adapter surface.
#include "shard/coordinator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver_registry.h"
#include "tests/test_support.h"
#include "util/thread_pool.h"

namespace dsct::shard {
namespace {

const Solver& innerSolver(const std::string& name = "approx") {
  return SolverRegistry::instance().resolve(name);
}

TEST(ShardCoordinator, SingleCellBitIdenticalToInnerSolver) {
  for (const char* name : {"approx", "fr-opt", "edf3"}) {
    SCOPED_TRACE(name);
    const Solver& inner = innerSolver(name);
    for (int caseIdx = 0; caseIdx < 6; ++caseIdx) {
      const Instance inst = testing::corpusInstance(3, caseIdx);
      const SolveContext context;
      const SolveOutcome direct = inner.solve(inst, context);

      ShardOptions options;
      options.cells = 1;
      ShardCoordinator coordinator(inner, options);
      const SolveOutcome sharded = coordinator.solve(inst, context);

      EXPECT_EQ(sharded.totalAccuracy, direct.totalAccuracy)
          << "case " << caseIdx;
      EXPECT_EQ(sharded.energy, direct.energy) << "case " << caseIdx;
      EXPECT_EQ(sharded.scheduledTasks, direct.scheduledTasks);
      EXPECT_TRUE(coordinator.lastStats().converged);
      EXPECT_EQ(coordinator.lastStats().cells, 1);
    }
  }
}

TEST(ShardCoordinator, PriceLoopConvergesAcrossCorpusRegimes) {
  const Solver& inner = innerSolver();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (int caseIdx = 0; caseIdx < 10; ++caseIdx) {
      const Instance inst = testing::corpusInstance(seed, caseIdx);
      if (inst.numMachines() < 2) continue;
      ShardOptions options;
      options.cells = 2 + caseIdx % 3;
      ShardCoordinator coordinator(inner, options);
      const SolveOutcome outcome = coordinator.solve(inst, SolveContext{});
      const ShardStats& stats = coordinator.lastStats();
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " case=" + std::to_string(caseIdx) +
                   " cells=" + std::to_string(stats.cells));
      // Breakpoint-snapping bisection either lands in the tolerance band or
      // pins the critical price exactly — it never just runs out of
      // iterations on these sizes.
      EXPECT_TRUE(stats.converged);
      EXPECT_LE(stats.priceIterations, kMaxPriceIterations);
      EXPECT_GE(stats.finalPrice, 0.0);
      // The assigned cell budgets never oversubscribe B, and the merged
      // schedule honours the global budget.
      EXPECT_LE(stats.budgetAssigned, inst.energyBudget() * (1.0 + 1e-9));
      EXPECT_LE(outcome.energy, inst.energyBudget() * (1.0 + 1e-6));
      EXPECT_TRUE(outcome.solved());
    }
  }
}

TEST(ShardCoordinator, MergedScheduleMeetsDeadlines) {
  const Solver& inner = innerSolver();
  const Instance inst = testing::randomInstance(5, 40, 8, 0.35, 0.3);
  ShardOptions options;
  options.cells = 4;
  ShardCoordinator coordinator(inner, options);
  const SolveOutcome outcome = coordinator.solve(inst, SolveContext{});
  ASSERT_TRUE(outcome.schedule.has_value());
  const IntegralSchedule& schedule = *outcome.schedule;
  for (int j = 0; j < inst.numTasks(); ++j) {
    if (schedule.machineOf(j) < 0) continue;
    EXPECT_LE(schedule.start(j) + schedule.duration(j),
              inst.task(j).deadline + 1e-9)
        << "task " << j;
  }
}

TEST(ShardCoordinator, TopUpNeverWorsensTheSolve) {
  const Solver& inner = innerSolver();
  for (int caseIdx = 0; caseIdx < 8; ++caseIdx) {
    const Instance inst = testing::corpusInstance(9, caseIdx);
    if (inst.numMachines() < 2) continue;
    ShardOptions options;
    options.cells = 2;
    ShardCoordinator withTopUp(inner, options);
    options.topUp = false;
    ShardCoordinator withoutTopUp(inner, options);
    const double topped =
        withTopUp.solve(inst, SolveContext{}).totalAccuracy;
    const double plain =
        withoutTopUp.solve(inst, SolveContext{}).totalAccuracy;
    EXPECT_GE(topped, plain - 1e-9) << "case " << caseIdx;
  }
}

TEST(ShardCoordinator, ParallelCellSolvesMatchSerial) {
  const Solver& inner = innerSolver();
  const Instance inst = testing::randomInstance(31, 60, 8, 0.35, 0.2);
  ShardOptions options;
  options.cells = 4;

  ShardCoordinator serial(inner, options);
  const SolveOutcome serialOutcome = serial.solve(inst, SolveContext{});

  ThreadPool pool;
  SolveContext pooled;
  pooled.frOpt.pool = &pool;
  ShardCoordinator parallel(inner, options);
  const SolveOutcome parallelOutcome = parallel.solve(inst, pooled);

  // The partition and per-cell budgets are pool-independent; the merged
  // objective must match bit for bit (parallelMap is index-ordered).
  EXPECT_EQ(parallelOutcome.totalAccuracy, serialOutcome.totalAccuracy);
  EXPECT_EQ(parallelOutcome.energy, serialOutcome.energy);
}

TEST(ShardCoordinator, RepeatSolveRedoesTheSameWork) {
  const Solver& inner = innerSolver();
  const Instance inst = testing::randomInstance(41, 30, 6, 0.35, 0.25);
  ShardOptions options;
  options.cells = 3;
  ShardCoordinator coordinator(inner, options);
  const SolveOutcome first = coordinator.solve(inst, SolveContext{});
  const SolveOutcome second = coordinator.solve(inst, SolveContext{});
  // Same instance, same budgets: the cells carry no evaluations across
  // solves, so the second epoch repeats the first one's work exactly.
  EXPECT_EQ(second.totalAccuracy, first.totalAccuracy);
  EXPECT_EQ(second.energy, first.energy);
  EXPECT_GT(first.counters.evaluations, 0);
  EXPECT_EQ(second.counters.evaluations, first.counters.evaluations);
  EXPECT_EQ(second.counters.cacheHits, first.counters.cacheHits);
}

TEST(ShardedSolver, AdapterSurfacesInnerIdentity) {
  const Solver& inner = innerSolver();
  ShardOptions options;
  options.cells = 2;
  const ShardedSolver solver(inner, options);
  EXPECT_EQ(solver.name(), "sharded-approx");
  EXPECT_EQ(&solver.inner(), &inner);
  EXPECT_TRUE(solver.capabilities().integral);

  const Instance inst = testing::randomInstance(51, 20, 4, 0.35, 0.3);
  const SolveOutcome outcome = solver.solve(inst, SolveContext{});
  EXPECT_TRUE(outcome.solved());
  EXPECT_EQ(outcome.solver, "sharded-approx");
  EXPECT_EQ(solver.lastStats().cells, 2);
}

TEST(ShardCoordinator, RespectsAvailabilityCapSlices) {
  // Machine 0 gets a near-zero charge: the coordinator must slice the hint
  // into the owning cell and the availability-aware inner solver must keep
  // that machine (almost) idle in the merged schedule.
  const Instance inst = testing::randomInstance(61, 24, 6, 0.35, 0.6);
  AvailabilityHints hints;
  hints.machineEnergyCaps.assign(
      static_cast<std::size_t>(inst.numMachines()), 1e9);
  hints.machineEnergyCaps[0] = 1e-6;
  SolveContext context;
  context.availability = &hints;

  ShardOptions options;
  options.cells = 3;
  ShardCoordinator coordinator(innerSolver(), options);
  const SolveOutcome outcome = coordinator.solve(inst, context);
  ASSERT_TRUE(outcome.schedule.has_value());
  const double load0 = outcome.schedule->machineLoad(0);
  EXPECT_LE(load0 * inst.machine(0).power(), 1e-5);
}

}  // namespace
}  // namespace dsct::shard
