// Residual accuracy functions and backlog carry-over in the serving driver.
#include <gtest/gtest.h>

#include "accuracy/fit.h"
#include "accuracy/piecewise.h"
#include "sim/renewable.h"
#include "sim/serving.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "workload/gpu_catalog.h"

namespace dsct {
namespace {

PiecewiseLinearAccuracy sample() {
  return PiecewiseLinearAccuracy::fromPoints({0.0, 1.0, 2.0, 4.0},
                                             {0.1, 0.5, 0.7, 0.9});
}

TEST(Suffix, MidSegment) {
  const auto f = sample();
  const auto s = f.suffix(0.5);
  EXPECT_DOUBLE_EQ(s.amin(), f.value(0.5));
  EXPECT_DOUBLE_EQ(s.amax(), f.amax());
  EXPECT_DOUBLE_EQ(s.fmax(), 3.5);
  EXPECT_EQ(s.numSegments(), 3);
  // suffix(fDone)(x) == f(fDone + x) everywhere.
  for (double x = 0.0; x <= 3.5; x += 0.17) {
    EXPECT_NEAR(s.value(x), f.value(0.5 + x), 1e-12) << "x=" << x;
  }
}

TEST(Suffix, AtBreakpointDropsSegment) {
  const auto f = sample();
  const auto s = f.suffix(1.0);
  EXPECT_EQ(s.numSegments(), 2);
  EXPECT_DOUBLE_EQ(s.amin(), 0.5);
  EXPECT_DOUBLE_EQ(s.theta(), 0.2);
}

TEST(Suffix, ZeroIsIdentity) {
  const auto f = sample();
  const auto s = f.suffix(0.0);
  EXPECT_TRUE(s == f);
}

TEST(Suffix, PreservesConcavityOnGeneratedCurves) {
  const auto f = makePaperAccuracy(0.001, 0.82, 0.7);
  for (double frac : {0.1, 0.33, 0.5, 0.9, 0.99}) {
    const auto s = f.suffix(frac * f.fmax());
    // Construction validates concavity; spot-check continuity.
    EXPECT_NEAR(s.value(0.0), f.value(frac * f.fmax()), 1e-12);
    EXPECT_NEAR(s.amax(), f.amax(), 1e-12);
  }
}

TEST(Suffix, RejectsFullyProcessed) {
  const auto f = sample();
  EXPECT_THROW(f.suffix(4.0), CheckError);
  EXPECT_THROW(f.suffix(5.0), CheckError);
}

TEST(Suffix, NegativeClampsToZero) {
  const auto f = sample();
  EXPECT_TRUE(f.suffix(-1.0) == f);
}

TEST(BacklogServing, CarryOverNeverHurtsAndUsuallyHelps) {
  // Long relative deadlines + small per-epoch budget: one epoch cannot
  // finish a request, so carrying the investment forward must help.
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 6.0;
  options.horizonSeconds = 6.0;
  options.epochSeconds = 0.5;
  options.relDeadlineLo = 2.0;
  options.relDeadlineHi = 4.0;
  options.energyBudgetPerEpoch = 15.0;
  options.thetaLo = 0.1;
  options.thetaHi = 0.5;  // expensive tasks
  options.seed = 17;
  options.carryBacklog = false;
  const auto oneShot =
      sim::runServing(machines, "approx", options);
  options.carryBacklog = true;
  const auto carried =
      sim::runServing(machines, "approx", options);
  EXPECT_EQ(oneShot.requests, carried.requests);
  EXPECT_GT(carried.meanAccuracy, oneShot.meanAccuracy);
}

TEST(BacklogServing, RequestCountsConserved) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 25.0;
  options.horizonSeconds = 3.0;
  options.epochSeconds = 0.25;
  options.relDeadlineLo = 0.3;
  options.relDeadlineHi = 3.0;
  options.energyBudgetPerEpoch = 30.0;
  options.seed = 23;
  options.carryBacklog = true;
  const auto stats =
      sim::runServing(machines, "approx", options);
  // Every arrival inside the horizon is finalized exactly once.
  EXPECT_GT(stats.requests, 0);
  EXPECT_LE(stats.served, stats.requests);
  EXPECT_GE(stats.meanAccuracy, 0.0);
  EXPECT_LE(stats.meanAccuracy, 1.0);
}

TEST(BacklogServing, DeterministicWithSeed) {
  const auto machines = machinesFromCatalog({"P100"});
  sim::ServingOptions options;
  options.horizonSeconds = 2.0;
  options.carryBacklog = true;
  options.seed = 31;
  const auto a = sim::runServing(machines, "edf3", options);
  const auto b = sim::runServing(machines, "edf3", options);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.meanAccuracy, b.meanAccuracy);
}

/// Every externally observable field of two runs must match exactly —
/// pooled evaluation may only change where the work runs, never what it
/// computes.
void expectBitIdentical(const sim::ServingStats& a,
                        const sim::ServingStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
  EXPECT_EQ(a.meanAccuracy, b.meanAccuracy);  // bitwise, not NEAR
  EXPECT_EQ(a.totalEnergy, b.totalEnergy);
  EXPECT_EQ(a.meanLatency, b.meanLatency);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.interruptions, b.interruptions);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.policyFailures, b.policyFailures);
  EXPECT_EQ(a.validatorRejections, b.validatorRejections);
  EXPECT_EQ(a.budgetShockEpochs, b.budgetShockEpochs);
  EXPECT_EQ(a.noMachineEpochs, b.noMachineEpochs);
  EXPECT_EQ(a.incidents, b.incidents);
}

TEST(BacklogServing, ParallelEvalBitIdenticalToSerial) {
  // Running the epoch solver's batch evaluations on an oversubscribed
  // worker pool must reproduce the single-threaded run bit for bit.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 15.0;
  options.horizonSeconds = 4.0;
  options.epochSeconds = 0.5;
  options.relDeadlineLo = 1.0;
  options.relDeadlineHi = 3.0;
  options.energyBudgetPerEpoch = 25.0;
  options.seed = 41;
  options.carryBacklog = true;
  const auto parallel = sim::runServing(
      machines,
      testing::servingVariant("approx", testing::ServingVariant::kParallelEval),
      options);
  const auto serial = sim::runServing(machines, "approx", options);
  expectBitIdentical(parallel, serial);
}

TEST(BacklogServing, ParallelEvalBitIdenticalUnderFaultTraces) {
  // Crashes change the alive-machine set and budget shocks the epoch
  // budget; pooled evaluation must still match the serial run bit for bit
  // through both, and through a fallback epoch.
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 12.0;
  options.horizonSeconds = 5.0;
  options.epochSeconds = 0.5;
  options.relDeadlineLo = 0.5;
  options.relDeadlineHi = 2.5;
  options.energyBudgetPerEpoch = 40.0;
  options.seed = 43;
  options.carryBacklog = true;
  options.faults.enabled = true;
  options.faults.seed = 99;
  options.faults.mtbfSeconds = 2.0;
  options.faults.mttrSeconds = 1.0;
  options.faults.budgetShockProbability = 0.5;
  options.faults.budgetShockFactor = 0.3;
  options.faults.maxRetries = 2;
  options.faults.injectPolicyFailureEpochs = {3};
  const auto parallel = sim::runServing(
      machines,
      testing::servingVariant("approx", testing::ServingVariant::kParallelEval),
      options);
  const auto serial = sim::runServing(machines, "approx", options);
  expectBitIdentical(parallel, serial);
  EXPECT_GT(serial.interruptions + serial.budgetShockEpochs, 0);
  EXPECT_GT(serial.fallbacks, 0);
}

TEST(BacklogServing, ProfileCacheFieldsStayZero) {
  // Solves share no profile evaluations across epochs, so the kept
  // profile-cache fields read 0 for every policy.
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions options;
  options.horizonSeconds = 2.0;
  options.seed = 47;
  options.carryBacklog = true;
  for (const char* policy : {"approx", "edf3"}) {
    SCOPED_TRACE(policy);
    const auto stats = sim::runServing(machines, policy, options);
    EXPECT_GT(stats.epochs, 0);
    EXPECT_EQ(stats.profileCacheHits, 0);
    EXPECT_EQ(stats.profileCacheMisses, 0);
    EXPECT_EQ(stats.profileCacheInvalidations, 0);
    EXPECT_EQ(stats.profileCacheShards, 0);
  }
}

TEST(BacklogServing, WorksWithRenewableSupply) {
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 10.0;
  options.horizonSeconds = 4.0;
  options.epochSeconds = 0.5;
  options.relDeadlineLo = 1.5;
  options.relDeadlineHi = 3.0;
  options.carryBacklog = true;
  options.seed = 37;
  const sim::PowerTrace supply({0.0, 2.0}, {0.0, 120.0});
  const auto stats =
      sim::runServing(machines, "approx", options, supply);
  // Requests arriving in the dark can still be served after power returns.
  EXPECT_GT(stats.served, 0);
  EXPECT_LE(stats.totalEnergy, supply.energyBetween(0.0, 4.0) + 1e-6);
}

}  // namespace
}  // namespace dsct
