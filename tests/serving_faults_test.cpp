// Fault-tolerant serving: regression-pinned default path, deterministic
// fault replay, crash/shock recovery, fallback chain, admission control.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "sim/faults.h"
#include "sim/renewable.h"
#include "sim/serving.h"
#include "util/check.h"
#include "workload/gpu_catalog.h"

namespace dsct {
namespace {

sim::ServingOptions referenceOptions() {
  sim::ServingOptions o;
  o.arrivalRatePerSecond = 18.0;
  o.horizonSeconds = 5.0;
  o.epochSeconds = 0.5;
  o.relDeadlineLo = 0.4;
  o.relDeadlineHi = 2.5;
  o.energyBudgetPerEpoch = 40.0;
  o.seed = 20240807;
  return o;
}

void expectStatsEqual(const sim::ServingStats& a, const sim::ServingStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_DOUBLE_EQ(a.meanAccuracy, b.meanAccuracy);
  EXPECT_DOUBLE_EQ(a.totalEnergy, b.totalEnergy);
  EXPECT_DOUBLE_EQ(a.meanLatency, b.meanLatency);
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

// The pinned values below were captured from the pre-fault driver (commit
// f247675) with the exact options of referenceOptions(); they guard the
// acceptance criterion that the faults-disabled path stays bit-identical.

TEST(ServingGolden, DefaultPathOneShotBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto s =
      sim::runServing(machines, "approx", referenceOptions());
  EXPECT_EQ(s.requests, 99);
  EXPECT_EQ(s.served, 77);
  EXPECT_EQ(s.deadlineMisses, 0);
  EXPECT_EQ(s.epochs, 10);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.32768861033259078);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 399.99999999999994);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.33759255283732392);
  EXPECT_EQ(s.interruptions, 0);
  EXPECT_EQ(s.fallbacks, 0);
  EXPECT_TRUE(s.incidents.empty());
}

TEST(ServingGolden, DefaultPathBacklogBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.carryBacklog = true;
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_EQ(s.requests, 99);
  EXPECT_EQ(s.served, 75);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.33395318251464207);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 399.99999999999994);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.43272136877206679);
}

TEST(ServingGolden, DefaultPathEdfLevelsBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto s =
      sim::runServing(machines, "edf3", referenceOptions());
  EXPECT_EQ(s.served, 31);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.15260606060606044);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 387.78426112463819);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.30709088392940115);
}

TEST(ServingGolden, DefaultPathRenewableBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto options = referenceOptions();
  const sim::PowerTrace supply({0.0, 2.0}, {30.0, 140.0});
  const auto s =
      sim::runServing(machines, "approx", options, supply);
  EXPECT_EQ(s.served, 75);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.34670914302531713);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 479.99999999999994);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.36691141180828091);
}

TEST(ServingGolden, AvailabilityDefaultsPreserveGoldenPin) {
  // availability.enabled defaults to false; even with every other
  // availability knob set, the disabled layer must not perturb the pinned
  // default path by a single bit (no RNG draws, no machine filtering).
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.availability.seed = 777;
  options.availability.departMtbfSeconds = 0.5;
  options.availability.departMeanSeconds = 2.0;
  options.availability.batteryCapacityJoules = 5.0;
  options.availability.rechargeWatts = 1.0;
  ASSERT_FALSE(options.availability.enabled);
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_EQ(s.requests, 99);
  EXPECT_EQ(s.served, 77);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.32768861033259078);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 399.99999999999994);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.33759255283732392);
  EXPECT_EQ(s.machineDepartures, 0);
  EXPECT_EQ(s.batteryExhaustions, 0);
  EXPECT_EQ(s.batteryCappedEpochs, 0);
  EXPECT_TRUE(s.incidents.empty());
}

// ------------------------------------------------------------ satellites --

TEST(ServingOptionsCheck, ExplicitTraceDoesNotRequirePositiveRate) {
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions options = referenceOptions();
  options.arrivalTimes = {0.1, 0.4, 1.2, 2.7};
  options.arrivalRatePerSecond = 0.0;  // unused and must not be rejected
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_EQ(s.requests, 4);
  // Without a trace, a non-positive rate is still an error.
  options.arrivalTimes.clear();
  EXPECT_THROW(sim::runServing(machines, "approx", options),
               CheckError);
}

/// Expects `run` to throw a CheckError whose message contains `needle`.
template <typename Run>
void expectCheckErrorNaming(const Run& run, const std::string& needle) {
  try {
    run();
    ADD_FAILURE() << needle << " accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ServingOptionsCheck, RejectsInvalidEntryOptions) {
  // Each bad option fails the run up front with a message naming the field,
  // instead of being clamped into a plausible-looking run (a NaN budget used
  // to serve 0 J per epoch).
  const auto machines = machinesFromCatalog({"T4"});
  const auto expectRejected = [&](const sim::ServingOptions& options,
                                  const std::string& field) {
    expectCheckErrorNaming(
        [&] { sim::runServing(machines, "edf3", options); }, field);
  };
  for (const double horizon : {-5.0, 0.0, std::nan(""), HUGE_VAL}) {
    sim::ServingOptions options;
    options.horizonSeconds = horizon;
    expectRejected(options, "horizonSeconds");
  }
  for (const double budget : {-1.0, std::nan(""), HUGE_VAL}) {
    sim::ServingOptions options;
    options.energyBudgetPerEpoch = budget;
    expectRejected(options, "energyBudgetPerEpoch");
  }
  for (const double epoch : {-1.0, 0.0, std::nan(""), HUGE_VAL}) {
    sim::ServingOptions options;
    options.epochSeconds = epoch;
    expectRejected(options, "epochSeconds");
  }
  for (const double factor : {-1.0, std::nan("")}) {
    sim::ServingOptions options;
    options.admissionLoadFactor = factor;
    expectRejected(options, "admissionLoadFactor");
  }
  sim::ServingOptions options;
  options.shards = -3;
  expectRejected(options, "shards");
  // A PowerTrace supplies the budget, so energyBudgetPerEpoch is ignored.
  options.shards = 0;
  options.horizonSeconds = 1.0;
  options.energyBudgetPerEpoch = std::nan("");
  EXPECT_NO_THROW(sim::runServing(machines, "edf3", options,
                                  sim::PowerTrace::constant(50.0)));
}

TEST(ServingOptionsCheck, PowerTraceOverloadChecksEntryOptions) {
  // The supply overload shares the horizon and shard checks; only the fixed
  // per-epoch budget is out of its scope.
  const auto machines = machinesFromCatalog({"T4"});
  const auto supply = sim::PowerTrace::constant(50.0);
  for (const double horizon : {-5.0, 0.0, std::nan(""), HUGE_VAL}) {
    sim::ServingOptions options;
    options.horizonSeconds = horizon;
    expectCheckErrorNaming(
        [&] { sim::runServing(machines, "edf3", options, supply); },
        "horizonSeconds");
  }
  sim::ServingOptions options;
  options.shards = -3;
  expectCheckErrorNaming(
      [&] { sim::runServing(machines, "edf3", options, supply); }, "shards");
}

TEST(ServingOptionsCheck, PowerTraceRunIgnoresFixedBudget) {
  // Under a PowerTrace the fixed budget is never read: whatever it holds,
  // valid or not, the run is the one the default budget gives.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const sim::PowerTrace supply({0.0, 2.0}, {30.0, 140.0});
  const auto reference =
      sim::runServing(machines, "approx", referenceOptions(), supply);
  for (const double budget : {std::nan(""), -1.0, HUGE_VAL, 0.0}) {
    auto options = referenceOptions();
    options.energyBudgetPerEpoch = budget;
    SCOPED_TRACE(budget);
    expectStatsEqual(reference,
                     sim::runServing(machines, "approx", options, supply));
  }
}

TEST(ServingOptionsCheck, ZeroBudgetIsAccepted) {
  // 0 J is the lower end of the accepted budget range, not an error: every
  // epoch is solved with nothing to spend.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.energyBudgetPerEpoch = 0.0;
  for (const char* policy : {"approx", "edf", "edf3"}) {
    SCOPED_TRACE(policy);
    const auto s = sim::runServing(machines, policy, options);
    EXPECT_EQ(s.requests, 99);
    EXPECT_EQ(s.served, 0);
    EXPECT_EQ(s.totalEnergy, 0.0);
    EXPECT_EQ(s.policyFailures, 0);
  }
}

TEST(ServingOptionsCheck, UnknownPolicyRejectedWithKnownNames) {
  const auto machines = machinesFromCatalog({"T4"});
  const auto run = [&] {
    sim::runServing(machines, "no-such-solver", referenceOptions());
  };
  expectCheckErrorNaming(run, "no-such-solver");
  expectCheckErrorNaming(run, "approx");  // the known names are listed
}

TEST(ServingOptionsCheck, FractionalOnlyPolicyRejected) {
  // Serving executes integral schedules; a solver that only produces a
  // fractional relaxation cannot be the primary policy.
  const auto machines = machinesFromCatalog({"T4"});
  for (const char* policy : {"fr-opt", "fr-lp"}) {
    SCOPED_TRACE(policy);
    expectCheckErrorNaming(
        [&] { sim::runServing(machines, policy, referenceOptions()); },
        "integral");
  }
}

// ------------------------------------------------------- fault injection --

sim::ServingOptions faultyOptions() {
  sim::ServingOptions o = referenceOptions();
  o.carryBacklog = true;
  o.faults.enabled = true;
  o.faults.seed = 99;
  o.faults.mtbfSeconds = 2.0;
  o.faults.mttrSeconds = 1.0;
  o.faults.slowdownMtbfSeconds = 3.0;
  o.faults.slowdownMeanSeconds = 0.8;
  o.faults.slowdownFactor = 0.5;
  o.faults.budgetShockProbability = 0.5;
  o.faults.budgetShockFactor = 0.3;
  o.faults.maxRetries = 2;
  o.faults.injectPolicyFailureEpochs = {3};
  return o;
}

TEST(FaultServing, DeterministicReplayBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  const auto options = faultyOptions();
  const auto a = sim::runServing(machines, "approx", options);
  const auto b = sim::runServing(machines, "approx", options);
  expectStatsEqual(a, b);
}

TEST(FaultServing, CrashShockAndInjectedFailureRecover) {
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  const auto options = faultyOptions();
  const auto s = sim::runServing(machines, "approx", options);
  // The run completes (no throw) and every arrival is finalized once.
  EXPECT_EQ(s.requests, 99);
  // The injected epoch-3 failure engaged the kEdfLevels fallback.
  EXPECT_GE(s.policyFailures, 1);
  EXPECT_GE(s.fallbacks, 1);
  // MTBF 2 s over a 5 s horizon on 3 machines: crashes interrupt work...
  EXPECT_GT(s.interruptions, 0);
  // ...and interrupted requests re-enter later batches.
  EXPECT_GT(s.retries, 0);
  // Budget shocks hit with probability 0.5 over 10 epochs.
  EXPECT_GT(s.budgetShockEpochs, 0);
  // Every schedule passed the per-epoch validator gate.
  EXPECT_EQ(s.validatorRejections, 0);
  // The incident log names each counted event.
  EXPECT_GE(static_cast<int>(s.incidents.size()),
            s.policyFailures + s.fallbacks + s.budgetShockEpochs);
  // Delivered accuracy degrades but the service still serves.
  EXPECT_GT(s.served, 0);
  EXPECT_GT(s.meanAccuracy, 0.0);
  const auto clean =
      sim::runServing(machines, "approx", [] {
        auto o = faultyOptions();
        o.faults = sim::FaultOptions{};
        return o;
      }());
  EXPECT_LT(s.meanAccuracy, clean.meanAccuracy);
}

TEST(FaultServing, ZeroRateFaultTraceMatchesDisabled) {
  // faults.enabled with every fault process switched off must not perturb
  // the run: same arrivals, same schedules, same stats.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.carryBacklog = true;
  const auto off = sim::runServing(machines, "approx", options);
  options.faults.enabled = true;  // all rates stay zero
  const auto on = sim::runServing(machines, "approx", options);
  expectStatsEqual(off, on);
}

TEST(FaultServing, AllMachinesDownEpochsAreCounted) {
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.faults.enabled = true;
  options.faults.seed = 7;
  options.faults.mtbfSeconds = 0.7;  // one machine, crashing constantly
  options.faults.mttrSeconds = 2.0;
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_GT(s.noMachineEpochs, 0);
  EXPECT_EQ(s.requests, 99);
}

TEST(FaultServing, RetryBudgetBoundsReadmissions) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = faultyOptions();
  options.faults.injectPolicyFailureEpochs.clear();
  options.faults.budgetShockProbability = 0.0;
  options.relDeadlineLo = 3.0;  // long deadlines: retries not time-limited
  options.relDeadlineHi = 5.0;
  options.faults.maxRetries = 0;  // interrupted once → abandoned
  options.carryBacklog = false;
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_GT(s.interruptions, 0);
  EXPECT_EQ(s.retries, 0);
  EXPECT_GT(s.abandoned, 0);

  options.faults.maxRetries = 3;
  const auto relaxed = sim::runServing(machines, "approx", options);
  EXPECT_GT(relaxed.retries, 0);
}

TEST(FaultServing, InjectedFailureOnEdfLevelsFallsBackToEmptyEpoch) {
  // When the primary policy IS the fallback policy, an injected failure
  // leaves only the empty schedule: the epoch serves nothing but the run
  // still completes and counts the incident.
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.faults.enabled = true;
  options.faults.injectPolicyFailureEpochs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto s = sim::runServing(machines, "edf3", options);
  EXPECT_EQ(s.served, 0);
  EXPECT_EQ(s.policyFailures, s.epochs);
  EXPECT_EQ(s.fallbacks, s.epochs);
  bool sawEmpty = false;
  for (const auto& inc : s.incidents) {
    if (inc.kind == sim::IncidentKind::kEmptySchedule) sawEmpty = true;
  }
  EXPECT_TRUE(sawEmpty);
}

TEST(FaultServing, AdmissionControlShedsLowestHeadroom) {
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.arrivalRatePerSecond = 40.0;
  // Engage the guarded chain without faults, as a user would: a solve
  // budget under a clock that never advances, so no attempt times out.
  options.epochTimeLimitSeconds = 1.0;
  options.clock = [] { return 0.0; };
  options.admissionLoadFactor = 3.0;  // ≤ 3 requests per epoch on 1 machine
  const auto s = sim::runServing(machines, "approx", options);
  options.admissionLoadFactor = 0.0;
  const auto unshed = sim::runServing(machines, "approx", options);
  EXPECT_GT(s.shed, 0);
  // Shed requests are still finalized exactly once: same arrival stream,
  // same request count.
  EXPECT_EQ(s.requests, unshed.requests);
  bool sawShed = false;
  for (const auto& inc : s.incidents) {
    if (inc.kind == sim::IncidentKind::kAdmissionShed) {
      sawShed = true;
      EXPECT_GT(inc.value, 0.0);
    }
  }
  EXPECT_TRUE(sawShed);
}

TEST(FaultServing, ValidatedEpochsMatchUnguardedRun) {
  // The guarded chain validates every epoch's schedule but only acts on
  // infeasible ones; with a well-behaved policy and a solve budget that
  // never expires (the injected clock never advances), the guarded run must
  // reproduce the unguarded stats exactly.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  const auto plain = sim::runServing(machines, "approx", options);
  options.epochTimeLimitSeconds = 1.0;
  options.clock = [] { return 0.0; };
  const auto gated = sim::runServing(machines, "approx", options);
  expectStatsEqual(plain, gated);
}

// -------------------------------------------------------- fallback chain --

TEST(FallbackChain, AliasesServeBitIdenticalToNames) {
  // A registry alias names the same solver: serving under either spelling
  // of every paper policy must agree bit for bit, faulty or not.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const std::pair<const char*, const char*> spellings[] = {
      {"dsct-ea-approx", "approx"},
      {"edf-nocompress", "edf"},
      {"edf-levels", "edf3"},
  };
  for (const auto& [alias, name] : spellings) {
    SCOPED_TRACE(alias);
    expectStatsEqual(sim::runServing(machines, alias, referenceOptions()),
                     sim::runServing(machines, name, referenceOptions()));
    expectStatsEqual(sim::runServing(machines, alias, faultyOptions()),
                     sim::runServing(machines, name, faultyOptions()));
  }
}

TEST(FallbackChain, AliasInChainBitIdenticalToName) {
  // Fallback entries resolve through the same registry lookup as the
  // primary, so an aliased chain replays the named chain exactly.
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  auto aliased = faultyOptions();
  aliased.fallbackChain = {"edf-nocompress", "edf-levels"};
  auto named = faultyOptions();
  named.fallbackChain = {"edf", "edf3"};
  const auto a = sim::runServing(machines, "approx", aliased);
  EXPECT_GT(a.fallbacks, 0);
  expectStatsEqual(a, sim::runServing(machines, "approx", named));
}

TEST(FallbackChain, ExplicitDefaultChainBitIdenticalToDefault) {
  // Spelling out the default single-entry chain changes nothing: the
  // refactor's configurable chain reproduces the historical hardcoded
  // EDF-3-levels demotion exactly.
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  auto explicitChain = faultyOptions();
  explicitChain.fallbackChain = {"edf3"};
  expectStatsEqual(
      sim::runServing(machines, "approx", faultyOptions()),
      sim::runServing(machines, "approx", explicitChain));
}

TEST(FallbackChain, TwoEntryChainIncidentOrderPinned) {
  // Primary and first fallback are both fault-injected (injectFailureDepth
  // = 2), so each injected epoch must walk: approx fails (depth 0) → edf
  // fails (depth 1) → edf3 serves → fallback engaged. The second fallback's
  // schedules are what a single-entry {"edf3"} chain with primary-only
  // injection produces, so the served workload is bit-identical to that run
  // even though the incident log is longer.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const std::vector<long long> injected = {2, 5};

  auto deep = referenceOptions();
  deep.faults.enabled = true;
  deep.faults.injectPolicyFailureEpochs = injected;
  deep.faults.injectFailureDepth = 2;
  deep.fallbackChain = {"edf", "edf3"};
  const auto a = sim::runServing(machines, std::string("approx"), deep);

  auto shallow = referenceOptions();
  shallow.faults.enabled = true;
  shallow.faults.injectPolicyFailureEpochs = injected;
  const auto b = sim::runServing(machines, std::string("approx"), shallow);

  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served, b.served);
  EXPECT_DOUBLE_EQ(a.meanAccuracy, b.meanAccuracy);
  EXPECT_DOUBLE_EQ(a.totalEnergy, b.totalEnergy);
  EXPECT_DOUBLE_EQ(a.meanLatency, b.meanLatency);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  // ...but the deep run logged one extra failed attempt per injected epoch.
  EXPECT_EQ(b.policyFailures, static_cast<int>(injected.size()));
  EXPECT_EQ(a.policyFailures, 2 * static_cast<int>(injected.size()));

  for (long long epoch : injected) {
    std::vector<sim::EpochIncident> atEpoch;
    for (const auto& inc : a.incidents) {
      if (inc.epoch == epoch) atEpoch.push_back(inc);
    }
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    ASSERT_EQ(atEpoch.size(), 3u);
    EXPECT_EQ(atEpoch[0].kind, sim::IncidentKind::kPolicyFailure);
    EXPECT_EQ(atEpoch[0].value, 0.0);  // the primary policy
    EXPECT_EQ(atEpoch[1].kind, sim::IncidentKind::kPolicyFailure);
    EXPECT_EQ(atEpoch[1].value, 1.0);  // first fallback attempt
    EXPECT_EQ(atEpoch[2].kind, sim::IncidentKind::kFallbackEngaged);
  }
}

TEST(FallbackChain, ExhaustedChainServesEmptyEpoch) {
  // Injection depth covering the whole chain leaves only the empty
  // schedule; the epoch serves nothing but the run completes.
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.faults.enabled = true;
  options.faults.injectPolicyFailureEpochs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  options.faults.injectFailureDepth = 3;
  options.fallbackChain = {"edf", "edf3"};
  const auto s = sim::runServing(machines, std::string("approx"), options);
  EXPECT_EQ(s.served, 0);
  EXPECT_EQ(s.policyFailures, 3 * s.epochs);
  int empty = 0;
  for (const auto& inc : s.incidents) {
    if (inc.kind == sim::IncidentKind::kEmptySchedule) ++empty;
  }
  EXPECT_EQ(empty, s.epochs);
}

TEST(FallbackChain, InvalidChainEntriesFailLoudly) {
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.faults.enabled = true;
  options.fallbackChain = {"no-such-solver"};
  EXPECT_THROW(sim::runServing(machines, "approx", options),
               CheckError);
  // Fractional-only solvers cannot serve epochs.
  options.fallbackChain = {"fr-opt"};
  EXPECT_THROW(sim::runServing(machines, "approx", options),
               CheckError);
  options.fallbackChain = {"edf3"};
  EXPECT_THROW(
      sim::runServing(machines, std::string("fr-opt"), options),
      CheckError);
}

TEST(FallbackChain, RegistryPolicyBeyondLegacyEnumServes) {
  // The registry unlocks serving policies with no Policy enum value.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto s = sim::runServing(machines, std::string("levels-opt"),
                                 referenceOptions());
  EXPECT_EQ(s.requests, 99);
  EXPECT_GT(s.served, 0);
  EXPECT_GT(s.meanAccuracy, 0.0);
}

TEST(FaultServing, WorksWithRenewableSupply) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = faultyOptions();
  const sim::PowerTrace supply({0.0, 2.0}, {40.0, 160.0});
  const auto a = sim::runServing(machines, "approx", options, supply);
  const auto b = sim::runServing(machines, "approx", options, supply);
  EXPECT_EQ(a.requests, 99);
  expectStatsEqual(a, b);
}

}  // namespace
}  // namespace dsct
