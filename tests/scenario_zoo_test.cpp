// Smoke loop over the shipped scenario zoo (scenarios/*.dsct): every file
// must parse, materialise, and — horizon-clamped so the battery stays fast —
// serve end-to-end under its own policy. The million-task stress file is
// additionally pinned to materialise its full ~1M-request trace, and the
// serving benchmark's approx configurations are pinned bit for bit at the
// files' own seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "sim/serving.h"
#include "workload/scenario.h"

namespace dsct {
namespace {

std::vector<std::filesystem::path> zooFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DSCT_SCENARIO_DIR)) {
    if (entry.path().extension() == ".dsct") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ScenarioZoo, ShipsTheSixNamedWorkloads) {
  std::vector<std::string> names;
  for (const auto& path : zooFiles()) names.push_back(path.stem().string());
  const std::vector<std::string> expected{"diurnal",       "flash_crowd",
                                          "million_tasks", "mixed_sla",
                                          "steady_web",    "volunteer_fleet"};
  EXPECT_EQ(names, expected);
}

TEST(ScenarioZoo, EveryFileParsesAndMaterialises) {
  for (const auto& path : zooFiles()) {
    SCOPED_TRACE(path.string());
    const Scenario sc = loadScenarioFile(path.string());
    EXPECT_FALSE(sc.name.empty());
    EXPECT_FALSE(materializeMachines(sc).empty());
    EXPECT_FALSE(materializeRequests(sc).empty());
    const Instance inst = materializeInstance(sc);
    EXPECT_GT(inst.numTasks(), 0);
    EXPECT_GT(inst.energyBudget(), 0.0);
  }
}

TEST(ScenarioZoo, EveryFileServesEndToEnd) {
  for (const auto& path : zooFiles()) {
    SCOPED_TRACE(path.string());
    Scenario sc = loadScenarioFile(path.string());
    // Clamp BEFORE materialisation (exactly what serve --horizon does) so
    // the stress file serves a short prefix instead of its full 200 s.
    sc.serving.horizonSeconds = std::min(sc.serving.horizonSeconds, 2.0);
    const std::vector<Machine> machines = materializeMachines(sc);
    const sim::ServingOptions options = makeServingOptions(sc);
    const sim::ServingStats stats =
        sim::runServing(machines, sc.serving.policy, options);
    EXPECT_EQ(static_cast<std::size_t>(stats.requests),
              options.requestTrace.size());
    EXPECT_GT(stats.epochs, 0);
    EXPECT_GE(stats.missPenalty, 0.0);
  }
}

TEST(ScenarioZoo, MillionTaskStressMaterialisesFullTrace) {
  const Scenario sc = loadScenarioFile(std::string(DSCT_SCENARIO_DIR) +
                                       "/million_tasks.dsct");
  EXPECT_DOUBLE_EQ(sc.serving.horizonSeconds, 200.0);
  const std::vector<sim::RequestSpec> trace = materializeRequests(sc);
  // 5000 req/s × 200 s — a Poisson count within ±1% of one million.
  EXPECT_GT(trace.size(), 990'000u);
  EXPECT_LT(trace.size(), 1'010'000u);
  EXPECT_TRUE(std::is_sorted(
      trace.begin(), trace.end(),
      [](const sim::RequestSpec& a, const sim::RequestSpec& b) {
        return a.arrival < b.arrival;
      }));
}

TEST(ScenarioZoo, MixedSlaWeightsDivergeFromRawMisses) {
  // The mixed-SLA scenario's tiers carry non-unit penalties, so whenever a
  // run misses deadlines the weighted penalty must differ from the raw
  // count. Squeeze the budget to force misses.
  Scenario sc = loadScenarioFile(std::string(DSCT_SCENARIO_DIR) +
                                 "/mixed_sla.dsct");
  sc.serving.horizonSeconds = 4.0;
  sc.serving.energyBudgetPerEpoch = 0.05;
  const sim::ServingOptions options = makeServingOptions(sc);
  const sim::ServingStats stats = sim::runServing(
      materializeMachines(sc), sc.serving.policy, options);
  ASSERT_GT(stats.deadlineMisses, 0);
  EXPECT_NE(stats.missPenalty, static_cast<double>(stats.deadlineMisses));
}

/// Every deterministic ServingStats field, doubles as exact hex floats and
/// the incident log as its length plus an FNV-1a digest of its records. The
/// profile-cache fields are left out: they are fixed zeros, not behaviour.
std::string renderStats(const sim::ServingStats& s) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](std::uint64_t v) {
    digest ^= v;
    digest *= 0x100000001b3ULL;
  };
  for (const sim::EpochIncident& inc : s.incidents) {
    mix(static_cast<std::uint64_t>(inc.epoch));
    mix(static_cast<std::uint64_t>(inc.kind));
    mix(std::bit_cast<std::uint64_t>(inc.value));
    mix(static_cast<std::uint64_t>(inc.depth));
  }
  std::ostringstream out;
  out << std::hexfloat;
#define DSCT_RENDER(f) out << #f "=" << s.f << ' ';
  DSCT_RENDER(requests) DSCT_RENDER(served) DSCT_RENDER(deadlineMisses)
  DSCT_RENDER(missPenalty) DSCT_RENDER(meanAccuracy) DSCT_RENDER(totalEnergy)
  DSCT_RENDER(meanLatency) DSCT_RENDER(epochs) DSCT_RENDER(interruptions)
  DSCT_RENDER(retries) DSCT_RENDER(abandoned) DSCT_RENDER(shed)
  DSCT_RENDER(fallbacks) DSCT_RENDER(policyFailures)
  DSCT_RENDER(policyTimeouts) DSCT_RENDER(asyncEpochs)
  DSCT_RENDER(validatorRejections) DSCT_RENDER(budgetShockEpochs)
  DSCT_RENDER(noMachineEpochs) DSCT_RENDER(machineDepartures)
  DSCT_RENDER(batteryExhaustions) DSCT_RENDER(batteryCappedEpochs)
  DSCT_RENDER(shardedEpochs) DSCT_RENDER(shardPriceIterations)
  DSCT_RENDER(shardTopUpCells) DSCT_RENDER(shardTopUpEnergy)
  DSCT_RENDER(shardPriceDivergences) DSCT_RENDER(lpPivots)
  DSCT_RENDER(lpRefactorizations) DSCT_RENDER(lpWarmStartsUsed)
  DSCT_RENDER(lpWarmStartsRepaired) DSCT_RENDER(lpWarmStartsRejected)
#undef DSCT_RENDER
  out << "incidents=" << s.incidents.size() << ':' << std::hex << digest;
  return out.str();
}

/// Serve `file` at its own seed with approx, optionally sharded and with
/// the horizon clamped to `maxEpochs` epochs before materialisation.
std::string serveZooFile(const std::string& file, int shards = 0,
                         double maxEpochs = 0.0) {
  Scenario sc = loadScenarioFile(std::string(DSCT_SCENARIO_DIR) + "/" + file);
  sc.serving.policy = "approx";
  if (shards > 0) sc.serving.shards = shards;
  if (maxEpochs > 0.0) {
    sc.serving.horizonSeconds = std::min(sc.serving.horizonSeconds,
                                         maxEpochs * sc.serving.epochSeconds);
  }
  const sim::ServingStats stats = sim::runServing(
      materializeMachines(sc), sc.serving.policy, makeServingOptions(sc));
  return renderStats(stats);
}

// Golden serving runs of the approx configurations the serving benchmark
// drives (its zoo-small files and its sharded million-task firehose). Any
// change to a scheduling decision, a counter or a floating-point result
// shows up here as a field-level diff.

TEST(ZooServingGolden, SteadyWeb) {
  EXPECT_EQ(serveZooFile("steady_web.dsct"),
            "requests=188 served=166 deadlineMisses=19 missPenalty=0x1.3p+4 "
            "meanAccuracy=0x1.da2fd1cf71641p-2 totalEnergy=0x1.2cp+10 "
            "meanLatency=0x1.5cede020ff2d8p-2 epochs=20 interruptions=0 "
            "retries=0 abandoned=0 shed=0 fallbacks=0 policyFailures=0 "
            "policyTimeouts=0 asyncEpochs=0 validatorRejections=0 "
            "budgetShockEpochs=0 noMachineEpochs=0 machineDepartures=0 "
            "batteryExhaustions=0 batteryCappedEpochs=0 shardedEpochs=0 "
            "shardPriceIterations=0 shardTopUpCells=0 "
            "shardTopUpEnergy=0x0p+0 shardPriceDivergences=0 lpPivots=0 "
            "lpRefactorizations=0 lpWarmStartsUsed=0 lpWarmStartsRepaired=0 "
            "lpWarmStartsRejected=0 incidents=0:cbf29ce484222325");
}

TEST(ZooServingGolden, Diurnal) {
  EXPECT_EQ(serveZooFile("diurnal.dsct"),
            "requests=183 served=148 deadlineMisses=34 missPenalty=0x1.1p+5 "
            "meanAccuracy=0x1.b4dc31868ac32p-2 "
            "totalEnergy=0x1.1f80000000003p+10 "
            "meanLatency=0x1.01829e4a99d5ep-1 epochs=23 interruptions=0 "
            "retries=0 abandoned=0 shed=0 fallbacks=0 policyFailures=0 "
            "policyTimeouts=0 asyncEpochs=0 validatorRejections=0 "
            "budgetShockEpochs=0 noMachineEpochs=0 machineDepartures=0 "
            "batteryExhaustions=0 batteryCappedEpochs=0 shardedEpochs=0 "
            "shardPriceIterations=0 shardTopUpCells=0 "
            "shardTopUpEnergy=0x0p+0 shardPriceDivergences=0 lpPivots=0 "
            "lpRefactorizations=0 lpWarmStartsUsed=0 lpWarmStartsRepaired=0 "
            "lpWarmStartsRejected=0 incidents=0:cbf29ce484222325");
}

TEST(ZooServingGolden, FlashCrowd) {
  EXPECT_EQ(serveZooFile("flash_crowd.dsct"),
            "requests=162 served=138 deadlineMisses=22 missPenalty=0x1.6p+4 "
            "meanAccuracy=0x1.8801e00516111p-2 totalEnergy=0x1.c2p+9 "
            "meanLatency=0x1.bac180778b13ep-2 epochs=20 interruptions=0 "
            "retries=0 abandoned=0 shed=0 fallbacks=0 policyFailures=0 "
            "policyTimeouts=0 asyncEpochs=0 validatorRejections=0 "
            "budgetShockEpochs=0 noMachineEpochs=0 machineDepartures=0 "
            "batteryExhaustions=0 batteryCappedEpochs=0 shardedEpochs=0 "
            "shardPriceIterations=0 shardTopUpCells=0 "
            "shardTopUpEnergy=0x0p+0 shardPriceDivergences=0 lpPivots=0 "
            "lpRefactorizations=0 lpWarmStartsUsed=0 lpWarmStartsRepaired=0 "
            "lpWarmStartsRejected=0 incidents=0:cbf29ce484222325");
}

TEST(ZooServingGolden, MixedSla) {
  EXPECT_EQ(serveZooFile("mixed_sla.dsct"),
            "requests=118 served=107 deadlineMisses=9 missPenalty=0x1.98p+4 "
            "meanAccuracy=0x1.ef36e48a062ddp-2 "
            "totalEnergy=0x1.1300000000001p+10 "
            "meanLatency=0x1.13b2fa39812ddp-1 epochs=20 interruptions=0 "
            "retries=0 abandoned=0 shed=0 fallbacks=0 policyFailures=0 "
            "policyTimeouts=0 asyncEpochs=0 validatorRejections=0 "
            "budgetShockEpochs=0 noMachineEpochs=0 machineDepartures=0 "
            "batteryExhaustions=0 batteryCappedEpochs=0 shardedEpochs=0 "
            "shardPriceIterations=0 shardTopUpCells=0 "
            "shardTopUpEnergy=0x0p+0 shardPriceDivergences=0 lpPivots=0 "
            "lpRefactorizations=0 lpWarmStartsUsed=0 lpWarmStartsRepaired=0 "
            "lpWarmStartsRejected=0 incidents=0:cbf29ce484222325");
}

TEST(ZooServingGolden, VolunteerFleet) {
  EXPECT_EQ(serveZooFile("volunteer_fleet.dsct"),
            "requests=177 served=122 deadlineMisses=48 missPenalty=0x1.8p+5 "
            "meanAccuracy=0x1.116a5c6719b2bp-2 totalEnergy=0x1.d6p+9 "
            "meanLatency=0x1.861bd952337bp-1 epochs=24 interruptions=0 "
            "retries=0 abandoned=0 shed=0 fallbacks=0 policyFailures=0 "
            "policyTimeouts=0 asyncEpochs=0 validatorRejections=0 "
            "budgetShockEpochs=0 noMachineEpochs=0 machineDepartures=26 "
            "batteryExhaustions=0 batteryCappedEpochs=0 shardedEpochs=0 "
            "shardPriceIterations=0 shardTopUpCells=0 "
            "shardTopUpEnergy=0x0p+0 shardPriceDivergences=0 lpPivots=0 "
            "lpRefactorizations=0 lpWarmStartsUsed=0 lpWarmStartsRepaired=0 "
            "lpWarmStartsRejected=0 incidents=15:ba929544c43ba6ab");
}

TEST(ZooServingGolden, MillionTasksEightShards) {
  EXPECT_EQ(serveZooFile("million_tasks.dsct", 8, 3.0),
            "requests=14977 served=461 deadlineMisses=8318 "
            "missPenalty=0x1.03fp+13 meanAccuracy=0x1.7007f48b49d8fp-6 "
            "totalEnergy=0x1.c84a482dc0e36p+13 "
            "meanLatency=0x1.4bb021e3a1349p+0 epochs=3 interruptions=0 "
            "retries=0 abandoned=0 shed=14401 fallbacks=0 policyFailures=0 "
            "policyTimeouts=0 asyncEpochs=0 validatorRejections=0 "
            "budgetShockEpochs=0 noMachineEpochs=0 machineDepartures=0 "
            "batteryExhaustions=0 batteryCappedEpochs=0 shardedEpochs=3 "
            "shardPriceIterations=30 shardTopUpCells=9 "
            "shardTopUpEnergy=0x1.4cbb5e42a6358p+9 shardPriceDivergences=0 "
            "lpPivots=0 lpRefactorizations=0 lpWarmStartsUsed=0 "
            "lpWarmStartsRepaired=0 lpWarmStartsRejected=0 "
            "incidents=3:98ebf1b54ccf2867");
}

}  // namespace
}  // namespace dsct
