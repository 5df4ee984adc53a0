// Fig. 8 (extension): serving accuracy on an availability-limited fleet.
// Sweeps the machine departure rate against battery capacity and recharge
// rate on a small heterogeneous cluster — the volunteer/edge-fleet scenario
// the paper never touched — and reports delivered accuracy plus the
// availability counters (departures, battery exhaustions, budget-capped
// epochs) for the approximation policy and the availability-aware
// EDF-3-levels baseline. This figure is not in the paper: it characterises
// the availability layer (DESIGN.md §15) added on top of the serving loop.
//
// CSV schema is shared with fig7/ablation_robustness so the sweeps compose:
//   sweep,param,variant,accuracy,deadline_misses,energy_joules,
//   retries,fallbacks,shed
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "experiments/runner.h"
#include "sim/serving.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/gpu_catalog.h"

int main() {
  using namespace dsct;
  bench::printHeader(
      "Fig. 8 — availability: accuracy vs departures and batteries",
      "availability extension (not in the paper)");

  const int reps = bench::fullScale() ? 20 : 5;
  // Departure MTBF 0 disables departures — the always-present reference
  // point. Battery capacity 0 disables the battery model likewise.
  const std::vector<double> departMtbfs{0.0, 4.0, 1.5};
  struct BatteryPoint {
    double capacityJoules;
    double rechargeWatts;
  };
  const std::vector<BatteryPoint> batteries{
      {0.0, 0.0},    // mains-powered fleet
      {30.0, 25.0},  // roomy store, fast charger
      {30.0, 0.0},   // roomy store, no recharge — drains over the run
      {12.0, 25.0},  // tight store, fast charger
      {12.0, 0.0},   // tight store, no recharge
  };

  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  ExperimentRunner runner;
  long long solveTimeouts = 0;
  Table table({"depart mtbf s", "battery J", "recharge W", "accuracy",
               "misses", "departures", "exhausted", "capped"});
  CsvWriter csv("fig8_availability.csv",
                {"sweep", "param", "variant", "accuracy", "deadline_misses",
                 "energy_joules", "retries", "fallbacks", "shed"});

  for (double departMtbf : departMtbfs) {
    for (const BatteryPoint& battery : batteries) {
      // Registry names: the primary policy under test and the
      // availability-aware fallback.
      for (const std::string policy : {"approx", "edf3"}) {
        // Metrics: accuracy, misses, energy, retries, fallbacks, shed,
        // departures, exhaustions, budget-capped epochs.
        const auto stats = runner.replicateMulti(reps, 9, [&](int rep) {
          sim::ServingOptions o;
          o.arrivalRatePerSecond = 18.0;
          o.horizonSeconds = 5.0;
          o.epochSeconds = 0.5;
          o.relDeadlineLo = 0.4;
          o.relDeadlineHi = 2.5;
          o.energyBudgetPerEpoch = 40.0;
          o.carryBacklog = true;
          o.seed = deriveSeed(80801, rep);
          o.availability.enabled = true;
          o.availability.seed = deriveSeed(80802, rep);
          o.availability.departMtbfSeconds = departMtbf;
          o.availability.departMeanSeconds = 1.5;
          o.availability.batteryCapacityJoules = battery.capacityJoules;
          o.availability.rechargeWatts = battery.rechargeWatts;
          // Same guard as fig7: a generous per-epoch solve budget exercises
          // the cancellation plumbing at bench scale without perturbing the
          // sweep.
          o.epochTimeLimitSeconds = 0.25;
          const sim::ServingStats s = sim::runServing(machines, policy, o);
          solveTimeouts += s.policyTimeouts;
          return std::vector<double>{
              s.meanAccuracy,
              static_cast<double>(s.deadlineMisses),
              s.totalEnergy,
              static_cast<double>(s.retries),
              static_cast<double>(s.fallbacks),
              static_cast<double>(s.shed),
              static_cast<double>(s.machineDepartures),
              static_cast<double>(s.batteryExhaustions),
              static_cast<double>(s.batteryCappedEpochs)};
        });
        if (policy == "approx") {
          table.addRow(std::vector<double>{
              departMtbf, battery.capacityJoules, battery.rechargeWatts,
              stats[0].mean(), stats[1].mean(), stats[6].mean(),
              stats[7].mean(), stats[8].mean()});
        }
        const std::string variant =
            SolverRegistry::instance().resolve(policy).displayName() +
            "/cap=" + std::to_string(battery.capacityJoules) +
            "+rw=" + std::to_string(battery.rechargeWatts);
        csv.addRow(std::vector<std::string>{
            "depart-mtbf", std::to_string(departMtbf), variant,
            std::to_string(stats[0].mean()), std::to_string(stats[1].mean()),
            std::to_string(stats[2].mean()), std::to_string(stats[3].mean()),
            std::to_string(stats[4].mean()), std::to_string(stats[5].mean())});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nsolve timeouts over the whole sweep: " << solveTimeouts
            << " (per-epoch budget 0.25 s)\n";
  std::cout << "\ntakeaway: departures shrink the fleet for whole epochs and "
               "batteries couple execution into later budgets — accuracy "
               "degrades gracefully because exhausted machines spill their "
               "residual through the retry/backlog path, and the "
               "availability-aware EDF-3 baseline avoids most exhaustion "
               "cuts by respecting per-machine charge up front.\n";
  return 0;
}
