// Declarative scenario DSL: text files describing whole serving experiments.
//
// A scenario file is a sequence of line-oriented blocks (DESIGN.md §16):
//
//   scenario {                      # optional run-wide settings
//     name: steady-web
//     seed: 42
//   }
//   machine class {                 # one or more
//     name: pool
//     gpus: T4, V100                # catalog entries, each replicated...
//     count: 2                      # ...this many times; OR a random class:
//     # speed: 4 12                 #   TFLOPS uniform range
//     # efficiency: 10 40           #   GFLOPS/W uniform range
//     # seed: 7
//   }
//   sla class {                     # optional tiers referenced by task classes
//     name: gold
//     tightness: 0.6                # multiplies relative deadlines (> 0)
//     miss penalty: 4               # ServingStats::missPenalty weight (>= 0)
//   }
//   task class {                    # one or more
//     name: web
//     arrival: poisson 18           # or: diurnal BASE PEAK PERIOD
//                                   #     mmpp LOW HIGH DWELL_LO DWELL_HI
//                                   #     flash-crowd BASE BURST START DECAY
//     theta: 0.1 4.9                # task-efficiency uniform range
//     deadline: 0.5 2.0             # relative-deadline uniform range (s)
//     sla: gold                     # optional tier reference
//     start: 0                      # arrival window within the horizon
//     end: 10
//     seed: 11                      # per-class stream; 0 = derive from master
//   }
//   serving {                       # the run configuration
//     horizon: 10                   # seconds
//     epoch: 0.5
//     budget: 40                    # J per epoch
//     policy: approx                # solver-registry name
//     fallback: edf3, edf           # optional fallback chain
//     backlog: on
//     load factor: 8                # optional admission control
//     departures: 2 1               # availability: MTBF, mean absence (s)
//     battery: 12 10 0.8            # capacity J, recharge W [, init fraction]
//     avail seed: 2025
//   }
//
// `#` starts a comment; blank lines are ignored; `{` may sit on the header
// line or alone on the next one. Every diagnostic — malformed constructs and
// invalid field values alike — is a ScenarioError naming file and line.
//
// Materialisation is a pure function of the parsed Scenario: machines expand
// per machine class (catalog entries or seeded uniform draws), each task
// class samples its arrival process and per-request deadline/θ from its own
// seeded stream over [start, end) ∩ [0, horizon), SLA tightness multiplies
// the drawn deadlines and the miss-penalty weight rides along, and the merged
// trace (stable-sorted by arrival) feeds ServingOptions::requestTrace or a
// batch Instance. Two materialisations of one scenario are bit-identical.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sched/types.h"
#include "sim/serving.h"
#include "workload/arrivals.h"

namespace dsct {

/// Parse or validation failure, always carrying the offending source line.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(const std::string& file, int line, const std::string& what)
      : std::runtime_error(file + ":" + std::to_string(line) + ": " + what),
        line_(line) {}

  int line() const { return line_; }

 private:
  int line_;
};

/// Parsed `arrival:` clause; materialised via toProcess().
struct ArrivalSpec {
  ArrivalProcess::Kind kind = ArrivalProcess::Kind::kPoisson;
  double rate = 1.0;          ///< poisson λ; diurnal/flash base; MMPP low rate
  double peakRate = 1.0;      ///< diurnal peak; MMPP high rate
  double periodSeconds = 1.0; ///< diurnal
  double dwellLowSeconds = 1.0;   ///< MMPP mean low-state dwell
  double dwellHighSeconds = 1.0;  ///< MMPP mean high-state dwell
  double burstFactor = 1.0;   ///< flash crowd peak multiple of base
  double startSeconds = 0.0;  ///< flash crowd spike time
  double decaySeconds = 1.0;  ///< flash crowd decay constant

  ArrivalProcess toProcess() const;

  friend bool operator==(const ArrivalSpec&, const ArrivalSpec&) = default;
};

/// SLA tier: per-class deadline tightness and miss-penalty weight.
struct SlaTier {
  std::string name;
  double deadlineTightness = 1.0;  ///< multiplies relative deadlines, > 0
  double missPenalty = 1.0;        ///< weight per missed deadline, >= 0
  int line = 0;                    ///< header line in the source file

  friend bool operator==(const SlaTier&, const SlaTier&) = default;
};

struct MachineClass {
  std::string name;
  int count = 1;  ///< replications (of each gpu, or random draws)
  std::vector<std::string> gpus;  ///< catalog names; empty = random class
  double speedLoTflops = 1.0;     ///< uniform range when gpus is empty
  double speedHiTflops = 20.0;
  double effLoGflopsPerWatt = 5.0;
  double effHiGflopsPerWatt = 60.0;
  std::uint64_t seed = 0;  ///< 0 = derive from the scenario master seed
  int line = 0;

  friend bool operator==(const MachineClass&, const MachineClass&) = default;
};

struct TaskClass {
  std::string name;
  ArrivalSpec arrival;
  double thetaLo = 0.1;
  double thetaHi = 4.9;
  double relDeadlineLo = 0.5;
  double relDeadlineHi = 2.0;
  std::string sla;  ///< tier name; empty = tightness 1, penalty 1
  double startSeconds = 0.0;
  double endSeconds = -1.0;  ///< < 0 = the serving horizon
  std::uint64_t seed = 0;    ///< 0 = derive from the scenario master seed
  int line = 0;

  friend bool operator==(const TaskClass&, const TaskClass&) = default;
};

/// The `serving { ... }` block: run length, budget, policy, and the
/// availability knobs (DESIGN.md §15).
struct ServingBlock {
  double horizonSeconds = 10.0;
  double epochSeconds = 1.0;
  double energyBudgetPerEpoch = 100.0;
  std::string policy = "approx";
  std::vector<std::string> fallback;  ///< empty keeps the registry default
  bool carryBacklog = false;
  double admissionLoadFactor = 0.0;
  bool availabilityEnabled = false;
  double departMtbfSeconds = 0.0;
  double departMeanSeconds = 1.0;
  double batteryCapacityJoules = 0.0;
  double batteryInitialFraction = 1.0;
  double rechargeWatts = 0.0;
  std::uint64_t availSeed = 2025;
  /// Cell count for the sharded primary (ServingOptions::shards); <= 1 keeps
  /// the unsharded path.
  int shards = 0;
  std::uint64_t shardSeed = 0;
  int line = 0;

  friend bool operator==(const ServingBlock&, const ServingBlock&) = default;
};

struct Scenario {
  std::string name;
  std::uint64_t seed = 1;
  std::vector<MachineClass> machineClasses;
  std::vector<TaskClass> taskClasses;
  std::vector<SlaTier> slaTiers;
  ServingBlock serving;
  std::string sourceFile = "<string>";  ///< for diagnostics only

  /// Tier by name; nullptr when `name` is empty or unknown.
  const SlaTier* findSla(const std::string& name) const;

  friend bool operator==(const Scenario& a, const Scenario& b) {
    return a.name == b.name && a.seed == b.seed &&
           a.machineClasses == b.machineClasses &&
           a.taskClasses == b.taskClasses && a.slaTiers == b.slaTiers &&
           a.serving == b.serving;
  }
};

/// Parse scenario text. Throws ScenarioError (file:line-prefixed) on any
/// malformed construct or invalid field value; a returned Scenario is fully
/// validated and materialisable.
Scenario parseScenario(std::string_view text,
                       const std::string& filename = "<string>");

/// Read and parse a scenario file; the file name feeds every diagnostic.
Scenario loadScenarioFile(const std::string& path);

/// Expand the machine classes: catalog entries replicated `count` times,
/// random classes drawn from their seeded uniform ranges.
std::vector<Machine> materializeMachines(const Scenario& scenario);

/// Sample every task class over its arrival window and merge the result into
/// one trace, stable-sorted by arrival time. Deterministic per scenario.
/// Throws CheckError naming horizonSeconds unless the horizon is finite and
/// > 0.
std::vector<sim::RequestSpec> materializeRequests(const Scenario& scenario);

/// ServingOptions for the scenario: serving-block settings plus the
/// materialised request trace. The caller picks the policy
/// (scenario.serving.policy) and may override any field afterwards.
sim::ServingOptions makeServingOptions(const Scenario& scenario);

/// Batch snapshot of the whole run: one task per materialised request with
/// its absolute deadline (arrival + SLA-tightened relative deadline), the
/// expanded machines, and budget = per-epoch budget × epoch count.
Instance materializeInstance(const Scenario& scenario);

}  // namespace dsct
