// Serving benchmark program.
//
// Replays seeded scenario-zoo request traces through sim::runServing and
// reports end-to-end metrics (--trace 0) or a layer-by-layer breakdown
// (--trace 1). Every layer is measured from outside the program: setup by
// timing loadScenarioFile / materializeMachines / makeServingOptions, the
// serving loop by timing runServing, and each epoch solve through the
// timing probe (probe.h). The simulated clock advances one epoch at a time
// whatever the wall time, so the real-time factor (solve latency ÷ epoch
// length) is what says whether the scheduler would fall behind.
//
// Every run also checks the program's outputs:
//   - each pass dispatched through the probe gives ServingStats whose
//     deterministic fields are bit-identical to a pass dispatched by the
//     plain registry name (the probe is invisible);
//   - passes of one seed repeat the deterministic work counters and serving
//     stats exactly; their digest is printed, so that runs of one seed in
//     separate processes can be compared too;
//   - every epoch solve stays within its energy budget, approx solves keep
//     SOL >= UB - G, and the run's energy stays within Σ epoch budgets;
//   - traced runs also validate every epoch schedule.
// A failure prints the reason on stderr and exits 1.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE]
// Scenario files are read from scenarios/ under the working directory.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "probe.h"
#include "sim/serving.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/scenario.h"

namespace {

using dsct::sim::ServingOptions;
using dsct::sim::ServingStats;
using perfbench::SolveCall;
using perfbench::nowSeconds;

constexpr const char* kFirehoseFile = "scenarios/million_tasks.dsct";
constexpr const char* kZooFiles[] = {
    "scenarios/steady_web.dsct", "scenarios/diurnal.dsct",
    "scenarios/flash_crowd.dsct", "scenarios/mixed_sla.dsct",
    "scenarios/volunteer_fleet.dsct"};
/// Seeds per zoo-small pass, each serving all five zoo files.
constexpr int kZooSeeds = 32;
/// fleet-approx serves the million-task fleet unsharded for this many
/// epochs; each one is a 32-machine fr-opt solve of 0.1 s to 14 s.
constexpr double kFleetEpochs = 3.0;
constexpr int kFirehoseShards = 8;
/// Set-up is repeated after every untraced pass, and at least kMinSetups
/// times in a run.
constexpr std::size_t kMinSetups = 5;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload firehose-edf3|firehose-sharded|"
               "fleet-approx|zoo-small --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n";
  std::exit(2);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
        haveSeed = used == value.size();
        if (!haveSeed) usage("bad --seed " + value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        haveSeconds = used == value.size() && args.seconds > 0.0 &&
                      args.seconds <= 3600.0;
        if (!haveSeconds) usage("bad --seconds " + value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("bad --trace " + value);
        args.trace = value == "1";
        haveTrace = true;
      } else if (flag == "--spans") {
        args.spans = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty() || !haveSeed || !haveSeconds || !haveTrace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

/// One runServing call of a pass.
struct ServeSpec {
  std::string file;
  std::uint64_t seed = 0;  ///< overrides Scenario::seed
  std::string policy;      ///< empty keeps the file's policy
  int shards = 0;
  double horizon = 0.0;  ///< > 0 clamps the file's horizon
};

std::vector<ServeSpec> workloadSpecs(const std::string& name,
                                     std::uint64_t seed) {
  if (name == "firehose-edf3") return {{kFirehoseFile, seed, "", 0, 0.0}};
  if (name == "firehose-sharded") {
    return {{kFirehoseFile, seed, "approx", kFirehoseShards, 0.0}};
  }
  if (name == "fleet-approx") {
    return {{kFirehoseFile, seed, "approx", 0, kFleetEpochs}};
  }
  if (name == "zoo-small") {
    std::vector<ServeSpec> specs;
    for (int s = 0; s < kZooSeeds; ++s) {
      const std::uint64_t derived =
          dsct::deriveSeed(seed, static_cast<std::uint64_t>(s));
      for (const char* file : kZooFiles) {
        specs.push_back({file, derived, "", 0, 0.0});
      }
    }
    return specs;
  }
  usage("unknown workload '" + name + "'");
}

/// Materialised inputs of one ServeSpec: all the program receives.
struct Served {
  std::vector<dsct::Machine> machines;
  ServingOptions options;
  std::string policy;  ///< plain registry name
  std::string timed;   ///< the probe's registry name
};

struct Span {
  const char* name;
  int id;
  int parent;
  long long trace;  ///< shared by the spans of one epoch; -1 otherwise
  double start;
  double end;
};

/// Spans of a traced run, kept in memory and written out when it ends.
class SpanLog {
 public:
  int add(const char* name, int parent, long long trace, double start,
          double end) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, id, parent, trace, start, end});
    return id;
  }
  long long nextTrace() { return traces_++; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << std::setprecision(17);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
          << ",\"start\":" << s.start << ",\"end\":" << s.end << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::vector<Span> spans_;
  long long traces_ = 0;
};

struct SetupResult {
  std::vector<Served> served;
  std::vector<double> specSeconds;  ///< parse + materialise, per ServeSpec
  double parseSeconds = 0.0;
  double materializeSeconds = 0.0;
};

SetupResult setUp(const std::vector<ServeSpec>& specs, SpanLog* spans) {
  SetupResult result;
  const double start = nowSeconds();
  std::vector<std::pair<double, double>> parse;
  std::vector<std::pair<double, double>> materialize;
  for (const ServeSpec& spec : specs) {
    const double t0 = nowSeconds();
    dsct::Scenario scenario = dsct::loadScenarioFile(spec.file);
    const double t1 = nowSeconds();
    scenario.seed = spec.seed;
    if (!spec.policy.empty()) scenario.serving.policy = spec.policy;
    if (spec.shards > 0) scenario.serving.shards = spec.shards;
    if (spec.horizon > 0.0) {
      scenario.serving.horizonSeconds =
          std::min(scenario.serving.horizonSeconds,
                   spec.horizon * scenario.serving.epochSeconds);
    }
    Served served;
    served.machines = dsct::materializeMachines(scenario);
    served.options = dsct::makeServingOptions(scenario);
    served.policy = scenario.serving.policy;
    const double t2 = nowSeconds();
    // Fault injection would move budgets (shocks) and demote epochs to the
    // fallback chain; none of the workloads use it, and the checks below
    // assume it is off.
    if (served.options.faults.enabled) {
      throw std::runtime_error(spec.file + ": fault injection is unsupported");
    }
    result.specSeconds.push_back(t2 - t0);
    result.parseSeconds += t1 - t0;
    result.materializeSeconds += t2 - t1;
    parse.emplace_back(t0, t1);
    materialize.emplace_back(t1, t2);
    result.served.push_back(std::move(served));
  }
  if (spans != nullptr) {
    const int root = spans->add("bench.setup", -1, -1, start, nowSeconds());
    for (std::size_t i = 0; i < parse.size(); ++i) {
      spans->add("workload.parse", root, -1, parse[i].first, parse[i].second);
      spans->add("workload.materialize", root, -1, materialize[i].first,
                 materialize[i].second);
    }
  }
  return result;
}

/// One epoch's primary solve: a single call unsharded, or the span from the
/// first cell solve to the last top-up when sharded.
struct EpochSolve {
  double start = 0.0;
  double end = 0.0;
  double coveredEnd = 0.0;  ///< end including validation
  int tasks = 0;            ///< Σ over priced cells when sharded
  int machines = 0;
  int pricedCells = 0;
  double slowestCell = 0.0;
  double cellSeconds = 0.0;  ///< Σ priced cell solve time
  double finalEnergy = 0.0;  ///< Σ energy of the cell results kept
  bool failed = false;
};

/// One runServing call of a pass.
struct RunRecord {
  ServingStats stats;
  std::vector<SolveCall> calls;
  std::vector<EpochSolve> epochs;
  double start = 0.0;
  double end = 0.0;
  double epochSeconds = 1.0;
  double epochBudget = 0.0;  ///< ServingOptions::energyBudgetPerEpoch
  bool sharded = false;
};

std::vector<EpochSolve> groupEpochs(const std::vector<SolveCall>& calls,
                                    bool sharded) {
  std::map<long long, std::vector<const SolveCall*>> byEpoch;
  for (const SolveCall& call : calls) byEpoch[call.epoch].push_back(&call);
  std::vector<EpochSolve> epochs;
  epochs.reserve(byEpoch.size());
  for (const auto& [epoch, members] : byEpoch) {
    EpochSolve e;
    e.start = members.front()->start;
    // A top-up re-solves the priced cell with the same key and replaces it
    // when at least as accurate (shard/coordinator.cpp).
    std::map<std::uint64_t, std::pair<double, double>> kept;  // acc, energy
    for (const SolveCall* call : members) {
      e.start = std::min(e.start, call->start);
      e.end = std::max(e.end, call->end);
      e.coveredEnd = std::max(e.coveredEnd, call->checkEnd);
      e.failed = e.failed || !call->failure.empty();
      const double seconds = call->end - call->start;
      if (!sharded || call->price >= 0.0) {
        e.tasks += call->tasks;
        e.machines += call->machines;
        ++e.pricedCells;
        e.slowestCell = std::max(e.slowestCell, seconds);
        e.cellSeconds += seconds;
        kept[call->cellKey] = {call->accuracy, call->energy};
      } else {
        auto it = kept.find(call->cellKey);
        if (it == kept.end()) {
          e.failed = true;  // a top-up of a cell that was never solved
        } else if (call->accuracy >= it->second.first) {
          it->second = {call->accuracy, call->energy};
        }
      }
    }
    for (const auto& [key, accEnergy] : kept) e.finalEnergy += accEnergy.second;
    epochs.push_back(e);
  }
  return epochs;
}

using Pass = std::vector<RunRecord>;

Pass servePass(const std::vector<Served>& served, bool probed, bool traced,
               perfbench::SolveProbe& probe) {
  Pass pass;
  pass.reserve(served.size());
  for (const Served& s : served) {
    RunRecord run;
    run.sharded = s.options.shards > 1;
    run.epochSeconds = s.options.epochSeconds;
    run.epochBudget = s.options.energyBudgetPerEpoch;
    probe.begin(run.sharded, traced);
    run.start = nowSeconds();
    run.stats = dsct::sim::runServing(s.machines, probed ? s.timed : s.policy,
                                      s.options);
    run.end = nowSeconds();
    run.calls = probe.end();
    run.epochs = groupEpochs(run.calls, run.sharded);
    pass.push_back(std::move(run));
  }
  return pass;
}

template <class T>
bool sameBits(const T& a, const T& b) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(static_cast<double>(a)) ==
           std::bit_cast<std::uint64_t>(static_cast<double>(b));
  } else {
    return a == b;
  }
}

/// The deterministic ServingStats fields. The cache's shard-mutex contention
/// count depends on thread timing and is left out.
#define PERFBENCH_STATS_FIELDS(X)                                            \
  X(requests) X(served) X(deadlineMisses) X(missPenalty) X(meanAccuracy)     \
  X(totalEnergy) X(meanLatency) X(epochs) X(interruptions) X(retries)        \
  X(abandoned) X(shed) X(fallbacks) X(policyFailures) X(policyTimeouts)      \
  X(asyncEpochs) X(validatorRejections) X(budgetShockEpochs)                 \
  X(noMachineEpochs) X(machineDepartures) X(batteryExhaustions)              \
  X(batteryCappedEpochs) X(shardedEpochs) X(shardPriceIterations)            \
  X(shardTopUpCells) X(shardTopUpEnergy) X(shardPriceDivergences)            \
  X(incidents) X(profileCacheHits) X(profileCacheMisses)                     \
  X(profileCacheInvalidations) X(profileCacheShards) X(lpPivots)             \
  X(lpRefactorizations) X(lpWarmStartsUsed) X(lpWarmStartsRepaired)          \
  X(lpWarmStartsRejected)

/// Names of the deterministic ServingStats fields that differ.
std::string statsDiff(const ServingStats& a, const ServingStats& b) {
  std::string diff;
#define PERFBENCH_DIFF(f) \
  if (!sameBits(a.f, b.f)) diff += " " #f;
  PERFBENCH_STATS_FIELDS(PERFBENCH_DIFF)
#undef PERFBENCH_DIFF
  return diff;
}

/// Deterministic work counters of a pass, for the exact repeat pin.
std::vector<long long> workCounters(const Pass& pass) {
  std::vector<long long> v(16, 0);
  for (const RunRecord& run : pass) {
    for (const SolveCall& call : run.calls) {
      const dsct::FrOptCounters& c = call.counters;
      v[0] += c.evaluations;
      v[1] += c.cacheHits;
      v[2] += c.scheduleSolves;
      v[3] += c.directionLpSolves;
      v[4] += c.outerRounds;
      v[5] += c.pairMoves;
      v[6] += c.directionSteps;
      v[7] += c.slackQueries;
      v[8] += c.slackHits;
      v[9] += c.slackRebuilds;
      v[10] += c.slackInvalidations;
      v[11] += c.crossHits;
      v[12] += c.crossMisses;
      v[13] += call.price >= 0.0 ? 1 : 0;
      v[14] += 1;
    }
    v[15] += static_cast<long long>(run.epochs.size());
  }
  return v;
}

/// FNV-1a digest of a pass's deterministic outputs: the ServingStats fields
/// above and the work counters. Runs of one seed print the same digest,
/// whether in one process or in several.
std::uint64_t passDigest(const Pass& pass) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const auto& value) {
    std::uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(value)>>) {
      bits = std::bit_cast<std::uint64_t>(static_cast<double>(value));
    } else if constexpr (requires { value.size(); }) {
      bits = value.size();
    } else {
      bits = static_cast<std::uint64_t>(value);
    }
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((bits >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  };
  for (const RunRecord& run : pass) {
#define PERFBENCH_MIX(f) mix(run.stats.f);
    PERFBENCH_STATS_FIELDS(PERFBENCH_MIX)
#undef PERFBENCH_MIX
  }
  for (const long long counter : workCounters(pass)) mix(counter);
  return hash;
}

struct Verdict {
  long long attempted = 0;  ///< epochs a schedule was attempted for
  long long failed = 0;
  std::vector<std::string> errors;
};

/// Check one probed pass against the plain pass and the energy bounds.
void checkPass(const Pass& pass, const Pass& plain, Verdict& verdict) {
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const RunRecord& run = pass[i];
    const ServingStats& st = run.stats;
    const std::string where = "run " + std::to_string(i) + ": ";
    const std::string diff = statsDiff(st, plain[i].stats);
    if (!diff.empty()) {
      verdict.errors.push_back(
          where + "probed pass differs from plain dispatch in" + diff);
    }
    // Unguarded serving solves every epoch that has a machine exactly once
    // through the primary.
    const long long attempted = st.epochs - st.noMachineEpochs;
    const long long solves = run.sharded ? st.shardedEpochs : attempted;
    if (static_cast<long long>(run.epochs.size()) != solves) {
      verdict.errors.push_back(
          where + "probe grouped " + std::to_string(run.epochs.size()) +
          " epoch solves, serving reports " + std::to_string(solves));
    }
    long long failed = st.fallbacks;
    for (const EpochSolve& e : run.epochs) {
      // Sharded: the kept cell results must fit the epoch's budget.
      const bool over =
          run.sharded && e.finalEnergy > run.epochBudget * (1.0 + 1e-9) + 1e-6;
      if (over) {
        verdict.errors.push_back(where + "cells spent " +
                                 std::to_string(e.finalEnergy) +
                                 " J over the epoch budget");
      }
      failed += (e.failed || over) ? 1 : 0;
    }
    double budgetSum =
        run.sharded ? run.epochBudget * static_cast<double>(run.epochs.size())
                    : 0.0;
    if (!run.sharded) {
      for (const SolveCall& call : run.calls) budgetSum += call.budget;
    }
    if (st.totalEnergy > budgetSum * (1.0 + 1e-9) + 1e-6) {
      verdict.errors.push_back(
          where + "total energy " + std::to_string(st.totalEnergy) +
          " J exceeds the epoch budgets' sum " + std::to_string(budgetSum) +
          " J");
    }
    for (const SolveCall& call : run.calls) {
      if (!call.failure.empty()) {
        verdict.errors.push_back(where + "epoch " +
                                 std::to_string(call.epoch) + ": " +
                                 call.failure);
        break;
      }
    }
    verdict.attempted += attempted;
    verdict.failed += failed;
  }
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : dsct::percentile(xs, 50.0);
}

/// The highest ladder percentile with at least ten samples beyond it; the
/// maximum when the sample is too small for any.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

Tail tailOf(const std::vector<double>& xs) {
  Tail tail;
  tail.samples = xs.size();
  if (xs.empty()) return tail;
  for (const double p : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(xs.size()) * (1.0 - p / 100.0) >= 10.0) {
      tail.value = dsct::percentile(xs, p);
      tail.percentile = p;
      return tail;
    }
  }
  tail.value = *std::max_element(xs.begin(), xs.end());
  return tail;
}

std::string tailNote(const Tail& tail) {
  std::ostringstream out;
  if (tail.percentile >= 100.0) {
    out << "max";
  } else {
    out << "p" << tail.percentile;
  }
  out << " of " << tail.samples << " samples";
  return out.str();
}

/// Total length of the union of [first, second) intervals.
double unionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = -1.0;
  for (const auto& [a, b] : intervals) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Epochs served per second of runServing wall time.
double epochsPerSecond(const Pass& pass) {
  double epochs = 0.0;
  double wall = 0.0;
  for (const RunRecord& run : pass) {
    epochs += run.stats.epochs;
    wall += run.end - run.start;
  }
  return ratio(epochs, wall);
}

/// Request outcomes of one pass (deterministic, so any pass serves).
struct Outcomes {
  double requests = 0.0;
  double accuracy = 0.0;
  double misses = 0.0;
  double shed = 0.0;
};

Outcomes outcomesOf(const Pass& pass) {
  Outcomes o;
  for (const RunRecord& run : pass) {
    const ServingStats& st = run.stats;
    o.requests += st.requests;
    o.accuracy += st.meanAccuracy * st.requests;
    o.misses += st.deadlineMisses;
    o.shed += st.shed;
  }
  return o;
}

/// Per-pass latency samples of the traced passes, summarised as the median
/// over passes of each pass's median and tail.
struct Latency {
  std::vector<double> p50;
  std::vector<double> tail;
  Tail lastTail;

  void add(const std::vector<double>& sample) {
    if (sample.empty()) return;
    lastTail = tailOf(sample);
    p50.push_back(median(sample));
    tail.push_back(lastTail.value);
  }
  std::string note() const {
    return "median of " + std::to_string(p50.size()) + " passes, each the " +
           tailNote(lastTail);
  }
};

/// Keeps, element by element, the smallest value seen. The passes of a run
/// have equal shapes unless the repeat check already failed.
void keepFastest(std::vector<double>& best, const std::vector<double>& xs) {
  if (best.empty()) best = xs;
  for (std::size_t i = 0; i < std::min(best.size(), xs.size()); ++i) {
    best[i] = std::min(best[i], xs[i]);
  }
}

/// End-to-end timings of the untraced probed passes. Load from other tenants
/// of the host slows the program by up to 1.6x for seconds to minutes at a
/// time, and a median over passes follows the share of slow passes a run
/// happens to meet. So each timing is built from the fastest repetition of
/// each of its parts: each runServing call's fastest wall time over the
/// passes for throughput, and each epoch's fastest solve for the latencies,
/// whose median and tail are then taken over the epochs.
struct EndToEnd {
  std::size_t passes = 0;
  double epochs = 0.0;              ///< per pass
  std::vector<double> bestWall;     ///< per runServing call of a pass
  std::vector<double> bestLatency;  ///< per epoch of a pass, ÷ epoch length

  void add(const Pass& pass) {
    ++passes;
    epochs = 0.0;
    std::vector<double> wall;
    std::vector<double> latency;
    for (const RunRecord& run : pass) {
      epochs += run.stats.epochs;
      wall.push_back(run.end - run.start);
      for (const EpochSolve& e : run.epochs) {
        latency.push_back((e.end - e.start) / run.epochSeconds);
      }
    }
    keepFastest(bestWall, wall);
    keepFastest(bestLatency, latency);
  }
};

std::vector<Metric> endToEndMetrics(const EndToEnd& e2e, const Outcomes& o,
                                    const std::vector<double>& bestSetup,
                                    std::size_t setups, double peakRss,
                                    const Verdict& verdict) {
  const auto sum = [](const std::vector<double>& xs) {
    return std::accumulate(xs.begin(), xs.end(), 0.0);
  };
  const std::string passes = " fastest of " + std::to_string(e2e.passes) +
                             " passes";
  const Tail tail = tailOf(e2e.bestLatency);
  std::ostringstream failedNote;
  failedNote << verdict.failed << " of " << verdict.attempted << " epochs";
  return {
      {"setup_s", sum(bestSetup), "s",
       "each scenario's fastest of " + std::to_string(setups) + " set-ups"},
      {"epochs_per_s", ratio(e2e.epochs, sum(e2e.bestWall)), "1/s",
       "each runServing call's" + passes},
      {"solve_rtf_p50", median(e2e.bestLatency), "ratio",
       "each epoch's" + passes},
      {"solve_rtf_tail", tail.value, "ratio",
       tailNote(tail) + ", each epoch's" + passes},
      {"mean_accuracy", ratio(o.accuracy, o.requests), "fraction", ""},
      {"miss_rate", ratio(o.misses, o.requests), "fraction", ""},
      {"admitted_rate", ratio(o.requests - o.shed, o.requests), "fraction",
       "1 - shed_rate; shed_rate " + std::to_string(ratio(o.shed, o.requests))},
      {"peak_rss_mb", peakRss, "MB", "after set-up and the warm-up pass"},
      {"failed_epoch_share",
       ratio(static_cast<double>(verdict.failed),
             static_cast<double>(verdict.attempted)),
       "fraction", failedNote.str()},
  };
}

/// Per-pass layer quantities of a traced pass.
struct LayerPass {
  double wall = 0.0;
  double loopSelf = 0.0;
  double solveSeconds = 0.0;
  double cellBusy = 0.0;
  double cellInFlight = 0.0;
  double outsideCells = 0.0;
  double fropt = 0.0;
  double pair = 0.0;
  double refine = 0.0;
  double expand = 0.0;
  double direction = 0.0;
  double round = 0.0;
};

LayerPass layerPass(const Pass& pass) {
  LayerPass lp;
  for (const RunRecord& run : pass) {
    const double wall = run.end - run.start;
    lp.wall += wall;
    std::vector<std::pair<double, double>> blocked;
    for (const EpochSolve& e : run.epochs) {
      blocked.emplace_back(e.start, std::max(e.end, e.coveredEnd));
      lp.solveSeconds += e.end - e.start;
    }
    lp.loopSelf += wall - unionLength(blocked);
    std::vector<std::pair<double, double>> cells;
    std::vector<std::pair<double, double>> cellsChecked;
    for (const SolveCall& call : run.calls) {
      const dsct::FrOptCounters& c = call.counters;
      lp.fropt += c.totalSeconds;
      lp.pair += c.pairSeconds;
      lp.refine += c.refineSeconds;
      lp.expand += c.expandSeconds;
      lp.direction += c.directionSeconds;
      if (c.totalSeconds > 0.0) {
        lp.round += (call.end - call.start) - c.totalSeconds;
      }
      if (run.sharded) {
        lp.cellBusy += call.end - call.start;
        cells.emplace_back(call.start, call.end);
        cellsChecked.emplace_back(call.start, call.checkEnd);
      }
    }
    if (run.sharded) {
      lp.cellInFlight += unionLength(cells);
      lp.outsideCells += wall - unionLength(cellsChecked);
    }
  }
  return lp;
}

/// Per-layer figures accumulated over the traced passes.
struct Layers {
  std::vector<LayerPass> passes;
  Latency solveMs;  ///< epoch solve latency
  Latency cellMs;   ///< priced cell solve latency
  double imbalanceSum = 0.0;
  double imbalanceEpochs = 0.0;
  std::vector<double> tracedEps;    ///< per traced pass
  std::vector<double> untracedEps;  ///< per untraced pass
  std::optional<Pass> first;  ///< counts repeat exactly; one pass serves

  void add(Pass&& pass) {
    passes.push_back(layerPass(pass));
    tracedEps.push_back(epochsPerSecond(pass));
    std::vector<double> solve;
    std::vector<double> cell;
    for (const RunRecord& run : pass) {
      for (const EpochSolve& e : run.epochs) {
        solve.push_back(1e3 * (e.end - e.start));
        if (run.sharded && e.pricedCells > 0 && e.cellSeconds > 0.0) {
          imbalanceSum += e.slowestCell / (e.cellSeconds / e.pricedCells);
          imbalanceEpochs += 1.0;
        }
      }
      if (!run.sharded) continue;
      for (const SolveCall& call : run.calls) {
        if (call.price >= 0.0) cell.push_back(1e3 * (call.end - call.start));
      }
    }
    solveMs.add(solve);
    cellMs.add(cell);
    if (!first) first = std::move(pass);
  }
};

std::vector<Metric> perLayerMetrics(const Layers& layers, double parseSeconds,
                                    double materializeSeconds,
                                    double requests) {
  const auto med = [&](double LayerPass::*field) {
    std::vector<double> xs;
    for (const LayerPass& lp : layers.passes) xs.push_back(lp.*field);
    return median(xs);
  };
  std::vector<double> loopShare;
  for (const LayerPass& lp : layers.passes) {
    loopShare.push_back(ratio(lp.loopSelf, lp.wall));
  }

  // Counts from one traced pass: they repeat exactly across passes.
  const Pass& pass = *layers.first;
  double epochs = 0.0, solves = 0.0, tasks = 0.0, machines = 0.0;
  double shed = 0.0, fallbacks = 0.0, policyFailures = 0.0;
  double departures = 0.0, batteryCapped = 0.0;
  double shardedEpochs = 0.0, priceIterations = 0.0, divergences = 0.0;
  double topUpEnergy = 0.0, cellSolves = 0.0, topUpSolves = 0.0;
  double ubSum = 0.0, gapSum = 0.0, approxSolves = 0.0;
  dsct::FrOptCounters c;
  for (const RunRecord& run : pass) {
    const ServingStats& st = run.stats;
    epochs += st.epochs;
    shed += st.shed;
    fallbacks += st.fallbacks;
    policyFailures += st.policyFailures;
    departures += st.machineDepartures;
    batteryCapped += st.batteryCappedEpochs;
    shardedEpochs += st.shardedEpochs;
    priceIterations += static_cast<double>(st.shardPriceIterations);
    divergences += st.shardPriceDivergences;
    topUpEnergy += st.shardTopUpEnergy;
    for (const EpochSolve& e : run.epochs) {
      solves += 1.0;
      tasks += e.tasks;
      machines += e.machines;
    }
    for (const SolveCall& call : run.calls) {
      if (run.sharded) {
        (call.price >= 0.0 ? cellSolves : topUpSolves) += 1.0;
      }
      if (call.hasGuarantee) {
        approxSolves += 1.0;
        ubSum += call.upperBound;
        gapSum += call.upperBound - call.accuracy;
      }
      c.evaluations += call.counters.evaluations;
      c.cacheHits += call.counters.cacheHits;
      c.scheduleSolves += call.counters.scheduleSolves;
      c.directionLpSolves += call.counters.directionLpSolves;
      c.outerRounds += call.counters.outerRounds;
      c.pairMoves += call.counters.pairMoves;
      c.directionSteps += call.counters.directionSteps;
      c.slackQueries += call.counters.slackQueries;
      c.slackHits += call.counters.slackHits;
      c.slackRebuilds += call.counters.slackRebuilds;
      c.crossHits += call.counters.crossHits;
      c.crossMisses += call.counters.crossMisses;
    }
  }
  const auto d = [](long long x) { return static_cast<double>(x); };
  const double tracedEps = median(layers.tracedEps);
  const double untracedEps = median(layers.untracedEps);
  const double frOptSeconds = med(&LayerPass::fropt);
  return {
      {"workload.parse_ms", 1e3 * parseSeconds, "ms", ""},
      {"workload.materialize_s", materializeSeconds, "s", ""},
      {"workload.requests", requests, "count", ""},
      {"sim.loop_self_s", med(&LayerPass::loopSelf), "s", ""},
      {"sim.loop_self_share", median(loopShare), "fraction", ""},
      {"sim.arrivals_per_epoch", ratio(outcomesOf(pass).requests, epochs),
       "count", ""},
      {"sim.admitted_per_epoch", ratio(tasks, solves), "count", ""},
      {"sim.shed", shed, "count", ""},
      {"sim.fallbacks", fallbacks, "count", ""},
      {"sim.policy_failures", policyFailures, "count", ""},
      {"sim.machine_departures", departures, "count", ""},
      {"sim.battery_capped_epochs", batteryCapped, "count", ""},
      {"core.solves", solves, "count", ""},
      {"core.solve_ms_p50", median(layers.solveMs.p50), "ms", ""},
      {"core.solve_ms_tail", median(layers.solveMs.tail), "ms",
       layers.solveMs.note()},
      {"core.solve_s", med(&LayerPass::solveSeconds), "s", ""},
      {"core.epoch_tasks_mean", ratio(tasks, solves), "count", ""},
      {"core.epoch_machines_mean", ratio(machines, solves), "count", ""},
      {"shard.cell_solves", cellSolves, "count", ""},
      {"shard.topup_solves", topUpSolves, "count", ""},
      {"shard.topup_share", ratio(topUpSolves, cellSolves), "fraction",
       "base: cell solves"},
      {"shard.cell_solve_ms_p50", median(layers.cellMs.p50), "ms", ""},
      {"shard.cell_solve_ms_tail", median(layers.cellMs.tail), "ms",
       layers.cellMs.note()},
      {"shard.cell_busy_s", med(&LayerPass::cellBusy), "s", ""},
      {"shard.cell_concurrency",
       ratio(med(&LayerPass::cellBusy), med(&LayerPass::cellInFlight)),
       "ratio", ""},
      {"shard.cell_imbalance",
       ratio(layers.imbalanceSum, layers.imbalanceEpochs), "ratio", ""},
      {"shard.outside_cells_s", med(&LayerPass::outsideCells), "s", ""},
      {"shard.price_iterations_per_epoch",
       ratio(priceIterations, shardedEpochs), "count", ""},
      {"shard.price_divergences", divergences, "count", ""},
      {"shard.topup_energy_J", topUpEnergy, "J", ""},
      {"sched.fropt_s", frOptSeconds, "s", ""},
      {"sched.pair_s", med(&LayerPass::pair), "s", ""},
      {"sched.refine_s", med(&LayerPass::refine), "s", ""},
      {"sched.expand_s", med(&LayerPass::expand), "s", ""},
      {"sched.direction_s", med(&LayerPass::direction), "s", ""},
      {"sched.round_s", med(&LayerPass::round), "s", ""},
      {"sched.evaluations", d(c.evaluations), "count", ""},
      {"sched.evaluations_per_solve", ratio(d(c.evaluations), approxSolves),
       "count", ""},
      {"sched.us_per_evaluation", ratio(1e6 * frOptSeconds, d(c.evaluations)),
       "us", ""},
      {"sched.eval_memo_hit_ratio",
       ratio(d(c.cacheHits), d(c.cacheHits + c.evaluations)), "fraction",
       "base: memo hits + evaluations"},
      {"sched.pair_moves", d(c.pairMoves), "count", ""},
      {"sched.outer_rounds", d(c.outerRounds), "count", ""},
      {"sched.direction_steps", d(c.directionSteps), "count", ""},
      {"sched.schedule_solves", d(c.scheduleSolves), "count", ""},
      {"sched.slack_queries", d(c.slackQueries), "count", ""},
      {"sched.slack_hit_ratio", ratio(d(c.slackHits), d(c.slackQueries)),
       "fraction", "base: slack queries"},
      {"sched.slack_rebuilds", d(c.slackRebuilds), "count", ""},
      {"sched.cross_cache_hit_ratio",
       ratio(d(c.crossHits), d(c.crossHits + c.crossMisses)), "fraction",
       "base: cross-solve lookups"},
      {"sched.optimality_gap", ratio(gapSum, ubSum), "fraction",
       "base: sum of UB"},
      {"solver.direction_lp_solves", d(c.directionLpSolves), "count", ""},
      {"trace.epochs_per_s", tracedEps, "1/s", ""},
      {"trace.untraced_epochs_per_s", untracedEps, "1/s", ""},
      {"trace.overhead_share", ratio(untracedEps, tracedEps) - 1.0, "fraction",
       "base: traced epochs/s"},
  };
}

void addSpans(const Pass& pass, SpanLog& spans) {
  const int root = spans.add("bench.pass", -1, -1, pass.front().start,
                             pass.back().end);
  for (const RunRecord& run : pass) {
    const int serve =
        spans.add("sim.runServing", root, -1, run.start, run.end);
    std::vector<int> epochSpan;
    std::vector<long long> epochTrace;
    for (const EpochSolve& e : run.epochs) {
      epochTrace.push_back(spans.nextTrace());
      epochSpan.push_back(spans.add("core.epoch_solve", serve,
                                    epochTrace.back(), e.start, e.end));
    }
    for (const SolveCall& call : run.calls) {
      const auto e = static_cast<std::size_t>(call.epoch);
      const char* name = !run.sharded          ? "core.solve"
                         : call.price >= 0.0 ? "shard.cell"
                                             : "shard.topup";
      const int id = spans.add(name, epochSpan[e], epochTrace[e], call.start,
                               call.end);
      if (call.checkEnd > call.end) {
        spans.add("bench.check", id, epochTrace[e], call.end, call.checkEnd);
      }
    }
  }
}

void printReport(const Args& args, std::size_t passes, std::size_t setups,
                 std::uint64_t digest, const std::vector<Metric>& metrics) {
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " probed_passes=" << passes
            << " setups=" << setups << "\n"
            << "  deterministic outputs digest " << std::hex << std::setw(16)
            << std::setfill('0') << digest << std::dec << std::setfill(' ')
            << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << std::left << std::setw(9) << m.unit << std::right;
    if (!m.note.empty()) std::cout << " (" << m.note << ")";
    std::cout << "\n";
  }
}

int run(const Args& args) {
  const std::vector<ServeSpec> specs = workloadSpecs(args.workload, args.seed);
  SpanLog spans;
  SpanLog* spanLog = args.trace ? &spans : nullptr;
  // The registered probe wrappers refer to this probe until the process
  // exits.
  static perfbench::SolveProbe probe;

  // The set-up is repeated between the passes, so that it meets the same
  // share of the host's slow and fast spells as the passes do. Each pass
  // serves the inputs of the set-up before it; the previous ones are freed
  // first, so that one copy is resident at a time.
  std::vector<double> bestSetup;  ///< per ServeSpec
  std::vector<double> parseTimes;
  std::vector<double> materializeTimes;
  std::vector<Served> served;
  const auto timeSetUp = [&](SpanLog* log) {
    served.clear();
    SetupResult setup = setUp(specs, log);
    keepFastest(bestSetup, setup.specSeconds);
    parseTimes.push_back(setup.parseSeconds);
    materializeTimes.push_back(setup.materializeSeconds);
    served = std::move(setup.served);
    for (Served& s : served) {
      s.timed = perfbench::registerTimedSolver(s.policy, probe);
    }
  };
  // Spans of the first set-up only: later ones repeat the same calls.
  timeSetUp(spanLog);
  double requests = 0.0;
  for (const Served& s : served) {
    requests += static_cast<double>(s.options.requestTrace.size());
  }

  // The plain pass warms up and is the reference the probed passes must
  // reproduce bit for bit. Probed passes are checked and folded into the
  // accumulators as they finish, so memory does not grow with their number.
  const Pass plain = servePass(served, false, false, probe);
  // Read before the set-ups between passes: freeing and re-allocating the
  // inputs raises the resident set without adding live data.
  const double peakRss = peakRssMb();
  Verdict verdict;
  std::optional<std::uint64_t> digest;
  EndToEnd e2e;
  Layers layers;
  std::size_t passes = 0;
  const auto account = [&](Pass&& pass, bool traced) {
    ++passes;
    checkPass(pass, plain, verdict);
    const std::uint64_t passHash = passDigest(pass);
    if (!digest) digest = passHash;
    if (passHash != *digest) {
      verdict.errors.push_back(
          "work counters or serving stats differ between passes of one seed");
    }
    if (!traced) {
      e2e.add(pass);
      layers.untracedEps.push_back(epochsPerSecond(pass));
      return;
    }
    addSpans(pass, spans);
    layers.add(std::move(pass));
  };
  const double measureStart = nowSeconds();
  do {
    account(servePass(served, true, false, probe), false);
    timeSetUp(nullptr);
    if (args.trace) account(servePass(served, true, true, probe), true);
  } while (nowSeconds() - measureStart < args.seconds);
  while (parseTimes.size() < kMinSetups) timeSetUp(nullptr);

  std::vector<Metric> metrics;
  if (args.trace) {
    if (!args.spans.empty()) spans.write(args.spans);
    metrics = perLayerMetrics(layers, median(parseTimes),
                              median(materializeTimes), requests);
  } else {
    metrics = endToEndMetrics(e2e, outcomesOf(plain), bestSetup,
                              parseTimes.size(), peakRss, verdict);
  }
  printReport(args, passes, parseTimes.size(), *digest, metrics);

  std::sort(verdict.errors.begin(), verdict.errors.end());
  verdict.errors.erase(
      std::unique(verdict.errors.begin(), verdict.errors.end()),
      verdict.errors.end());
  for (const std::string& error : verdict.errors) {
    std::cerr << "perfbench: check failed: " << error << "\n";
  }
  const bool correct = verdict.errors.empty() && verdict.failed == 0;

  dsct::Json values = dsct::Json::object();
  for (const Metric& m : metrics) {
    if (!args.trace && m.name == "failed_epoch_share") continue;
    dsct::Json value = dsct::Json::object();
    value.set("value", m.value);
    value.set("unit", m.unit);
    values.set(m.name, std::move(value));
  }
  dsct::Json result = dsct::Json::object();
  result.set("correct", correct);
  result.set("attempted", verdict.attempted);
  result.set("failed", verdict.failed);
  result.set("metrics", std::move(values));
  std::cout << result.dump(0) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
