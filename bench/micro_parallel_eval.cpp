// Microbench: pooled evaluateBatch vs serial.
//
// Times ProfileEvaluator::evaluateBatch over a batch of random energy
// profiles serially and on a pool of hardware_concurrency() threads,
// asserts the two answer vectors are bitwise identical, and reports the
// speedup. On a single-core host the bench degrades gracefully: it reports
// "1 core" and skips the speedup claim rather than printing a meaningless
// ratio.
//
// CSV: micro_parallel_eval.csv
//   profiles,n,m,cores,serial_seconds,pooled_seconds,speedup_pooled,identical
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "sched/profile_evaluator.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace {

using namespace dsct;

/// One timed evaluateBatch run through a fresh evaluator, so every mode
/// starts cold and no mode inherits another's memo.
double timedBatch(const Instance& inst,
                  const std::vector<EnergyProfile>& profiles, ThreadPool* pool,
                  std::vector<double>* out) {
  ProfileEvaluator evaluator(inst);
  Stopwatch watch;
  *out = evaluator.evaluateBatch(profiles, pool);
  return watch.elapsedSeconds();
}

}  // namespace

int main() {
  using namespace dsct;
  bench::printHeader("micro — pooled evaluateBatch vs serial",
                     "engine measurement (not in the paper)");

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned cores = hw == 0 ? 1 : hw;
  if (cores <= 1) {
    // Graceful degradation: with one core the parallel path cannot win and
    // the ratio would only measure scheduling noise.
    std::cout << "1 core available — parallel speedup not measurable on this "
                 "host; the modes stay bit-identical regardless (see "
                 "tests/sched_concurrent_cache_test.cpp).\n";
  } else {
    std::cout << "worker threads: " << cores << " (hardware_concurrency)\n\n";
  }

  const int numProfiles = bench::fullScale() ? 2048 : 512;
  struct Size {
    int tasks;
    int machines;
  };
  const std::vector<Size> sizes = bench::fullScale()
                                      ? std::vector<Size>{{200, 4}, {400, 6}}
                                      : std::vector<Size>{{120, 4}, {240, 6}};

  Table table(
      {"n", "m", "profiles", "serial s", "pooled s", "speedup(pool)"});
  CsvWriter csv("micro_parallel_eval.csv",
                {"profiles", "n", "m", "cores", "serial_seconds",
                 "pooled_seconds", "speedup_pooled", "identical"});

  ThreadPool pool(0);  // 0 = hardware concurrency
  for (const Size& size : sizes) {
    ScenarioSpec spec;
    spec.numTasks = size.tasks;
    spec.numMachines = size.machines;
    const Instance inst = makeScenario(spec, 0.1, 2.0, 90901);

    // Random per-machine load caps in a range wide enough that most
    // evaluations do real work; one duplicate every eighth profile gives
    // the memo a realistic hit mix.
    Rng rng(90902);
    std::vector<EnergyProfile> profiles;
    profiles.reserve(static_cast<std::size_t>(numProfiles));
    for (int i = 0; i < numProfiles; ++i) {
      if (i >= 8 && i % 8 == 0) {
        profiles.push_back(profiles[static_cast<std::size_t>(i - 8)]);
      } else {
        EnergyProfile p;
        p.reserve(static_cast<std::size_t>(size.machines));
        for (int r = 0; r < size.machines; ++r) {
          p.push_back(rng.uniform(0.0, 50.0));
        }
        profiles.push_back(std::move(p));
      }
    }

    std::vector<double> serialOut, pooledOut;
    const double serialSec = timedBatch(inst, profiles, nullptr, &serialOut);
    const double pooledSec = timedBatch(inst, profiles, &pool, &pooledOut);

    // The pooled claim is only worth a number if it is the same number:
    // both modes must agree bit for bit.
    const bool identical = serialOut == pooledOut;
    if (!identical) {
      std::cerr << "FAIL: modes disagree — pooled evaluateBatch is not "
                   "bit-identical to serial on this host\n";
      return 1;
    }

    const double speedupPooled = pooledSec > 0.0 ? serialSec / pooledSec : 0.0;
    table.addRow(std::vector<double>{
        static_cast<double>(size.tasks), static_cast<double>(size.machines),
        static_cast<double>(numProfiles), serialSec, pooledSec,
        speedupPooled});
    csv.addRow(std::vector<double>{
        static_cast<double>(numProfiles), static_cast<double>(size.tasks),
        static_cast<double>(size.machines), static_cast<double>(cores),
        serialSec, pooledSec, speedupPooled, identical ? 1.0 : 0.0});
  }
  table.print(std::cout);
  if (cores > 1) {
    std::cout << "\ntakeaway: the pooled path computes the same bits as "
                 "serial; the speedup column above is the measured "
                 "multi-core gain on "
              << cores << " threads.\n";
  }
  return 0;
}
