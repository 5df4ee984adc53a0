// Parallel replication runner for the evaluation harness.
//
// Replications are independent (seeded via deriveSeed(master, rep)), so they
// map cleanly onto the thread pool; results are reduced into RunningStats.
// Determinism: the set of per-replication results is a pure function of the
// master seed, so aggregate statistics do not depend on thread interleaving.
#pragma once

#include <cstdint>
#include <functional>

#include "core/solver_api.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dsct {

class ExperimentRunner {
 public:
  /// threads = 0 uses hardware concurrency.
  explicit ExperimentRunner(std::size_t threads = 0) : pool_(threads) {}

  ThreadPool& pool() { return pool_; }

  /// Shared solve context for every experiment of the run. Deliberately no
  /// thread pool: replications already run in parallel, and the timing
  /// figures (Fig. 4, Table 1) must measure each solve serially.
  SolveContext& context() { return context_; }

  /// Run `reps` replications of fn(replicationIndex) and aggregate.
  RunningStats replicate(int reps, const std::function<double(int)>& fn);

  /// Multi-metric version: fn returns one value per metric; stats are
  /// aggregated per metric.
  std::vector<RunningStats> replicateMulti(
      int reps, int metrics,
      const std::function<std::vector<double>(int)>& fn);

 private:
  ThreadPool pool_;
  SolveContext context_;
};

}  // namespace dsct
