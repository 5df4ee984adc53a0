// Timing probe: a registry solver that forwards to a serving policy and
// records every call the serving loop makes into it.
//
// The benchmark measures each layer from outside the program, so the only
// view it has of the per-epoch solves is the Solver interface. The probe is
// registered in SolverRegistry under "timed-<policy>" with the policy's own
// capabilities and passed to sim::runServing as the policy name. Unsharded,
// the serving loop calls it once per epoch. Sharded, it becomes the inner
// solver of the run's ShardedSolver and sees each cell solve: priced cell
// solves carry the epoch's price λ >= 0, top-ups a negative price.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/solver_api.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double nowSeconds();

/// One call into the probed solver.
struct SolveCall {
  double start = 0.0;     ///< inner solve entered
  double end = 0.0;       ///< inner solve returned
  double checkEnd = 0.0;  ///< validation finished (== end when not traced)
  double price = -1.0;    ///< SolveContext::energyPrice
  int tasks = 0;
  int machines = 0;
  double budget = 0.0;    ///< the instance's energy budget
  double energy = 0.0;
  double accuracy = 0.0;  ///< SOL
  double upperBound = 0.0;
  double guaranteeG = 0.0;
  bool hasGuarantee = false;  ///< approx: SOL >= UB - G must hold
  dsct::FrOptCounters counters;
  /// Hash of the instance's task names; a top-up re-solves the cell whose
  /// priced solve has the same key.
  std::uint64_t cellKey = 0;
  long long epoch = 0;  ///< epoch index within the serving run
  std::string failure;  ///< first failed check; empty when all passed
};

/// Collects the calls of one serving run. record() is thread-safe: in
/// sharded runs the cell solves arrive from the worker pool.
class SolveProbe {
 public:
  /// Start a serving run. `sharded` selects epoch grouping by cell
  /// (otherwise every call is its own epoch); `validate` runs the
  /// feasibility validator on every returned schedule.
  void begin(bool sharded, bool validate);
  /// Finish the run and hand over its calls, ordered by epoch, priced
  /// cells before top-ups, then by cell key.
  std::vector<SolveCall> end();

  void record(const dsct::Instance& inst, const dsct::SolveContext& context,
              const dsct::SolveOutcome& outcome, bool hasGuarantee,
              double start, double end);

 private:
  std::mutex mutex_;
  std::vector<SolveCall> calls_;
  bool sharded_ = false;
  bool validate_ = false;
  // Sharded epoch grouping. An epoch's priced cells share one λ and hold
  // disjoint task sets, and its top-ups come after all of them; the next
  // epoch's cells start only after the epoch's solve returned. So a priced
  // call opens a new epoch when the current one already had a top-up, ran
  // at another λ, or holds one of the call's task names (the serving loop
  // numbers each epoch's tasks from 0).
  long long epoch_ = -1;
  double epochPrice_ = 0.0;
  bool epochHasTopUp_ = false;
  std::unordered_set<std::uint64_t> epochTaskNames_;
};

/// Register (once per process) the probed wrapper of `policy` and return
/// its registry name.
std::string registerTimedSolver(const std::string& policy, SolveProbe& probe);

}  // namespace perfbench
