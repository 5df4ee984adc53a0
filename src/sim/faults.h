// Deterministic fault injection for the cluster simulator and serving loop.
//
// A FaultTrace is a seeded, pre-generated event stream over the whole
// simulation horizon: per-machine crash/recovery intervals (renewal process
// with exponential up/down times), per-machine multiplicative slowdown
// (straggler) windows, and per-epoch energy-budget shock factors. The trace
// is a pure function of (FaultOptions, machine count, horizon), so two runs
// with the same seed replay bit-identical fault histories regardless of what
// the scheduler does — the basis of the deterministic-replay regression
// tests. See DESIGN.md §10.
#pragma once

#include <cstdint>
#include <vector>

namespace dsct::sim {

struct FaultOptions {
  /// Master switch. When false, runServing takes the exact pre-fault code
  /// path (no trace is generated, no RNG draws happen) and output is
  /// bit-identical to a build without fault support.
  bool enabled = false;
  /// Seed for the fault event stream, independent of the workload seed so
  /// the same arrival trace can be replayed under different fault histories.
  std::uint64_t seed = 2024;

  /// Mean up-time between machine crashes (s); <= 0 disables crashes.
  double mtbfSeconds = 0.0;
  /// Mean down-time per crash (s).
  double mttrSeconds = 1.0;

  /// Mean time between straggler windows per machine (s); <= 0 disables.
  double slowdownMtbfSeconds = 0.0;
  /// Mean straggler window length (s).
  double slowdownMeanSeconds = 1.0;
  /// Effective-speed multiplier inside a straggler window, in (0, 1].
  double slowdownFactor = 0.5;

  /// Per-epoch probability that the granted energy budget is shocked.
  double budgetShockProbability = 0.0;
  /// Budget multiplier applied in a shocked epoch (e.g. 0.3 = 70% dip).
  double budgetShockFactor = 1.0;

  /// How many times an interrupted request may re-enter later batches
  /// before it is abandoned.
  int maxRetries = 2;

  /// Epoch indices at which the primary policy is forced to fail (counts as
  /// a policy failure and engages the fallback chain). Deterministic hook
  /// for testing solver-failure recovery without a real crash.
  std::vector<long long> injectPolicyFailureEpochs;
  /// How many scheduling attempts fail on an injected epoch: 1 (default)
  /// fails only the primary policy — the pre-chain semantics — while k > 1
  /// additionally fails the first k−1 fallback-chain attempts, exercising
  /// deeper entries of ServingOptions::fallbackChain.
  int injectFailureDepth = 1;
};

/// Half-open interval [start, end) in absolute simulation seconds.
struct FaultInterval {
  double start = 0.0;
  double end = 0.0;
};

/// Alternating renewal process on [0, horizon): up-times ~ Exp(1/meanUp),
/// down-times ~ Exp(1/meanDown); returns the down windows, the last one
/// clipped at the horizon. Empty when either mean or the horizon is not
/// positive. Crashes, stragglers and availability departures all draw from
/// it, each machine and process kind on its own derived seed, so traces are
/// stable under machine-count changes.
std::vector<FaultInterval> sampleRenewalWindows(double meanUp,
                                                double meanDown,
                                                double horizon,
                                                std::uint64_t seed);

class FaultTrace {
 public:
  /// Disabled trace: every machine always alive, factor 1 everywhere.
  FaultTrace() = default;

  /// Explicit trace for tests: hand-placed downtime/slowdown windows and
  /// per-epoch budget factors. Intervals must be sorted and disjoint per
  /// machine; budgetFactors may be shorter than the epoch count (missing
  /// epochs default to 1).
  FaultTrace(std::vector<std::vector<FaultInterval>> downtime,
             std::vector<std::vector<FaultInterval>> slowdown,
             double slowdownFactor, std::vector<double> budgetFactors,
             std::vector<long long> injectPolicyFailureEpochs, int maxRetries,
             int injectFailureDepth = 1);

  /// Sample a trace from `options` over [0, horizonSeconds) for
  /// `numMachines` machines and `numEpochs` scheduling epochs.
  static FaultTrace generate(int numMachines, double horizonSeconds,
                             long long numEpochs, const FaultOptions& options);

  bool enabled() const { return enabled_; }
  int numMachines() const { return static_cast<int>(downtime_.size()); }

  /// Is `machine` up at absolute time t?
  bool aliveAt(int machine, double t) const;

  /// Start of the first downtime interval at or after t; +infinity if none.
  /// A machine already down at t reports t itself.
  double nextCrashAt(int machine, double t) const;

  /// Work-equivalent seconds delivered by `machine` over [t0, t1]: the
  /// interval length minus slowdownLossSeconds. Downtime is NOT subtracted
  /// here — crash handling cuts the interval.
  double effectiveSeconds(int machine, double t0, double t1) const;

  /// Work-seconds lost to straggler windows over [t0, t1]:
  /// (1 − slowdownFactor) times the total overlap. Exactly 0.0 when no
  /// window overlaps, so fault-free intervals lose nothing — not even a
  /// floating-point ulp (the simulator relies on this for bit-identical
  /// replay of unaffected tasks).
  double slowdownLossSeconds(int machine, double t0, double t1) const;

  /// Budget multiplier for scheduling epoch `epoch` (1 when unshocked or
  /// out of range).
  double budgetFactor(long long epoch) const;

  bool policyFailureInjected(long long epoch) const;
  /// Number of scheduling attempts (primary first, then fallbacks) that fail
  /// on an injected epoch; always >= 1.
  int injectFailureDepth() const { return injectFailureDepth_; }

  int maxRetries() const { return maxRetries_; }
  const std::vector<FaultInterval>& downtime(int machine) const;
  const std::vector<FaultInterval>& slowdown(int machine) const;

 private:
  bool enabled_ = false;
  double slowdownFactor_ = 1.0;
  int maxRetries_ = 2;
  int injectFailureDepth_ = 1;
  std::vector<std::vector<FaultInterval>> downtime_;   ///< per machine, sorted
  std::vector<std::vector<FaultInterval>> slowdown_;   ///< per machine, sorted
  std::vector<double> budgetFactors_;                  ///< per epoch
  std::vector<long long> injectedFailures_;            ///< sorted epoch ids
};

}  // namespace dsct::sim
