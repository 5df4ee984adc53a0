#include "sim/faults.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace dsct::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void checkSortedDisjoint(const std::vector<std::vector<FaultInterval>>& all) {
  for (const auto& windows : all) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      DSCT_CHECK_MSG(windows[i].start <= windows[i].end,
                     "fault interval with negative length");
      if (i > 0) {
        DSCT_CHECK_MSG(windows[i - 1].end <= windows[i].start,
                       "fault intervals must be sorted and disjoint");
      }
    }
  }
}

}  // namespace

std::vector<FaultInterval> sampleRenewalWindows(double meanUp,
                                                double meanDown,
                                                double horizon,
                                                std::uint64_t seed) {
  std::vector<FaultInterval> windows;
  if (meanUp <= 0.0 || meanDown <= 0.0 || horizon <= 0.0) return windows;
  Rng rng(seed);
  double t = rng.exponential(1.0 / meanUp);
  while (t < horizon) {
    const double down = rng.exponential(1.0 / meanDown);
    windows.push_back({t, std::min(horizon, t + down)});
    t += down + rng.exponential(1.0 / meanUp);
  }
  return windows;
}

FaultTrace::FaultTrace(std::vector<std::vector<FaultInterval>> downtime,
                       std::vector<std::vector<FaultInterval>> slowdown,
                       double slowdownFactor,
                       std::vector<double> budgetFactors,
                       std::vector<long long> injectPolicyFailureEpochs,
                       int maxRetries, int injectFailureDepth)
    : enabled_(true),
      slowdownFactor_(slowdownFactor),
      maxRetries_(maxRetries),
      injectFailureDepth_(injectFailureDepth),
      downtime_(std::move(downtime)),
      slowdown_(std::move(slowdown)),
      budgetFactors_(std::move(budgetFactors)),
      injectedFailures_(std::move(injectPolicyFailureEpochs)) {
  DSCT_CHECK_MSG(slowdownFactor_ > 0.0 && slowdownFactor_ <= 1.0,
                 "slowdownFactor must be in (0, 1]");
  DSCT_CHECK(maxRetries_ >= 0);
  DSCT_CHECK(injectFailureDepth_ >= 1);
  if (slowdown_.empty()) {
    slowdown_.resize(downtime_.size());
  }
  DSCT_CHECK(slowdown_.size() == downtime_.size());
  checkSortedDisjoint(downtime_);
  checkSortedDisjoint(slowdown_);
  std::sort(injectedFailures_.begin(), injectedFailures_.end());
}

FaultTrace FaultTrace::generate(int numMachines, double horizonSeconds,
                                long long numEpochs,
                                const FaultOptions& options) {
  DSCT_CHECK(numMachines > 0);
  // Reject degenerate option fields loudly instead of silently sampling an
  // empty or nonsensical trace.
  DSCT_ENSURE(options.mtbfSeconds >= 0.0,
              "mtbfSeconds must be non-negative (" << options.mtbfSeconds
                                                   << ")");
  DSCT_ENSURE(options.mttrSeconds >= 0.0,
              "mttrSeconds must be non-negative (" << options.mttrSeconds
                                                   << ")");
  DSCT_ENSURE(options.mttrSeconds > 0.0 || options.mtbfSeconds <= 0.0,
              "mttrSeconds must be positive when crashes are enabled");
  DSCT_ENSURE(options.slowdownMtbfSeconds >= 0.0,
              "slowdownMtbfSeconds must be non-negative ("
                  << options.slowdownMtbfSeconds << ")");
  DSCT_ENSURE(options.slowdownMeanSeconds >= 0.0,
              "slowdownMeanSeconds must be non-negative ("
                  << options.slowdownMeanSeconds << ")");
  DSCT_ENSURE(
      options.slowdownMeanSeconds > 0.0 || options.slowdownMtbfSeconds <= 0.0,
      "slowdownMeanSeconds must be positive when stragglers are enabled");
  DSCT_ENSURE(options.slowdownFactor > 0.0 && options.slowdownFactor <= 1.0,
              "slowdownFactor must be in (0, 1] ("
                  << options.slowdownFactor << ")");
  DSCT_ENSURE(options.budgetShockProbability >= 0.0 &&
                  options.budgetShockProbability <= 1.0,
              "budgetShockProbability must be in [0, 1] ("
                  << options.budgetShockProbability << ")");
  DSCT_ENSURE(options.budgetShockFactor >= 0.0,
              "budgetShockFactor must be non-negative ("
                  << options.budgetShockFactor << ")");
  DSCT_ENSURE(options.maxRetries >= 0, "maxRetries must be non-negative ("
                                           << options.maxRetries << ")");
  std::vector<std::vector<FaultInterval>> downtime;
  std::vector<std::vector<FaultInterval>> slowdown;
  downtime.reserve(static_cast<std::size_t>(numMachines));
  slowdown.reserve(static_cast<std::size_t>(numMachines));
  for (int r = 0; r < numMachines; ++r) {
    // Distinct SplitMix64 streams per (machine, process kind).
    downtime.push_back(sampleRenewalWindows(
        options.mtbfSeconds, options.mttrSeconds, horizonSeconds,
        deriveSeed(options.seed, static_cast<std::uint64_t>(2 * r))));
    slowdown.push_back(sampleRenewalWindows(
        options.slowdownMtbfSeconds, options.slowdownMeanSeconds,
        horizonSeconds,
        deriveSeed(options.seed, static_cast<std::uint64_t>(2 * r + 1))));
  }
  std::vector<double> budgetFactors;
  if (options.budgetShockProbability > 0.0 && numEpochs > 0) {
    Rng rng(deriveSeed(options.seed, 0xB0D6E7ULL));
    budgetFactors.reserve(static_cast<std::size_t>(numEpochs));
    for (long long e = 0; e < numEpochs; ++e) {
      budgetFactors.push_back(rng.bernoulli(options.budgetShockProbability)
                                  ? options.budgetShockFactor
                                  : 1.0);
    }
  }
  return FaultTrace(std::move(downtime), std::move(slowdown),
                    options.slowdownMtbfSeconds > 0.0 ? options.slowdownFactor
                                                      : 1.0,
                    std::move(budgetFactors),
                    options.injectPolicyFailureEpochs, options.maxRetries,
                    options.injectFailureDepth);
}

bool FaultTrace::aliveAt(int machine, double t) const {
  if (!enabled_) return true;
  for (const FaultInterval& w : downtime(machine)) {
    if (t < w.start) return true;  // sorted: no earlier window covers t
    if (t < w.end) return false;
  }
  return true;
}

double FaultTrace::nextCrashAt(int machine, double t) const {
  if (!enabled_) return kInf;
  for (const FaultInterval& w : downtime(machine)) {
    if (t < w.start) return w.start;
    if (t < w.end) return t;  // already down
  }
  return kInf;
}

double FaultTrace::effectiveSeconds(int machine, double t0, double t1) const {
  DSCT_CHECK(t1 >= t0);
  return (t1 - t0) - slowdownLossSeconds(machine, t0, t1);
}

double FaultTrace::slowdownLossSeconds(int machine, double t0,
                                       double t1) const {
  double lost = 0.0;
  if (!enabled_ || slowdownFactor_ >= 1.0) return lost;
  for (const FaultInterval& w : slowdown(machine)) {
    if (w.start >= t1) break;
    const double overlap = std::min(t1, w.end) - std::max(t0, w.start);
    if (overlap > 0.0) lost += overlap * (1.0 - slowdownFactor_);
  }
  return lost;
}

double FaultTrace::budgetFactor(long long epoch) const {
  if (!enabled_ || epoch < 0 ||
      epoch >= static_cast<long long>(budgetFactors_.size())) {
    return 1.0;
  }
  return budgetFactors_[static_cast<std::size_t>(epoch)];
}

bool FaultTrace::policyFailureInjected(long long epoch) const {
  return enabled_ && std::binary_search(injectedFailures_.begin(),
                                        injectedFailures_.end(), epoch);
}

const std::vector<FaultInterval>& FaultTrace::downtime(int machine) const {
  DSCT_CHECK(machine >= 0 && machine < numMachines());
  return downtime_[static_cast<std::size_t>(machine)];
}

const std::vector<FaultInterval>& FaultTrace::slowdown(int machine) const {
  DSCT_CHECK(machine >= 0 && machine < numMachines());
  return slowdown_[static_cast<std::size_t>(machine)];
}

}  // namespace dsct::sim
