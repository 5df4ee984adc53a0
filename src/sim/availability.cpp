#include "sim/availability.h"

#include <algorithm>

#include "sim/faults.h"
#include "util/check.h"
#include "util/rng.h"

namespace dsct::sim {

namespace {

void validateOptions(const AvailabilityOptions& options) {
  DSCT_ENSURE(options.departMtbfSeconds >= 0.0,
              "departMtbfSeconds must be non-negative ("
                  << options.departMtbfSeconds << ")");
  DSCT_ENSURE(
      options.departMeanSeconds > 0.0 || options.departMtbfSeconds <= 0.0,
      "departMeanSeconds must be positive when departures are enabled ("
          << options.departMeanSeconds << ")");
  DSCT_ENSURE(options.batteryCapacityJoules >= 0.0,
              "batteryCapacityJoules must be non-negative ("
                  << options.batteryCapacityJoules << ")");
  DSCT_ENSURE(options.batteryInitialFraction >= 0.0 &&
                  options.batteryInitialFraction <= 1.0,
              "batteryInitialFraction must be in [0, 1] ("
                  << options.batteryInitialFraction << ")");
  DSCT_ENSURE(
      options.rechargeWatts >= 0.0,
      "rechargeWatts must be non-negative (" << options.rechargeWatts << ")");
}

}  // namespace

AvailabilityTrace::AvailabilityTrace(std::vector<std::vector<bool>> absent,
                                     AvailabilityOptions options)
    : enabled_(true), options_(options), absent_(std::move(absent)) {
  validateOptions(options_);
  numEpochs_ =
      absent_.empty() ? 0 : static_cast<long long>(absent_.front().size());
  for (const auto& machine : absent_) {
    DSCT_CHECK_MSG(static_cast<long long>(machine.size()) == numEpochs_,
                   "every machine must cover the same number of epochs");
  }
}

AvailabilityTrace AvailabilityTrace::generate(int numMachines,
                                              double horizonSeconds,
                                              long long numEpochs,
                                              double epochSeconds,
                                              const AvailabilityOptions&
                                                  options) {
  DSCT_CHECK(numMachines > 0);
  DSCT_CHECK(numEpochs >= 0);
  DSCT_CHECK(epochSeconds > 0.0);
  validateOptions(options);
  std::vector<std::vector<bool>> absent(
      static_cast<std::size_t>(numMachines),
      std::vector<bool>(static_cast<std::size_t>(numEpochs), false));
  for (int m = 0; m < numMachines; ++m) {
    // Absence windows: present stretches ~ Exp(1/departMtbf), absences
    // ~ Exp(1/departMean).
    const std::vector<FaultInterval> windows = sampleRenewalWindows(
        options.departMtbfSeconds, options.departMeanSeconds, horizonSeconds,
        deriveSeed(options.seed, static_cast<std::uint64_t>(m)));
    // Snap to whole epochs: machine m is departed for epoch e iff an absence
    // window covers the epoch's start.
    for (const FaultInterval& w : windows) {
      for (long long e = 0; e < numEpochs; ++e) {
        const double epochStart = static_cast<double>(e) * epochSeconds;
        if (epochStart >= w.start && epochStart < w.end) {
          absent[static_cast<std::size_t>(m)][static_cast<std::size_t>(e)] =
              true;
        }
      }
    }
  }
  return AvailabilityTrace(std::move(absent), options);
}

bool AvailabilityTrace::presentInEpoch(int machine, long long epoch) const {
  if (!enabled_ || epoch < 0 || epoch >= numEpochs_) return true;
  DSCT_CHECK(machine >= 0 && machine < numMachines());
  return !absent_[static_cast<std::size_t>(machine)]
                 [static_cast<std::size_t>(epoch)];
}

int AvailabilityTrace::absentCount(long long epoch) const {
  if (!enabled_ || epoch < 0 || epoch >= numEpochs_) return 0;
  int count = 0;
  for (const auto& machine : absent_) {
    if (machine[static_cast<std::size_t>(epoch)]) ++count;
  }
  return count;
}

BatteryModel::BatteryModel(int numMachines,
                           const AvailabilityOptions& options)
    : capacity_(options.batteryCapacityJoules),
      rechargeWatts_(options.rechargeWatts) {
  validateOptions(options);
  DSCT_CHECK(numMachines > 0);
  if (capacity_ <= 0.0) return;  // stays inactive
  charge_.assign(static_cast<std::size_t>(numMachines),
                 capacity_ * options.batteryInitialFraction);
}

double BatteryModel::charge(int machine) const {
  DSCT_CHECK(machine >= 0 &&
             machine < static_cast<int>(charge_.size()));
  return charge_[static_cast<std::size_t>(machine)];
}

void BatteryModel::drain(int machine, double joules) {
  DSCT_CHECK(machine >= 0 &&
             machine < static_cast<int>(charge_.size()));
  DSCT_CHECK(joules >= 0.0);
  double& c = charge_[static_cast<std::size_t>(machine)];
  c = std::max(0.0, c - joules);
}

void BatteryModel::recharge(double seconds) {
  DSCT_CHECK(seconds >= 0.0);
  if (rechargeWatts_ <= 0.0) return;
  const double credit = rechargeWatts_ * seconds;
  for (double& c : charge_) c = std::min(capacity_, c + credit);
}

}  // namespace dsct::sim
