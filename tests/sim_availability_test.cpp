// Availability layer: deterministic departure traces, whole-epoch
// granularity, loud option validation, and the battery store.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/availability.h"
#include "sim/faults.h"
#include "util/check.h"
#include "util/rng.h"

namespace dsct {
namespace {

sim::AvailabilityOptions departingOptions() {
  sim::AvailabilityOptions o;
  o.enabled = true;
  o.seed = 4242;
  o.departMtbfSeconds = 2.0;
  o.departMeanSeconds = 1.5;
  return o;
}

// ---------------------------------------------------- AvailabilityTrace ---

TEST(AvailabilityTrace, DisabledIsTransparent) {
  const sim::AvailabilityTrace trace;
  EXPECT_FALSE(trace.enabled());
  EXPECT_FALSE(trace.batteryActive());
  EXPECT_TRUE(trace.presentInEpoch(0, 0));
  EXPECT_TRUE(trace.presentInEpoch(17, 123));
  EXPECT_EQ(trace.absentCount(5), 0);
}

TEST(AvailabilityTrace, GenerateIsDeterministicAndSeedSensitive) {
  const auto options = departingOptions();
  const auto a = sim::AvailabilityTrace::generate(4, 20.0, 40, 0.5, options);
  const auto b = sim::AvailabilityTrace::generate(4, 20.0, 40, 0.5, options);
  EXPECT_EQ(a, b);  // pure function of (options, machines, horizon)
  EXPECT_TRUE(a.enabled());
  EXPECT_EQ(a.numMachines(), 4);
  EXPECT_EQ(a.numEpochs(), 40);
  // MTBF 2 s over 20 s on 4 machines: departures definitely happen.
  int absences = 0;
  for (long long e = 0; e < 40; ++e) absences += a.absentCount(e);
  EXPECT_GT(absences, 0);
  // A different seed reshuffles the schedule.
  auto reseeded = options;
  reseeded.seed = 4243;
  const auto c = sim::AvailabilityTrace::generate(4, 20.0, 40, 0.5, reseeded);
  EXPECT_NE(a, c);
}

TEST(AvailabilityTrace, ZeroMtbfDisablesDepartures) {
  auto options = departingOptions();
  options.departMtbfSeconds = 0.0;
  const auto trace = sim::AvailabilityTrace::generate(3, 10.0, 20, 0.5, options);
  EXPECT_TRUE(trace.enabled());
  for (long long e = 0; e < 20; ++e) {
    EXPECT_EQ(trace.absentCount(e), 0);
  }
}

TEST(AvailabilityTrace, ExplicitTraceHasWholeEpochGranularity) {
  // Machine 0 departs for epochs 1–2, machine 1 never leaves.
  const sim::AvailabilityTrace trace(
      {{false, true, true, false}, {false, false, false, false}},
      departingOptions());
  EXPECT_EQ(trace.numMachines(), 2);
  EXPECT_EQ(trace.numEpochs(), 4);
  EXPECT_TRUE(trace.presentInEpoch(0, 0));
  EXPECT_FALSE(trace.presentInEpoch(0, 1));
  EXPECT_FALSE(trace.presentInEpoch(0, 2));
  EXPECT_TRUE(trace.presentInEpoch(0, 3));  // the machine returns
  EXPECT_TRUE(trace.presentInEpoch(1, 1));
  EXPECT_EQ(trace.absentCount(1), 1);
  EXPECT_EQ(trace.absentCount(3), 0);
  // Epochs beyond the trace treat every machine as present.
  EXPECT_TRUE(trace.presentInEpoch(0, 99));
  EXPECT_EQ(trace.absentCount(99), 0);
}

TEST(AvailabilityTrace, ExplicitTraceRejectsRaggedEpochs) {
  EXPECT_THROW(sim::AvailabilityTrace(
                   {{false, true}, {false}}, departingOptions()),
               CheckError);
}

TEST(AvailabilityTrace, OptionValidationRejectsEachBadField) {
  const auto generate = [](const sim::AvailabilityOptions& o) {
    return sim::AvailabilityTrace::generate(2, 10.0, 20, 0.5, o);
  };
  {
    auto o = departingOptions();
    o.departMtbfSeconds = -1.0;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = departingOptions();
    o.departMeanSeconds = 0.0;  // departures enabled → mean must be positive
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = departingOptions();
    o.batteryCapacityJoules = -5.0;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = departingOptions();
    o.batteryCapacityJoules = 10.0;
    o.batteryInitialFraction = 1.5;
    EXPECT_THROW(generate(o), CheckError);
    o.batteryInitialFraction = -0.1;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = departingOptions();
    o.rechargeWatts = -2.0;
    EXPECT_THROW(generate(o), CheckError);
  }
}

TEST(AvailabilityTrace, OptionErrorsNameTheFieldWithoutCheckText) {
  // Availability options come from the user: the error names the field and
  // carries no `check failed` prefix or source location.
  const auto expectPlain = [](const sim::AvailabilityOptions& o,
                              const std::string& field) {
    SCOPED_TRACE(field);
    try {
      sim::AvailabilityTrace::generate(2, 10.0, 20, 0.5, o);
      ADD_FAILURE() << field << " accepted";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(field, 0), 0u) << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
    }
  };
  auto o = departingOptions();
  o.departMtbfSeconds = -1.0;
  expectPlain(o, "departMtbfSeconds");
  o = departingOptions();
  o.batteryCapacityJoules = 10.0;
  o.batteryInitialFraction = 2.0;
  expectPlain(o, "batteryInitialFraction");
  o = departingOptions();
  o.rechargeWatts = -1.0;
  expectPlain(o, "rechargeWatts");
}

TEST(AvailabilityTrace, DeparturesAreRenewalWindowsSnappedToEpochs) {
  // Machine m is away for epoch e exactly when one of its renewal windows
  // (seeded per machine) covers the epoch's start.
  const auto options = departingOptions();
  const double horizon = 20.0;
  const double epoch = 0.5;
  const long long epochs = 40;
  const auto trace =
      sim::AvailabilityTrace::generate(3, horizon, epochs, epoch, options);
  int absences = 0;
  for (int m = 0; m < 3; ++m) {
    const auto windows = sim::sampleRenewalWindows(
        options.departMtbfSeconds, options.departMeanSeconds, horizon,
        deriveSeed(options.seed, static_cast<std::uint64_t>(m)));
    for (long long e = 0; e < epochs; ++e) {
      const double start = static_cast<double>(e) * epoch;
      bool covered = false;
      for (const auto& w : windows) {
        covered = covered || (start >= w.start && start < w.end);
      }
      EXPECT_EQ(trace.presentInEpoch(m, e), !covered) << m << " " << e;
      if (covered) ++absences;
    }
  }
  EXPECT_GT(absences, 0);
}

// --------------------------------------------------------- BatteryModel ---

TEST(BatteryModel, InactiveByDefault) {
  const sim::BatteryModel battery;
  EXPECT_FALSE(battery.active());
}

TEST(BatteryModel, DrainClampsAtZeroAndRechargeAtCapacity) {
  sim::AvailabilityOptions o;
  o.enabled = true;
  o.batteryCapacityJoules = 10.0;
  o.batteryInitialFraction = 0.5;
  o.rechargeWatts = 2.0;
  sim::BatteryModel battery(2, o);
  ASSERT_TRUE(battery.active());
  EXPECT_DOUBLE_EQ(battery.capacityJoules(), 10.0);
  EXPECT_DOUBLE_EQ(battery.charge(0), 5.0);
  EXPECT_DOUBLE_EQ(battery.charge(1), 5.0);

  battery.drain(0, 3.0);
  EXPECT_DOUBLE_EQ(battery.charge(0), 2.0);
  EXPECT_DOUBLE_EQ(battery.charge(1), 5.0);  // per-machine stores
  battery.drain(0, 100.0);                   // over-drain clamps at empty
  EXPECT_DOUBLE_EQ(battery.charge(0), 0.0);

  battery.recharge(1.0);  // +2 J each
  EXPECT_DOUBLE_EQ(battery.charge(0), 2.0);
  EXPECT_DOUBLE_EQ(battery.charge(1), 7.0);
  battery.recharge(100.0);  // clamped at capacity
  EXPECT_DOUBLE_EQ(battery.charge(0), 10.0);
  EXPECT_DOUBLE_EQ(battery.charge(1), 10.0);
}

TEST(BatteryModel, ZeroRechargeRateIsExactNoOp) {
  sim::AvailabilityOptions o;
  o.enabled = true;
  o.batteryCapacityJoules = 8.0;
  sim::BatteryModel battery(1, o);
  battery.drain(0, 3.0);
  battery.recharge(10.0);
  EXPECT_DOUBLE_EQ(battery.charge(0), 5.0);
}

}  // namespace
}  // namespace dsct
