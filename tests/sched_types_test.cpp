#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sched/energy_profile.h"
#include "sched/schedule.h"
#include "sched/types.h"
#include "sched/validator.h"
#include "tests/test_support.h"
#include "util/check.h"

namespace dsct {
namespace {

using testing::tinyInstance;
using testing::twoSegment;

TEST(Machine, PowerIsSpeedOverEfficiency) {
  const Machine m{10.0, 0.05, "gpu"};
  EXPECT_DOUBLE_EQ(m.power(), 200.0);  // 10 TFLOPS / 0.05 TFLOP/J = 200 W
}

TEST(Instance, SortsTasksByDeadline) {
  std::vector<Task> tasks{
      Task{3.0, twoSegment(), "late"},
      Task{1.0, twoSegment(), "early"},
      Task{2.0, twoSegment(), "mid"},
  };
  Instance inst(std::move(tasks), {Machine{1.0, 0.01, "m"}}, 10.0);
  EXPECT_EQ(inst.task(0).name, "early");
  EXPECT_EQ(inst.task(1).name, "mid");
  EXPECT_EQ(inst.task(2).name, "late");
  EXPECT_DOUBLE_EQ(inst.maxDeadline(), 3.0);
}

TEST(Instance, Aggregates) {
  const Instance inst = tinyInstance(42.0);
  EXPECT_EQ(inst.numTasks(), 2);
  EXPECT_EQ(inst.numMachines(), 2);
  EXPECT_DOUBLE_EQ(inst.totalFmax(), 5.0);
  EXPECT_DOUBLE_EQ(inst.totalSpeed(), 3.0);
  EXPECT_DOUBLE_EQ(inst.totalPower(), 2.0 / 0.05 + 1.0 / 0.08);
  EXPECT_DOUBLE_EQ(inst.energyBudget(), 42.0);
  EXPECT_DOUBLE_EQ(inst.totalAmax(), 1.7);
  EXPECT_DOUBLE_EQ(inst.totalAmin(), 0.0);
}

TEST(Instance, MachinesByEfficiencyDesc) {
  const Instance inst = tinyInstance();
  const auto order = inst.machinesByEfficiencyDesc();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // 0.08 > 0.05
  EXPECT_EQ(order[1], 0);
}

TEST(Instance, RejectsInvalidInputs) {
  EXPECT_THROW(Instance({}, {}, 1.0), CheckError);  // no machines
  EXPECT_THROW(Instance({}, {Machine{0.0, 1.0, ""}}, 1.0), CheckError);
  EXPECT_THROW(Instance({}, {Machine{1.0, -1.0, ""}}, 1.0), CheckError);
  EXPECT_THROW(Instance({}, {Machine{1.0, 1.0, ""}}, -1.0), CheckError);
  EXPECT_THROW(
      Instance({Task{-1.0, twoSegment(), ""}}, {Machine{1.0, 1.0, ""}}, 1.0),
      CheckError);
  // A NaN or infinite budget is reported as non-finite, not as negative.
  for (const double budget : {std::nan(""), HUGE_VAL}) {
    try {
      Instance({}, {Machine{1.0, 1.0, ""}}, budget);
      ADD_FAILURE() << "budget " << budget << " accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("must be finite"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FractionalSchedule, MetricsAndLoads) {
  const Instance inst = tinyInstance(1e9);
  FractionalSchedule s(2, 2);
  s.set(0, 0, 0.5);  // 1 TFLOP on m0 (speed 2)
  s.set(0, 1, 0.5);  // 0.5 TFLOP on m1 (speed 1)
  s.set(1, 1, 1.0);  // 1 TFLOP on m1
  EXPECT_DOUBLE_EQ(s.flops(inst, 0), 1.5);
  EXPECT_DOUBLE_EQ(s.flops(inst, 1), 1.0);
  EXPECT_DOUBLE_EQ(s.machineLoad(0), 0.5);
  EXPECT_DOUBLE_EQ(s.machineLoad(1), 1.5);
  EXPECT_DOUBLE_EQ(s.prefixTime(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(s.prefixTime(1, 1), 1.5);
  // Energy: 0.5 s * 40 W + 1.5 s * 12.5 W.
  EXPECT_DOUBLE_EQ(s.energy(inst), 0.5 * 40.0 + 1.5 * 12.5);
  // Accuracy from the two-segment functions.
  EXPECT_DOUBLE_EQ(s.taskAccuracy(inst, 0),
                   inst.task(0).accuracy.value(1.5));
  EXPECT_DOUBLE_EQ(s.totalError(inst), 2.0 - s.totalAccuracy(inst));
}

TEST(FractionalSchedule, RejectsNegativeTime) {
  FractionalSchedule s(1, 1);
  EXPECT_THROW(s.set(0, 0, -0.5), CheckError);
  s.set(0, 0, 1.0);
  s.add(0, 0, 0.25);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 1.25);
}

TEST(IntegralSchedule, BuildStacksPerMachine) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s =
      IntegralSchedule::build(inst, {0, 0}, {0.25, 0.5});
  EXPECT_EQ(s.machineOf(0), 0);
  EXPECT_EQ(s.machineOf(1), 0);
  EXPECT_DOUBLE_EQ(s.start(0), 0.0);
  EXPECT_DOUBLE_EQ(s.start(1), 0.25);
  ASSERT_EQ(s.timeline(0).size(), 2u);
  EXPECT_TRUE(s.timeline(1).empty());
  EXPECT_DOUBLE_EQ(s.machineLoad(0), 0.75);
  EXPECT_EQ(s.numScheduled(), 2);
}

TEST(IntegralSchedule, UnscheduledTasksKeepFloorAccuracy) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {-1, 1}, {9.9, 1.0});
  EXPECT_EQ(s.machineOf(0), -1);
  EXPECT_DOUBLE_EQ(s.duration(0), 0.0);  // duration zeroed for unscheduled
  EXPECT_DOUBLE_EQ(s.flops(inst, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.taskAccuracy(inst, 0), inst.task(0).amin());
  EXPECT_EQ(s.numScheduled(), 1);
}

TEST(IntegralSchedule, ToFractionalPreservesMetrics) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {1, 0}, {0.5, 1.0});
  const FractionalSchedule f = s.toFractional(inst);
  EXPECT_DOUBLE_EQ(f.totalAccuracy(inst), s.totalAccuracy(inst));
  EXPECT_DOUBLE_EQ(f.energy(inst), s.energy(inst));
}

TEST(Validator, AcceptsFeasible) {
  const Instance inst = tinyInstance(1e9);
  FractionalSchedule s(2, 2);
  s.set(0, 0, 0.5);
  s.set(1, 0, 1.0);
  EXPECT_TRUE(validate(inst, s).feasible);
}

TEST(Validator, CatchesDeadlineViolation) {
  const Instance inst = tinyInstance(1e9);
  FractionalSchedule s(2, 2);
  s.set(0, 0, 1.5);  // d_0 = 1.0
  const ValidationReport report = validate(inst, s);
  EXPECT_FALSE(report.feasible);
  EXPECT_GT(report.maxDeadlineViolation, 0.4);
}

TEST(Validator, CatchesPrefixViolation) {
  const Instance inst = tinyInstance(1e9);
  FractionalSchedule s(2, 2);
  s.set(0, 0, 0.9);
  s.set(1, 0, 1.5);  // prefix 2.4 > d_1 = 2.0
  EXPECT_FALSE(validate(inst, s).feasible);
}

TEST(Validator, CatchesEnergyViolation) {
  const Instance inst = tinyInstance(1.0);  // 1 J budget
  FractionalSchedule s(2, 2);
  s.set(0, 0, 0.5);  // 0.5 s * 40 W = 20 J
  const ValidationReport report = validate(inst, s);
  EXPECT_FALSE(report.feasible);
  EXPECT_NEAR(report.energyExcess, 19.0, 1e-9);
}

TEST(Validator, CatchesFlopsViolation) {
  const Instance inst = tinyInstance(1e9);
  FractionalSchedule s(2, 2);
  // Task 1 (deadline 2): 2s * 2 TFLOPS = 4 > fmax = 3.
  s.set(1, 0, 2.0);
  const ValidationReport report = validate(inst, s);
  EXPECT_FALSE(report.feasible);
  EXPECT_NEAR(report.maxFlopsExcess, 1.0, 1e-9);
  EXPECT_NE(report.summary().find("fmax"), std::string::npos);
}

TEST(Validator, IntegralOrderingChecked) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  EXPECT_TRUE(validate(inst, s).feasible);
}

TEST(EnergyProfile, NaiveFillsEfficientFirst) {
  const Instance inst = tinyInstance(30.0);
  // Machine 1 (12.5 W, most efficient) gets d_max = 2 s → 25 J; remaining
  // 5 J go to machine 0 (40 W) → 0.125 s.
  const EnergyProfile p = naiveProfile(inst);
  EXPECT_DOUBLE_EQ(p[1], 2.0);
  EXPECT_NEAR(p[0], 5.0 / 40.0, 1e-12);
  EXPECT_NEAR(profileEnergy(inst, p), 30.0, 1e-9);
}

TEST(EnergyProfile, LargeBudgetCapsAtHorizon) {
  const Instance inst = tinyInstance(1e9);
  const EnergyProfile p = naiveProfile(inst);
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], 2.0);
}

TEST(EnergyProfile, ZeroBudgetGivesZeroProfile) {
  const Instance inst = tinyInstance(0.0);
  const EnergyProfile p = naiveProfile(inst);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
}

TEST(EnergyProfile, CustomHorizon) {
  const Instance inst = tinyInstance(1e9);
  const EnergyProfile p = naiveProfile(inst, 0.5);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

}  // namespace
}  // namespace dsct
