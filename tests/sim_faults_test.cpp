// Fault-injection layer: deterministic event streams (FaultTrace) and the
// crash/straggler-aware schedule execution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sched/approx.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "tests/test_support.h"
#include "util/check.h"

namespace dsct {
namespace {

using testing::randomInstance;
using testing::tinyInstance;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Trace where machine 0 has the given windows and machine 1 is fault-free
/// (tinyInstance has two machines).
sim::FaultTrace oneMachineTrace(std::vector<sim::FaultInterval> down,
                                std::vector<sim::FaultInterval> slow = {},
                                double slowFactor = 1.0) {
  return sim::FaultTrace({std::move(down), {}}, {std::move(slow), {}},
                         slowFactor, {}, {}, 2);
}

// ---------------------------------------------------------- FaultTrace ---

TEST(FaultTrace, DisabledIsTransparent) {
  const sim::FaultTrace trace;
  EXPECT_FALSE(trace.enabled());
  EXPECT_TRUE(trace.aliveAt(0, 0.0));
  EXPECT_TRUE(trace.aliveAt(5, 123.0));
  EXPECT_EQ(trace.nextCrashAt(0, 0.0), kInf);
  EXPECT_DOUBLE_EQ(trace.effectiveSeconds(3, 1.0, 4.0), 3.0);
  EXPECT_DOUBLE_EQ(trace.budgetFactor(7), 1.0);
  EXPECT_FALSE(trace.policyFailureInjected(0));
}

TEST(FaultTrace, AliveAndNextCrashFollowIntervals) {
  const auto trace = oneMachineTrace({{2.0, 3.0}, {5.0, 6.5}});
  EXPECT_TRUE(trace.aliveAt(0, 0.0));
  EXPECT_TRUE(trace.aliveAt(0, 1.999));
  EXPECT_FALSE(trace.aliveAt(0, 2.0));
  EXPECT_FALSE(trace.aliveAt(0, 2.999));
  EXPECT_TRUE(trace.aliveAt(0, 3.0));  // half-open [start, end)
  EXPECT_FALSE(trace.aliveAt(0, 6.0));
  EXPECT_TRUE(trace.aliveAt(0, 100.0));
  EXPECT_DOUBLE_EQ(trace.nextCrashAt(0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(trace.nextCrashAt(0, 2.5), 2.5);  // already down
  EXPECT_DOUBLE_EQ(trace.nextCrashAt(0, 3.0), 5.0);
  EXPECT_EQ(trace.nextCrashAt(0, 6.5), kInf);
}

TEST(FaultTrace, EffectiveSecondsScalesStragglerOverlap) {
  const auto trace = oneMachineTrace({}, {{1.0, 3.0}}, 0.25);
  // No overlap.
  EXPECT_DOUBLE_EQ(trace.effectiveSeconds(0, 3.0, 5.0), 2.0);
  // Fully inside the window: 1 s at factor 0.25.
  EXPECT_DOUBLE_EQ(trace.effectiveSeconds(0, 1.5, 2.5), 0.25);
  // Partial overlap [0.5, 1.5]: 0.5 normal + 0.5 slowed.
  EXPECT_DOUBLE_EQ(trace.effectiveSeconds(0, 0.5, 1.5), 0.5 + 0.5 * 0.25);
}

TEST(FaultTrace, GeneratedTraceIsDeterministicAndClipped) {
  sim::FaultOptions opt;
  opt.enabled = true;
  opt.seed = 99;
  opt.mtbfSeconds = 3.0;
  opt.mttrSeconds = 1.0;
  opt.slowdownMtbfSeconds = 2.0;
  opt.slowdownMeanSeconds = 0.5;
  opt.slowdownFactor = 0.5;
  opt.budgetShockProbability = 0.4;
  opt.budgetShockFactor = 0.3;
  const auto a = sim::FaultTrace::generate(3, 50.0, 20, opt);
  const auto b = sim::FaultTrace::generate(3, 50.0, 20, opt);
  EXPECT_EQ(a.numMachines(), 3);
  int shocked = 0;
  for (long long e = 0; e < 20; ++e) {
    EXPECT_DOUBLE_EQ(a.budgetFactor(e), b.budgetFactor(e));
    EXPECT_TRUE(a.budgetFactor(e) == 1.0 || a.budgetFactor(e) == 0.3);
    if (a.budgetFactor(e) == 0.3) ++shocked;
  }
  EXPECT_GT(shocked, 0);
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(a.downtime(r).size(), b.downtime(r).size());
    EXPECT_FALSE(a.downtime(r).empty());  // MTBF 3 over 50 s: crashes happen
    double prevEnd = 0.0;
    for (const auto& w : a.downtime(r)) {
      EXPECT_GE(w.start, prevEnd);
      EXPECT_LE(w.end, 50.0);
      prevEnd = w.end;
    }
  }
  // Different machines get independent streams.
  EXPECT_NE(a.downtime(0).front().start, a.downtime(1).front().start);
}

TEST(FaultTrace, RejectsUnsortedIntervalsAndBadFactor) {
  EXPECT_THROW(oneMachineTrace({{3.0, 2.0}}), CheckError);
  EXPECT_THROW(oneMachineTrace({{2.0, 4.0}, {3.0, 5.0}}), CheckError);
  EXPECT_THROW(sim::FaultTrace({{}}, {{}}, 0.0, {}, {}, 2), CheckError);
  EXPECT_THROW(sim::FaultTrace({{}}, {{}}, 1.5, {}, {}, 2), CheckError);
}

TEST(FaultTrace, GenerateValidatesEachOptionFieldLoudly) {
  // Every degenerate field is rejected at trace-sampling time, one
  // regression per field (the pre-validation driver silently sampled an
  // empty or nonsensical trace instead).
  sim::FaultOptions good;
  good.enabled = true;
  good.mtbfSeconds = 3.0;
  good.mttrSeconds = 1.0;
  const auto generate = [](const sim::FaultOptions& o) {
    return sim::FaultTrace::generate(2, 10.0, 20, o);
  };
  EXPECT_NO_THROW(generate(good));
  {
    auto o = good;
    o.mtbfSeconds = -1.0;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.mttrSeconds = -0.5;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.mttrSeconds = 0.0;  // crashes enabled → repair time must be positive
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.slowdownMtbfSeconds = -2.0;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.slowdownMeanSeconds = -1.0;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.slowdownMtbfSeconds = 2.0;
    o.slowdownMeanSeconds = 0.0;  // stragglers enabled → mean must be > 0
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.slowdownFactor = 0.0;  // validated even with stragglers disabled
    EXPECT_THROW(generate(o), CheckError);
    o.slowdownFactor = 1.5;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.budgetShockProbability = -0.1;
    EXPECT_THROW(generate(o), CheckError);
    o.budgetShockProbability = 1.1;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.budgetShockFactor = -0.3;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.maxRetries = -1;
    EXPECT_THROW(generate(o), CheckError);
  }
}

TEST(FaultTrace, OptionErrorsNameTheFieldWithoutCheckText) {
  // Fault options come from the user: the error names the field and carries
  // no `check failed` prefix or source location.
  sim::FaultOptions good;
  good.enabled = true;
  good.mtbfSeconds = 3.0;
  good.mttrSeconds = 1.0;
  const auto expectPlain = [](const sim::FaultOptions& o,
                              const std::string& field) {
    SCOPED_TRACE(field);
    try {
      sim::FaultTrace::generate(2, 10.0, 20, o);
      ADD_FAILURE() << field << " accepted";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(field, 0), 0u) << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
    }
  };
  auto o = good;
  o.mtbfSeconds = -1.0;
  expectPlain(o, "mtbfSeconds");
  o = good;
  o.slowdownFactor = 5.0;
  expectPlain(o, "slowdownFactor");
  o = good;
  o.maxRetries = -1;
  expectPlain(o, "maxRetries");
  o = good;
  o.budgetShockProbability = 1.5;
  expectPlain(o, "budgetShockProbability");
}

// ------------------------------------------------------ renewal sampler ---

TEST(RenewalWindows, SortedDisjointClippedAndSeedStable) {
  // The one sampler behind crashes, stragglers and departures: windows are
  // sorted, disjoint, inside [0, horizon), and a pure function of the seed.
  const auto starts = [](const std::vector<sim::FaultInterval>& windows) {
    std::vector<double> out;
    for (const auto& w : windows) out.push_back(w.start);
    return out;
  };
  const auto a = sim::sampleRenewalWindows(2.0, 0.5, 40.0, 17);
  const auto again = sim::sampleRenewalWindows(2.0, 0.5, 40.0, 17);
  EXPECT_EQ(starts(a), starts(again));
  ASSERT_EQ(a.size(), again.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].end, again[i].end);
  EXPECT_NE(starts(a), starts(sim::sampleRenewalWindows(2.0, 0.5, 40.0, 18)));
  ASSERT_GT(a.size(), 3u);  // mean cycle 2.5 s over 40 s
  double prevEnd = 0.0;
  for (const auto& w : a) {
    EXPECT_GT(w.start, prevEnd);  // each window follows an up-time > 0
    EXPECT_GT(w.end, w.start);
    EXPECT_LE(w.end, 40.0);
    prevEnd = w.end;
  }
  EXPECT_LT(a.back().start, 40.0);
  // A shorter horizon keeps the same draws: a prefix, the last clipped.
  const auto cut = sim::sampleRenewalWindows(2.0, 0.5, a[2].end, 17);
  ASSERT_EQ(cut.size(), 3u);
  for (std::size_t i = 0; i < cut.size(); ++i) {
    EXPECT_EQ(cut[i].start, a[i].start);
    EXPECT_EQ(cut[i].end, a[i].end);
  }
  // A non-positive mean or horizon disables the process.
  EXPECT_TRUE(sim::sampleRenewalWindows(0.0, 0.5, 40.0, 17).empty());
  EXPECT_TRUE(sim::sampleRenewalWindows(2.0, 0.0, 40.0, 17).empty());
  EXPECT_TRUE(sim::sampleRenewalWindows(2.0, 0.5, 0.0, 17).empty());
}

TEST(FaultTrace, InjectedPolicyFailures) {
  const sim::FaultTrace trace({{}}, {{}}, 1.0, {}, {7, 2}, 1);
  EXPECT_TRUE(trace.policyFailureInjected(2));
  EXPECT_TRUE(trace.policyFailureInjected(7));
  EXPECT_FALSE(trace.policyFailureInjected(3));
}

// --------------------------------------------------- faulty execution ----

TEST(FaultExecution, InactiveContextMatchesPlainExecution) {
  const Instance inst = randomInstance(77, 10, 3);
  const IntegralSchedule s = solveApprox(inst).schedule;
  const auto plain = sim::executeSchedule(inst, s);
  const auto viaCtx =
      sim::executeSchedule(inst, s, sim::CommModel{}, sim::FaultContext{});
  EXPECT_DOUBLE_EQ(plain.totalEnergy, viaCtx.totalEnergy);
  EXPECT_DOUBLE_EQ(plain.totalAccuracy, viaCtx.totalAccuracy);
  EXPECT_EQ(plain.deadlineMisses, viaCtx.deadlineMisses);
  EXPECT_EQ(viaCtx.interruptions, 0);
}

/// Every observable of two executions agrees bit for bit.
void expectSameExecution(const sim::ExecutionResult& a,
                         const sim::ExecutionResult& b) {
  ASSERT_EQ(a.executions.size(), b.executions.size());
  for (std::size_t j = 0; j < a.executions.size(); ++j) {
    SCOPED_TRACE(j);
    const sim::TaskExecution& x = a.executions[j];
    const sim::TaskExecution& y = b.executions[j];
    EXPECT_EQ(x.machine, y.machine);
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.finish, y.finish);
    EXPECT_EQ(x.flops, y.flops);
    EXPECT_EQ(x.accuracy, y.accuracy);
    EXPECT_EQ(x.executed, y.executed);
    EXPECT_EQ(x.deadlineMet, y.deadlineMet);
    EXPECT_EQ(x.interrupted, y.interrupted);
  }
  EXPECT_EQ(a.machineBusySeconds, b.machineBusySeconds);
  EXPECT_EQ(a.totalEnergy, b.totalEnergy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.totalAccuracy, b.totalAccuracy);
  EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
  EXPECT_EQ(a.interruptions, b.interruptions);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const sim::TraceEvent& x = a.trace.events()[i];
    const sim::TraceEvent& y = b.trace.events()[i];
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.task, y.task);
    EXPECT_EQ(x.flops, y.flops);
    EXPECT_EQ(x.energy, y.energy);
  }
}

/// Crashes, straggler windows and energy cuts that all start long after
/// every schedule in these tests has finished.
struct LateFaults {
  static constexpr double kLate = 1e6;
  sim::FaultTrace trace{{{{kLate, kLate + 1.0}}, {{kLate, kLate + 2.0}},
                         {{kLate + 3.0, kLate + 4.0}}},
                        {{{kLate, 2 * kLate}}, {}, {{kLate, kLate + 5.0}}},
                        0.5,
                        {},
                        {},
                        3};
  sim::FaultContext context() const {
    sim::FaultContext ctx;
    ctx.trace = &trace;
    ctx.machineMap = {2, 0, 1};
    ctx.energyCutSeconds = {kLate, kInf, kLate};
    return ctx;
  }
};

TEST(FaultExecution, NonBindingFaultsMatchPlainExecutionBitForBit) {
  // One timeline walk serves faulty and fault-free runs: faults that never
  // bind leave every start, finish, FLOP count and joule unchanged.
  const LateFaults late;
  for (const std::uint64_t seed : {77u, 78u, 79u}) {
    SCOPED_TRACE(seed);
    const Instance inst = randomInstance(seed, 12, 3);
    const IntegralSchedule s = solveApprox(inst).schedule;
    const auto plain = sim::executeSchedule(inst, s);
    ASSERT_LT(plain.makespan, LateFaults::kLate);
    ASSERT_GT(plain.totalEnergy, 0.0);
    expectSameExecution(
        plain, sim::executeSchedule(inst, s, sim::CommModel{}, late.context()));
  }
}

TEST(FaultExecution, NonBindingFaultsComposeWithCommModel) {
  // Transfers shift starts and add energy the same way with or without a
  // fault context that never binds.
  const LateFaults late;
  const Instance inst = randomInstance(91, 12, 3);
  const IntegralSchedule s = solveApprox(inst).schedule;
  sim::CommModel comm;
  comm.taskBytes.assign(static_cast<std::size_t>(inst.numTasks()), 2e6);
  comm.joulesPerByte = 1e-7;
  comm.bytesPerSecond = 1e8;
  const auto withComm = sim::executeSchedule(inst, s, comm);
  ASSERT_GT(withComm.totalEnergy, sim::executeSchedule(inst, s).totalEnergy);
  expectSameExecution(withComm,
                      sim::executeSchedule(inst, s, comm, late.context()));
}

TEST(FaultExecution, CrashCutsRunningTaskAndDropsRest) {
  const Instance inst = tinyInstance(1e9);
  // Machine 0 (2 TFLOPS, 40 W): task 0 runs [0, 0.3), task 1 runs [0.3, 0.7).
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  const auto trace = oneMachineTrace({{0.5, 2.0}});
  sim::FaultContext ctx;
  ctx.trace = &trace;
  const auto exec = sim::executeSchedule(inst, s, sim::CommModel{}, ctx);
  // Task 0 completed before the crash.
  EXPECT_FALSE(exec.executions[0].interrupted);
  EXPECT_NEAR(exec.executions[0].flops, 0.6, 1e-12);
  // Task 1 cut at t = 0.5 after 0.2 s of work.
  EXPECT_TRUE(exec.executions[1].interrupted);
  EXPECT_TRUE(exec.executions[1].executed);
  EXPECT_NEAR(exec.executions[1].finish, 0.5, 1e-12);
  EXPECT_NEAR(exec.executions[1].flops, 0.4, 1e-12);
  EXPECT_EQ(exec.interruptions, 1);
  // Energy covers only the 0.5 s actually run.
  EXPECT_NEAR(exec.totalEnergy, 0.5 * inst.machine(0).power(), 1e-9);
}

TEST(FaultExecution, CrashBeforeStartLeavesTaskUnexecuted) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  const auto trace = oneMachineTrace({{0.1, 5.0}});
  sim::FaultContext ctx;
  ctx.trace = &trace;
  const auto exec = sim::executeSchedule(inst, s, sim::CommModel{}, ctx);
  // Task 0 cut mid-flight at 0.1; task 1 never starts.
  EXPECT_TRUE(exec.executions[0].interrupted);
  EXPECT_NEAR(exec.executions[0].flops, 0.2, 1e-12);
  EXPECT_TRUE(exec.executions[1].interrupted);
  EXPECT_FALSE(exec.executions[1].executed);
  EXPECT_DOUBLE_EQ(exec.executions[1].flops, 0.0);
  // Floor accuracy is retained for the never-started task.
  EXPECT_DOUBLE_EQ(exec.executions[1].accuracy,
                   inst.task(1).accuracy.value(0.0));
  EXPECT_EQ(exec.interruptions, 2);
}

TEST(FaultExecution, MachineDownAtOffsetExecutesNothing) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  const auto trace = oneMachineTrace({{10.0, 20.0}});
  sim::FaultContext ctx;
  ctx.trace = &trace;
  ctx.timeOffset = 12.0;  // epoch starts inside the downtime window
  const auto exec = sim::executeSchedule(inst, s, sim::CommModel{}, ctx);
  EXPECT_EQ(exec.interruptions, 2);
  EXPECT_DOUBLE_EQ(exec.totalEnergy, 0.0);
  EXPECT_FALSE(exec.executions[0].executed);
  EXPECT_FALSE(exec.executions[1].executed);
}

TEST(FaultExecution, StragglerShrinksFlopsNotOccupancy) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, -1}, {0.4, 0.0});
  // Slowdown covers [0.2, 0.6) at factor 0.5; task runs [0, 0.4).
  const auto trace = oneMachineTrace({}, {{0.2, 0.6}}, 0.5);
  sim::FaultContext ctx;
  ctx.trace = &trace;
  const auto exec = sim::executeSchedule(inst, s, sim::CommModel{}, ctx);
  // Effective seconds: 0.2 + 0.2·0.5 = 0.3 → 0.6 TFLOP at 2 TFLOPS.
  EXPECT_NEAR(exec.executions[0].flops, 0.6, 1e-12);
  EXPECT_FALSE(exec.executions[0].interrupted);
  EXPECT_NEAR(exec.executions[0].finish, 0.4, 1e-12);  // slot unchanged
  // Full slot is billed.
  EXPECT_NEAR(exec.totalEnergy, 0.4 * inst.machine(0).power(), 1e-9);
}

TEST(FaultExecution, MachineMapRedirectsTraceLookups) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  // Trace machine 0 crashes immediately, trace machine 1 never does. With
  // the swapped map, instance machine 0 follows trace machine 1 and
  // survives (instance machine 1 runs nothing here anyway).
  const sim::FaultTrace trace({{{0.0, 9.0}}, {}}, {{}, {}}, 1.0, {}, {}, 2);
  sim::FaultContext ctx;
  ctx.trace = &trace;
  ctx.machineMap = {1, 0};
  const auto exec = sim::executeSchedule(inst, s, sim::CommModel{}, ctx);
  EXPECT_EQ(exec.interruptions, 0);
  EXPECT_TRUE(exec.executions[0].executed);
  EXPECT_TRUE(exec.executions[1].executed);
}

}  // namespace
}  // namespace dsct
