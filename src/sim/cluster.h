// Discrete-event execution of an integral schedule on a simulated cluster.
//
// This is the execution-level ground truth for the scheduling algorithms:
// machines process their timelines task by task, energy is integrated from
// per-machine power draw, and deadline violations are observed rather than
// assumed. Tests assert that simulated energy/accuracy match the analytic
// schedule metrics.
#pragma once

#include <vector>

#include "sched/schedule.h"
#include "sched/types.h"
#include "sim/faults.h"
#include "sim/trace.h"

namespace dsct::sim {

struct TaskExecution {
  int task = -1;
  int machine = -1;
  double start = 0.0;
  double finish = 0.0;
  double flops = 0.0;     ///< TFLOP actually executed
  double accuracy = 0.0;  ///< a_j(flops)
  bool executed = false;  ///< false for dropped tasks (flops == 0, a_j(0))
  bool deadlineMet = true;
  /// Cut short (or never started) because its machine crashed mid-epoch.
  /// `flops` records the work completed before the crash.
  bool interrupted = false;
};

struct ExecutionResult {
  Trace trace;
  std::vector<TaskExecution> executions;  ///< indexed by task
  std::vector<double> machineBusySeconds;
  double totalEnergy = 0.0;  ///< J
  double makespan = 0.0;     ///< latest finish time
  double totalAccuracy = 0.0;
  int deadlineMisses = 0;
  int interruptions = 0;  ///< tasks interrupted by machine crashes
};

/// Communication model (paper Section 7, future work #2): each task's input
/// must be transferred to its machine before execution. Transfers are
/// serialised on the target machine (they share its ingest link), consume
/// `joulesPerByte` and delay execution by bytes/bandwidth — so a schedule
/// that was feasible compute-wise can miss deadlines or blow the budget
/// once communication is accounted; the simulator observes both.
struct CommModel {
  /// Input size per task (bytes); empty means all zero (no communication).
  std::vector<double> taskBytes;
  double joulesPerByte = 0.0;
  double bytesPerSecond = 1e12;

  double transferSeconds(int task) const;
  double transferJoules(int task) const;
};

/// Binds a FaultTrace (absolute simulation time) to one executeSchedule call
/// (local time starting at 0): `timeOffset` is the absolute time of local 0
/// and `machineMap[r]` names the trace machine behind the instance's machine
/// r (empty = identity). A default context (no enabled trace, no energy
/// cuts) crashes and slows nothing, so execution matches the pre-fault
/// simulator bit for bit.
///
/// `energyCutSeconds` adds battery exhaustion (DESIGN.md §15): machine r
/// stops delivering work at local time energyCutSeconds[r] — the instant its
/// energy store runs dry — with the same cut semantics as a crash (partial
/// FLOPs, `interrupted` flag, rest of the timeline abandoned). Empty means
/// no energy limits; entries of +infinity leave that machine uncut.
struct FaultContext {
  const FaultTrace* trace = nullptr;
  double timeOffset = 0.0;
  std::vector<int> machineMap;
  std::vector<double> energyCutSeconds;  ///< local seconds, per machine

  bool traceActive() const { return trace != nullptr && trace->enabled(); }
  int traceMachine(int machine) const {
    return machineMap.empty() ? machine
                              : machineMap[static_cast<std::size_t>(machine)];
  }
  /// Battery cut-off for `machine` in local time; +infinity when unlimited.
  double cutSeconds(int machine) const;
};

/// Execute `schedule` on the instance's machines.
///
/// With `comm`, energy includes transfer energy and starts shift by the
/// (serialised) transfer times. Under fault injection (`faults`), a machine
/// that crashes mid-epoch — or runs out of stored energy
/// (`energyCutSeconds`) — cuts its running task at that instant (partial
/// FLOPs and energy are recorded, the task is flagged `interrupted`) and
/// abandons the rest of its timeline; straggler windows scale delivered
/// FLOPs by the trace's slowdown factor while the machine still occupies —
/// and is billed for — its full slot.
ExecutionResult executeSchedule(const Instance& inst,
                                const IntegralSchedule& schedule,
                                const CommModel& comm = {},
                                const FaultContext& faults = {});

/// Conservative comm-aware instance transform: shrinks the budget by every
/// task's transfer energy and each deadline by its own transfer time, so a
/// schedule computed on the transformed instance stays feasible under
/// communication (per-machine transfer queueing is still only visible in
/// the simulator). Tasks whose deadline would go non-positive keep a tiny
/// positive deadline (they will simply receive no work).
Instance commAwareInstance(const Instance& inst, const CommModel& comm);

}  // namespace dsct::sim
