#include "sim/cluster.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/check.h"

namespace dsct::sim {

namespace {

/// Pending simulator event; min-heap by (time, machine, sequence).
struct PendingEvent {
  double time;
  int machine;
  long sequence;
  EventKind kind;
  int task;
  double flops;
  bool interrupted = false;
};

struct Later {
  bool operator()(const PendingEvent& a, const PendingEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.machine != b.machine) return a.machine > b.machine;
    return a.sequence > b.sequence;
  }
};

}  // namespace

double FaultContext::cutSeconds(int machine) const {
  if (energyCutSeconds.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  DSCT_CHECK(machine >= 0 &&
             machine < static_cast<int>(energyCutSeconds.size()));
  return energyCutSeconds[static_cast<std::size_t>(machine)];
}

double CommModel::transferSeconds(int task) const {
  if (taskBytes.empty()) return 0.0;
  DSCT_CHECK(task >= 0 && task < static_cast<int>(taskBytes.size()));
  DSCT_CHECK(bytesPerSecond > 0.0);
  return taskBytes[static_cast<std::size_t>(task)] / bytesPerSecond;
}

double CommModel::transferJoules(int task) const {
  if (taskBytes.empty()) return 0.0;
  DSCT_CHECK(task >= 0 && task < static_cast<int>(taskBytes.size()));
  return taskBytes[static_cast<std::size_t>(task)] * joulesPerByte;
}

ExecutionResult executeSchedule(const Instance& inst,
                                const IntegralSchedule& schedule,
                                const CommModel& comm,
                                const FaultContext& faults) {
  DSCT_CHECK(schedule.numTasks() == inst.numTasks());
  DSCT_CHECK(comm.taskBytes.empty() ||
             static_cast<int>(comm.taskBytes.size()) == inst.numTasks());
  ExecutionResult result;
  result.executions.assign(static_cast<std::size_t>(inst.numTasks()), {});
  result.machineBusySeconds.assign(
      static_cast<std::size_t>(inst.numMachines()), 0.0);

  // Seed per-task records (dropped tasks keep floor accuracy).
  for (int j = 0; j < inst.numTasks(); ++j) {
    TaskExecution& exec = result.executions[static_cast<std::size_t>(j)];
    exec.task = j;
    exec.accuracy = inst.task(j).accuracy.value(0.0);
  }

  std::priority_queue<PendingEvent, std::vector<PendingEvent>, Later> queue;
  long sequence = 0;
  std::vector<double> transferEnergyAtStart(
      static_cast<std::size_t>(inst.numTasks()), 0.0);
  const bool traceActive = faults.traceActive();
  for (int r = 0; r < inst.numMachines(); ++r) {
    const int tr = faults.traceMachine(r);
    // First crash at or after the epoch start, in local time; a machine
    // already down at the offset interrupts everything at local 0, and
    // everything from the crash to the end of the timeline is lost (the
    // machine rejoins only at the next epoch's replan). Battery exhaustion
    // (FaultContext::energyCutSeconds) cuts with identical semantics at
    // the earlier of the two instants. Without faults both are +infinity
    // and the walk below only re-derives starts.
    const double traceCrash =
        traceActive ? faults.trace->nextCrashAt(tr, faults.timeOffset) -
                          faults.timeOffset
                    : std::numeric_limits<double>::infinity();
    const double crashLocal = std::min(traceCrash, faults.cutSeconds(r));
    // Each task's input transfer is serialised on the machine's ingest link
    // before execution.
    double clock = 0.0;
    for (const ScheduledTask& e : schedule.timeline(r)) {
      // A zero-work slot never fetches its input: schedulers may park a
      // starved task (e.g. one whose transfer exceeds its deadline) in a
      // zero-duration slot, and paying the transfer for it would serialise
      // dead bytes in front of real work.
      const double transfer =
          e.duration > 0.0 ? comm.transferSeconds(e.task) : 0.0;
      const double execStart = clock + transfer;
      const double execEnd = execStart + e.duration;
      clock = execEnd;
      if (execStart >= crashLocal) {
        TaskExecution& exec =
            result.executions[static_cast<std::size_t>(e.task)];
        exec.machine = r;
        exec.interrupted = true;
        ++result.interruptions;
        continue;
      }
      const bool cut = execEnd > crashLocal;
      const double finish = cut ? crashLocal : execEnd;
      // Straggler windows shrink delivered FLOPs, not the occupied slot.
      // The loss is subtracted from the scheduled duration rather than
      // re-deriving it from finish - execStart, so a task untouched by any
      // fault keeps its scheduled FLOPs bit for bit (timeline durations are
      // already clamped to >= 0).
      const double occupied = cut ? finish - execStart : e.duration;
      const double lost =
          traceActive
              ? faults.trace->slowdownLossSeconds(
                    tr, faults.timeOffset + execStart,
                    faults.timeOffset + finish)
              : 0.0;
      const double flops =
          std::max(0.0, lost > 0.0 ? occupied - lost : occupied) *
          inst.machine(r).speed;
      transferEnergyAtStart[static_cast<std::size_t>(e.task)] =
          e.duration > 0.0 ? comm.transferJoules(e.task) : 0.0;
      queue.push(
          {execStart, r, sequence++, EventKind::kTaskStart, e.task, 0.0});
      queue.push(
          {finish, r, sequence++, EventKind::kTaskFinish, e.task, flops,
           cut});
    }
    const double drained = std::min(std::max(crashLocal, 0.0), clock);
    queue.push({drained, r, sequence++, EventKind::kMachineIdle, -1, 0.0});
  }

  double energy = 0.0;
  while (!queue.empty()) {
    const PendingEvent e = queue.top();
    queue.pop();
    switch (e.kind) {
      case EventKind::kTaskStart: {
        TaskExecution& exec =
            result.executions[static_cast<std::size_t>(e.task)];
        exec.machine = e.machine;
        exec.start = e.time;
        energy += transferEnergyAtStart[static_cast<std::size_t>(e.task)];
        result.trace.append(
            {e.time, EventKind::kTaskStart, e.task, e.machine, 0.0, energy});
        break;
      }
      case EventKind::kTaskFinish: {
        TaskExecution& exec =
            result.executions[static_cast<std::size_t>(e.task)];
        exec.finish = e.time;
        exec.flops = e.flops;
        exec.executed = true;
        if (e.interrupted) {
          exec.interrupted = true;
          ++result.interruptions;
        }
        exec.accuracy = inst.task(e.task).accuracy.value(e.flops);
        const double busy = exec.finish - exec.start;
        result.machineBusySeconds[static_cast<std::size_t>(e.machine)] += busy;
        energy += busy * inst.machine(e.machine).power();
        result.makespan = std::max(result.makespan, e.time);
        result.trace.append({e.time, EventKind::kTaskFinish, e.task, e.machine,
                             e.flops, energy});
        if (e.time > inst.task(e.task).deadline + 1e-9) {
          exec.deadlineMet = false;
          ++result.deadlineMisses;
          result.trace.append({e.time, EventKind::kDeadlineMiss, e.task,
                               e.machine, e.flops, energy});
        }
        break;
      }
      case EventKind::kMachineIdle:
        result.trace.append(
            {e.time, EventKind::kMachineIdle, -1, e.machine, 0.0, energy});
        break;
      case EventKind::kDeadlineMiss:
        break;  // never enqueued
    }
  }

  result.totalEnergy = energy;
  for (const TaskExecution& exec : result.executions) {
    result.totalAccuracy += exec.accuracy;
  }
  return result;
}

Instance commAwareInstance(const Instance& inst, const CommModel& comm) {
  double commEnergy = 0.0;
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(inst.numTasks()));
  for (int j = 0; j < inst.numTasks(); ++j) {
    commEnergy += comm.transferJoules(j);
    Task task = inst.task(j);
    const double transfer = comm.transferSeconds(j);
    if (transfer >= task.deadline) {
      // The input cannot arrive before the deadline. Instance rejects
      // non-positive deadlines, so keep a tiny positive one, and flatten the
      // accuracy curve to its floor: with zero marginal gain everywhere no
      // scheduler has a reason to assign the task any work.
      task.deadline = 1e-9;
      const double floor = task.accuracy.value(0.0);
      task.accuracy = PiecewiseLinearAccuracy::fromPoints(
          {0.0, task.accuracy.fmax()}, {floor, floor});
    } else {
      task.deadline -= transfer;
    }
    tasks.push_back(std::move(task));
  }
  const double budget = std::max(0.0, inst.energyBudget() - commEnergy);
  return Instance(std::move(tasks), inst.machines(), budget);
}

}  // namespace dsct::sim
