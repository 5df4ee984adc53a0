// Solution representations: fractional (task split across machines, the
// DSCT-EA-FR relaxation) and integral (one machine per task, DSCT-EA).
#pragma once

#include <vector>

#include "sched/types.h"

namespace dsct {

/// Matrix of processing times t_jr (seconds of task j on machine r).
class FractionalSchedule {
 public:
  FractionalSchedule(int numTasks, int numMachines);

  int numTasks() const { return n_; }
  int numMachines() const { return m_; }

  double at(int j, int r) const { return t_[index(j, r)]; }
  void set(int j, int r, double seconds);
  void add(int j, int r, double seconds) { set(j, r, at(j, r) + seconds); }

  /// f_j = Σ_r s_r · t_jr (TFLOP dedicated to task j).
  double flops(const Instance& inst, int j) const;
  double taskAccuracy(const Instance& inst, int j) const;
  /// Σ_j a_j(f_j) — the objective (maximisation form).
  double totalAccuracy(const Instance& inst) const;
  /// Σ_j (1 − a_j(f_j)) — the paper's minimisation objective (1a).
  double totalError(const Instance& inst) const;
  /// Σ_jr t_jr · P_r (Joules).
  double energy(const Instance& inst) const;
  /// Σ_j t_jr (seconds of work on machine r).
  double machineLoad(int r) const;
  std::vector<double> machineLoads() const;
  /// Σ_{i <= j} t_ir — prefix completion time of task j's slot on machine r.
  double prefixTime(int j, int r) const;

 private:
  std::size_t index(int j, int r) const;

  int n_;
  int m_;
  std::vector<double> t_;
};

/// One entry of a machine's timeline.
struct ScheduledTask {
  int task = -1;
  double start = 0.0;
  double duration = 0.0;

  double end() const { return start + duration; }
};

/// Integral schedule: each task runs on at most one machine; per-machine
/// timelines are in task (deadline) order, back to back from time 0.
class IntegralSchedule {
 public:
  /// machineOf[j] in [-1, m); duration[j] >= -kDurationSlack, clamped to
  /// >= 0 (ignored when unscheduled). Start times are derived by stacking
  /// tasks per machine in task order.
  static constexpr double kDurationSlack = 1e-9;
  static IntegralSchedule build(const Instance& inst,
                                std::vector<int> machineOf,
                                std::vector<double> duration);

  int numTasks() const { return static_cast<int>(machineOf_.size()); }
  int machineOf(int j) const { return machineOf_[static_cast<std::size_t>(j)]; }
  double duration(int j) const { return duration_[static_cast<std::size_t>(j)]; }
  double start(int j) const { return start_[static_cast<std::size_t>(j)]; }

  const std::vector<ScheduledTask>& timeline(int r) const;

  double flops(const Instance& inst, int j) const;
  double taskAccuracy(const Instance& inst, int j) const;
  double totalAccuracy(const Instance& inst) const;
  double averageAccuracy(const Instance& inst) const;
  double totalError(const Instance& inst) const;
  double energy(const Instance& inst) const;
  double machineLoad(int r) const;
  std::vector<double> machineLoads() const;
  int numScheduled() const;

  /// View as a fractional schedule (for shared validation/metrics).
  FractionalSchedule toFractional(const Instance& inst) const;

 private:
  std::vector<int> machineOf_;
  std::vector<double> duration_;
  std::vector<double> start_;
  std::vector<std::vector<ScheduledTask>> timelines_;
};

}  // namespace dsct
