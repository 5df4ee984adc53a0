#include "sched/schedule.h"

#include <cmath>
#include <numeric>

#include "util/check.h"

namespace dsct {

FractionalSchedule::FractionalSchedule(int numTasks, int numMachines)
    : n_(numTasks), m_(numMachines),
      t_(static_cast<std::size_t>(numTasks) * static_cast<std::size_t>(numMachines),
         0.0) {
  DSCT_CHECK(numTasks >= 0);
  DSCT_CHECK(numMachines > 0);
}

std::size_t FractionalSchedule::index(int j, int r) const {
  DSCT_DCHECK(j >= 0 && j < n_);
  DSCT_DCHECK(r >= 0 && r < m_);
  return static_cast<std::size_t>(j) * static_cast<std::size_t>(m_) +
         static_cast<std::size_t>(r);
}

void FractionalSchedule::set(int j, int r, double seconds) {
  DSCT_CHECK_MSG(seconds >= -1e-9, "negative processing time " << seconds);
  t_[index(j, r)] = std::max(0.0, seconds);
}

double FractionalSchedule::flops(const Instance& inst, int j) const {
  double f = 0.0;
  for (int r = 0; r < m_; ++r) f += inst.machine(r).speed * at(j, r);
  return f;
}

double FractionalSchedule::taskAccuracy(const Instance& inst, int j) const {
  return inst.task(j).accuracy.value(flops(inst, j));
}

double FractionalSchedule::totalAccuracy(const Instance& inst) const {
  double total = 0.0;
  for (int j = 0; j < n_; ++j) total += taskAccuracy(inst, j);
  return total;
}

double FractionalSchedule::totalError(const Instance& inst) const {
  return static_cast<double>(n_) - totalAccuracy(inst);
}

double FractionalSchedule::energy(const Instance& inst) const {
  double joules = 0.0;
  for (int r = 0; r < m_; ++r) {
    joules += machineLoad(r) * inst.machine(r).power();
  }
  return joules;
}

double FractionalSchedule::machineLoad(int r) const {
  double load = 0.0;
  for (int j = 0; j < n_; ++j) load += at(j, r);
  return load;
}

std::vector<double> FractionalSchedule::machineLoads() const {
  std::vector<double> loads(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r) loads[static_cast<std::size_t>(r)] = machineLoad(r);
  return loads;
}

double FractionalSchedule::prefixTime(int j, int r) const {
  double prefix = 0.0;
  for (int i = 0; i <= j; ++i) prefix += at(i, r);
  return prefix;
}

IntegralSchedule IntegralSchedule::build(const Instance& inst,
                                         std::vector<int> machineOf,
                                         std::vector<double> duration) {
  const int n = inst.numTasks();
  const int m = inst.numMachines();
  DSCT_CHECK(static_cast<int>(machineOf.size()) == n);
  DSCT_CHECK(static_cast<int>(duration.size()) == n);
  IntegralSchedule s;
  s.machineOf_ = std::move(machineOf);
  s.duration_ = std::move(duration);
  s.start_.assign(static_cast<std::size_t>(n), 0.0);
  s.timelines_.assign(static_cast<std::size_t>(m), {});
  std::vector<double> clock(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n; ++j) {
    const int r = s.machineOf_[static_cast<std::size_t>(j)];
    if (r < 0) {
      s.duration_[static_cast<std::size_t>(j)] = 0.0;
      continue;
    }
    DSCT_CHECK_MSG(r < m, "machine index out of range");
    const double dur = s.duration_[static_cast<std::size_t>(j)];
    DSCT_CHECK_MSG(dur >= -kDurationSlack, "negative duration");
    const double start = clock[static_cast<std::size_t>(r)];
    s.start_[static_cast<std::size_t>(j)] = start;
    s.timelines_[static_cast<std::size_t>(r)].push_back(
        {j, start, std::max(0.0, dur)});
    clock[static_cast<std::size_t>(r)] += std::max(0.0, dur);
  }
  return s;
}

const std::vector<ScheduledTask>& IntegralSchedule::timeline(int r) const {
  DSCT_CHECK(r >= 0 && r < static_cast<int>(timelines_.size()));
  return timelines_[static_cast<std::size_t>(r)];
}

double IntegralSchedule::flops(const Instance& inst, int j) const {
  const int r = machineOf(j);
  if (r < 0) return 0.0;
  return inst.machine(r).speed * duration(j);
}

double IntegralSchedule::taskAccuracy(const Instance& inst, int j) const {
  return inst.task(j).accuracy.value(flops(inst, j));
}

double IntegralSchedule::totalAccuracy(const Instance& inst) const {
  double total = 0.0;
  for (int j = 0; j < numTasks(); ++j) total += taskAccuracy(inst, j);
  return total;
}

double IntegralSchedule::averageAccuracy(const Instance& inst) const {
  if (numTasks() == 0) return 0.0;
  return totalAccuracy(inst) / static_cast<double>(numTasks());
}

double IntegralSchedule::totalError(const Instance& inst) const {
  return static_cast<double>(numTasks()) - totalAccuracy(inst);
}

double IntegralSchedule::energy(const Instance& inst) const {
  double joules = 0.0;
  for (int r = 0; r < inst.numMachines(); ++r) {
    joules += machineLoad(r) * inst.machine(r).power();
  }
  return joules;
}

double IntegralSchedule::machineLoad(int r) const {
  const auto& tl = timeline(r);
  return std::accumulate(tl.begin(), tl.end(), 0.0,
                         [](double acc, const ScheduledTask& e) {
                           return acc + e.duration;
                         });
}

std::vector<double> IntegralSchedule::machineLoads() const {
  std::vector<double> loads(timelines_.size());
  for (std::size_t r = 0; r < timelines_.size(); ++r) {
    loads[r] = machineLoad(static_cast<int>(r));
  }
  return loads;
}

int IntegralSchedule::numScheduled() const {
  int count = 0;
  for (int j = 0; j < numTasks(); ++j) {
    if (machineOf(j) >= 0 && duration(j) > 0.0) ++count;
  }
  return count;
}

FractionalSchedule IntegralSchedule::toFractional(const Instance& inst) const {
  FractionalSchedule f(inst.numTasks(), inst.numMachines());
  for (int j = 0; j < numTasks(); ++j) {
    const int r = machineOf(j);
    if (r >= 0) f.set(j, r, duration(j));
  }
  return f;
}

}  // namespace dsct
