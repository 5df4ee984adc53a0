#include "sched/types.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace dsct {

Instance::Instance(std::vector<Task> tasks, std::vector<Machine> machines,
                   double energyBudget)
    : tasks_(std::move(tasks)),
      machines_(std::move(machines)),
      energyBudget_(energyBudget) {
  DSCT_CHECK_MSG(!machines_.empty(), "instance needs at least one machine");
  DSCT_CHECK_MSG(std::isfinite(energyBudget_),
                 "energy budget must be finite, got " << energyBudget_);
  DSCT_CHECK_MSG(energyBudget_ >= 0.0, "negative energy budget");
  for (const Machine& m : machines_) {
    DSCT_CHECK_MSG(m.speed > 0.0, "machine speed must be positive");
    DSCT_CHECK_MSG(m.efficiency > 0.0, "machine efficiency must be positive");
  }
  for (const Task& t : tasks_) {
    DSCT_CHECK_MSG(t.deadline >= 0.0, "negative deadline");
  }
  std::stable_sort(tasks_.begin(), tasks_.end(),
                   [](const Task& a, const Task& b) {
                     return a.deadline < b.deadline;
                   });
}

double Instance::maxDeadline() const {
  return tasks_.empty() ? 0.0 : tasks_.back().deadline;
}

double Instance::totalFmax() const {
  return std::accumulate(tasks_.begin(), tasks_.end(), 0.0,
                         [](double acc, const Task& t) { return acc + t.fmax(); });
}

double Instance::totalSpeed() const {
  return std::accumulate(
      machines_.begin(), machines_.end(), 0.0,
      [](double acc, const Machine& m) { return acc + m.speed; });
}

double Instance::totalPower() const {
  return std::accumulate(
      machines_.begin(), machines_.end(), 0.0,
      [](double acc, const Machine& m) { return acc + m.power(); });
}

double Instance::totalAmax() const {
  return std::accumulate(tasks_.begin(), tasks_.end(), 0.0,
                         [](double acc, const Task& t) { return acc + t.amax(); });
}

double Instance::totalAmin() const {
  return std::accumulate(tasks_.begin(), tasks_.end(), 0.0,
                         [](double acc, const Task& t) { return acc + t.amin(); });
}

std::vector<int> Instance::machinesByEfficiencyDesc() const {
  std::vector<int> order(machines_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return machines_[static_cast<std::size_t>(a)].efficiency >
           machines_[static_cast<std::size_t>(b)].efficiency;
  });
  return order;
}

}  // namespace dsct
