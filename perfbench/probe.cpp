#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <sstream>

#include "core/solver_registry.h"
#include "sched/validator.h"

namespace perfbench {

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

void SolveProbe::begin(bool sharded, bool validate) {
  const std::lock_guard<std::mutex> lock(mutex_);
  calls_.clear();
  sharded_ = sharded;
  validate_ = validate;
  epoch_ = -1;
  epochPrice_ = 0.0;
  epochHasTopUp_ = false;
  epochTaskNames_.clear();
}

std::vector<SolveCall> SolveProbe::end() {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Cells finish in thread-timing order; sort so that every sum over the
  // calls runs in the same order on each pass.
  std::sort(calls_.begin(), calls_.end(),
            [](const SolveCall& a, const SolveCall& b) {
              const bool aTopUp = a.price < 0.0;
              const bool bTopUp = b.price < 0.0;
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              if (aTopUp != bTopUp) return bTopUp;
              return a.cellKey < b.cellKey;
            });
  return std::move(calls_);
}

void SolveProbe::record(const dsct::Instance& inst,
                        const dsct::SolveContext& context,
                        const dsct::SolveOutcome& outcome, bool hasGuarantee,
                        double start, double end) {
  SolveCall call;
  call.start = start;
  call.end = end;
  call.checkEnd = end;
  call.price = context.energyPrice;
  call.tasks = inst.numTasks();
  call.machines = inst.numMachines();
  call.budget = inst.energyBudget();
  call.energy = outcome.energy;
  call.accuracy = outcome.totalAccuracy;
  call.upperBound = outcome.upperBound;
  call.guaranteeG = outcome.guaranteeG;
  call.hasGuarantee = hasGuarantee;
  call.counters = outcome.counters;

  std::ostringstream failure;
  if (!outcome.schedule.has_value()) {
    failure << "no integral schedule";
  } else if (outcome.energy > call.budget * (1.0 + 1e-9) + 1e-6) {
    failure << "energy " << outcome.energy << " J over budget " << call.budget
            << " J";
  } else if (hasGuarantee &&
             outcome.totalAccuracy <
                 outcome.upperBound - outcome.guaranteeG -
                     1e-6 * std::max(1.0, std::abs(outcome.upperBound))) {
    failure << "SOL " << outcome.totalAccuracy << " < UB "
            << outcome.upperBound << " - G " << outcome.guaranteeG;
  } else if (validate_) {
    const dsct::ValidationReport report =
        dsct::validate(inst, *outcome.schedule);
    if (!report.feasible) failure << "validator: " << report.summary();
    call.checkEnd = nowSeconds();
  }
  call.failure = failure.str();

  std::vector<std::uint64_t> names;
  if (sharded_) {
    names.reserve(static_cast<std::size_t>(inst.numTasks()));
    std::uint64_t key = 1469598103934665603ULL;
    for (const dsct::Task& task : inst.tasks()) {
      const std::uint64_t h = std::hash<std::string>{}(task.name);
      names.push_back(h);
      key = (key ^ h) * 1099511628211ULL;
    }
    call.cellKey = key;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  if (!sharded_) {
    call.epoch = ++epoch_;
  } else if (call.price >= 0.0) {
    bool opens = epoch_ < 0 || epochHasTopUp_ || call.price != epochPrice_;
    for (std::size_t i = 0; !opens && i < names.size(); ++i) {
      opens = epochTaskNames_.count(names[i]) != 0;
    }
    if (opens) {
      ++epoch_;
      epochPrice_ = call.price;
      epochHasTopUp_ = false;
      epochTaskNames_.clear();
    }
    epochTaskNames_.insert(names.begin(), names.end());
    call.epoch = epoch_;
  } else {
    if (epoch_ < 0) ++epoch_;
    epochHasTopUp_ = true;
    call.epoch = epoch_;
  }
  calls_.push_back(std::move(call));
}

std::string registerTimedSolver(const std::string& policy, SolveProbe& probe) {
  dsct::SolverRegistry& registry = dsct::SolverRegistry::instance();
  const dsct::Solver& inner = registry.resolve(policy);
  const std::string name = "timed-" + inner.name();
  if (registry.find(name) != nullptr) return name;
  const bool hasGuarantee = inner.name() == "approx";
  registry.add(dsct::makeSolver(
      name, inner.displayName(), inner.capabilities(),
      [&inner, &probe, hasGuarantee](const dsct::Instance& inst,
                                     const dsct::SolveContext& context) {
        const double start = nowSeconds();
        dsct::SolveOutcome outcome = inner.solve(inst, context);
        const double end = nowSeconds();
        probe.record(inst, context, outcome, hasGuarantee, start, end);
        return outcome;
      }));
  return name;
}

}  // namespace perfbench
