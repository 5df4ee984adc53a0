#include "shard/coordinator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "sched/energy_price.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace dsct::shard {

namespace {

/// Convergence slack as a fraction of B: the price loop stops once the
/// funded demand is within this share of B below the budget (demand never
/// exceeds B at the accepted price).
constexpr double kBudgetTolerance = 0.01;

void addCounters(FrOptCounters& into, const FrOptCounters& from) {
  into.evaluations += from.evaluations;
  into.cacheHits += from.cacheHits;
  into.scheduleSolves += from.scheduleSolves;
  into.directionLpSolves += from.directionLpSolves;
  into.outerRounds += from.outerRounds;
  into.pairMoves += from.pairMoves;
  into.directionSteps += from.directionSteps;
  into.expandSeconds += from.expandSeconds;
  into.refineSeconds += from.refineSeconds;
  into.pairSeconds += from.pairSeconds;
  into.directionSeconds += from.directionSeconds;
  into.totalSeconds += from.totalSeconds;
  into.slackQueries += from.slackQueries;
  into.slackHits += from.slackHits;
  into.slackRebuilds += from.slackRebuilds;
  into.slackInvalidations += from.slackInvalidations;
}

/// One cell's static slice of the global instance.
struct Cell {
  std::vector<int> machines;  ///< global machine indices, ascending
  std::vector<int> tasks;     ///< global task indices, ascending (deadline)
  std::vector<Task> taskSlice;
  std::vector<Machine> machineSlice;
};

Instance cellInstance(const Cell& cell, double budget) {
  // Tasks enter in global deadline order, so the ctor's stable re-sort
  // preserves the index mapping cell.tasks[local] == global.
  return Instance(cell.taskSlice, cell.machineSlice, std::max(0.0, budget));
}

}  // namespace

ShardCoordinator::ShardCoordinator(const Solver& inner, ShardOptions options)
    : inner_(inner), options_(options) {}

SolveOutcome ShardCoordinator::solve(const Instance& inst,
                                     const SolveContext& context) {
  stats_ = ShardStats{};
  const int k = std::clamp(options_.cells, 1, std::max(1, inst.numMachines()));
  stats_.cells = k;
  if (k <= 1 || inst.numTasks() == 0) {
    // Single cell: delegate with the context untouched — bit-identical to
    // solving without a coordinator.
    SolveOutcome outcome = inner_.solve(inst, context);
    stats_.converged = true;
    stats_.budgetAssigned = inst.energyBudget();
    stats_.budgetUsed = outcome.energy;
    if (outcome.cancelled()) stats_.cancelledCells = 1;
    return outcome;
  }

  // --- partition and slice ---
  PartitionOptions popt;
  popt.cells = k;
  popt.seed = options_.seed;
  const Partition part = partitionInstance(inst, popt);
  const auto machinesOf = part.machinesOf();
  const auto tasksOf = part.tasksOf();
  std::vector<Cell> cells(static_cast<std::size_t>(k));
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].machines = machinesOf[c];
    cells[c].tasks = tasksOf[c];
    cells[c].machineSlice.reserve(cells[c].machines.size());
    for (const int r : cells[c].machines) {
      cells[c].machineSlice.push_back(inst.machine(r));
    }
    cells[c].taskSlice.reserve(cells[c].tasks.size());
    for (const int j : cells[c].tasks) {
      cells[c].taskSlice.push_back(inst.task(j));
    }
  }

  // --- outer price loop: bisection on λ over the summed demand curves ---
  const double budget = inst.energyBudget();
  std::vector<PricedDemandCurve> curves;
  curves.reserve(cells.size());
  for (const Cell& cell : cells) {
    curves.emplace_back(cellInstance(cell, budget));
  }
  const auto demandAt = [&](double lambda) {
    double d = 0.0;
    for (const PricedDemandCurve& curve : curves) d += curve.demandAt(lambda);
    return d;
  };
  double lambda = 0.0;
  double demand = demandAt(0.0);
  ++stats_.priceIterations;
  if (demand <= budget) {
    // Generous budget: everything is funded at price 0.
    stats_.converged = true;
  } else {
    // Invariant: demand(lo) > B >= demand(hi). hi starts at the largest ψ,
    // where demand is 0. D(λ) only changes at segment-ψ breakpoints, so
    // every probe snaps down to the largest breakpoint in (lo, mid] — a
    // half with no breakpoint is constant and moves for free, and once the
    // bracket holds no interior breakpoint, hi IS the critical price: the
    // remaining slack is a structural step gap for the top-up pass to
    // redistribute, not a convergence failure.
    double lo = 0.0;
    double hi = 0.0;
    for (const PricedDemandCurve& curve : curves) {
      hi = std::max(hi, curve.maxPsi());
    }
    double hiDemand = demandAt(hi);
    const auto breakpointAtMost = [&](double price) {
      double bp = 0.0;
      for (const PricedDemandCurve& curve : curves) {
        bp = std::max(bp, curve.largestPsiAtMost(price));
      }
      return bp;
    };
    // Largest breakpoint strictly below `price` (0 when none).
    const auto breakpointBelow = [&](double price) {
      return breakpointAtMost(
          std::nextafter(price, -std::numeric_limits<double>::infinity()));
    };
    double loDemand = demand;
    int sameSide = 0;  // +1: lo moved last, -1: hi moved last
    while (stats_.priceIterations < kMaxPriceIterations) {
      if (breakpointBelow(hi) <= lo) {
        // No breakpoint left inside (lo, hi): hi is exactly critical.
        stats_.converged = true;
        break;
      }
      // Probe by secant toward D = B — the curve is near-linear at scale,
      // so interpolation lands in the tolerance band in a handful of
      // evaluations where blind halving needs log2 of the price range. The
      // Illinois-style guard (midpoint after two same-side moves) keeps the
      // worst case at bisection speed.
      double guess = 0.5 * (lo + hi);
      if (std::abs(sameSide) < 2 && loDemand > hiDemand) {
        const double t = (loDemand - budget) / (loDemand - hiDemand);
        const double secant = lo + t * (hi - lo);
        if (secant > lo && secant < hi) guess = secant;
      }
      if (guess <= lo || guess >= hi) break;  // bracket collapsed to one step
      const double probe = breakpointAtMost(guess);
      if (probe <= lo) {
        // No breakpoint in (lo, guess]: D is flat there, still above B.
        lo = guess;
        continue;
      }
      const double d = demandAt(probe);
      ++stats_.priceIterations;
      if (d <= budget) {
        hi = probe;
        hiDemand = d;
        sameSide = sameSide < 0 ? sameSide - 1 : -1;
        // Close enough: the funded demand is within tolerance below B.
        if (budget - d <= kBudgetTolerance * budget) {
          stats_.converged = true;
          break;
        }
      } else {
        lo = probe;
        loDemand = d;
        sameSide = sameSide > 0 ? sameSide + 1 : 1;
      }
    }
    lambda = hi;
    demand = hiDemand;
  }
  stats_.finalPrice = lambda;

  // --- per-cell budgets: demand shares, rescaled to fit B ---
  std::vector<double> cellBudget(cells.size(), 0.0);
  double assigned = 0.0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cellBudget[c] = curves[c].demandAt(lambda);
    assigned += cellBudget[c];
  }
  if (assigned > budget && assigned > 0.0) {
    const double scale = budget / assigned;
    for (double& b : cellBudget) b *= scale;
    assigned = budget;
  }
  stats_.budgetAssigned = assigned;

  // --- per-cell cross-epoch LP warm-start slots ---
  if (cellLpWarm_.size() != cells.size()) {
    cellLpWarm_.assign(cells.size(), LpWarmStartSlot{});
  }

  // --- per-cell availability slices ---
  std::vector<AvailabilityHints> cellHints;
  if (context.availability != nullptr &&
      !context.availability->machineEnergyCaps.empty()) {
    const std::vector<double>& caps = context.availability->machineEnergyCaps;
    cellHints.resize(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      cellHints[c].machineEnergyCaps.reserve(cells[c].machines.size());
      for (const int r : cells[c].machines) {
        cellHints[c].machineEnergyCaps.push_back(
            static_cast<std::size_t>(r) < caps.size()
                ? caps[static_cast<std::size_t>(r)]
                : 0.0);
      }
    }
  }

  // --- parallel cell solves ---
  // The pool is forwarded into each cell solve: a cell solving on a worker
  // runs its own fan-outs inline (ThreadPool is re-entrant), so nesting is
  // deadlock-free. energyPrice = λ keeps the solvers that read it (approx,
  // fr-opt) consistent with the outer loop; B_c never exceeds the cell's
  // demand at λ, so the priced budget cap is inactive here and active only
  // for solvers that would otherwise overreach.
  const auto solveCell = [&](std::size_t c, double cellB,
                             double price) -> SolveOutcome {
    if (cells[c].tasks.empty()) return SolveOutcome{};
    SolveContext cellContext = context;
    cellContext.lpWarm = &cellLpWarm_[c];
    cellContext.availability =
        cellHints.empty() ? nullptr : &cellHints[c];
    cellContext.energyPrice = price;
    return inner_.solve(cellInstance(cells[c], cellB), cellContext);
  };
  ThreadPool* pool = context.frOpt.pool;
  std::vector<SolveOutcome> outcomes;
  if (pool != nullptr) {
    outcomes = pool->parallelMap(cells.size(), [&](std::size_t c) {
      return solveCell(c, cellBudget[c], lambda);
    });
  } else {
    outcomes.reserve(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      outcomes.push_back(solveCell(c, cellBudget[c], lambda));
    }
  }

  bool cancelled = false;
  double used = 0.0;
  for (const SolveOutcome& outcome : outcomes) {
    used += outcome.energy;
    if (outcome.cancelled()) {
      cancelled = true;
      ++stats_.cancelledCells;
    }
  }

  // --- top-up: hand the run's leftover energy to budget-bound cells ---
  // A cell that spent (almost) its whole share is the one the budget
  // constrained; give it a slice of the global slack proportional to its
  // remaining horizon capacity and re-solve unpriced (a price would cap the
  // enlarged budget right back to the old demand).
  if (options_.topUp && !cancelled) {
    const double slack = budget - used;
    std::vector<std::size_t> bound;
    double headroom = 0.0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].tasks.empty()) continue;
      if (outcomes[c].energy >= cellBudget[c] * (1.0 - 1e-6) &&
          curves[c].capEnergy() > outcomes[c].energy + 1e-12) {
        bound.push_back(c);
        headroom += curves[c].capEnergy() - outcomes[c].energy;
      }
    }
    if (slack > kBudgetTolerance * budget * 0.1 && !bound.empty() &&
        headroom > 0.0) {
      std::vector<double> topBudget(cells.size(), 0.0);
      for (const std::size_t c : bound) {
        const double share =
            slack * (curves[c].capEnergy() - outcomes[c].energy) / headroom;
        topBudget[c] = cellBudget[c] + share;
        stats_.topUpEnergy += share;
      }
      stats_.topUpCells = static_cast<int>(bound.size());
      const auto resolveCell = [&](std::size_t i) {
        const std::size_t c = bound[i];
        return solveCell(c, topBudget[c], -1.0);
      };
      std::vector<SolveOutcome> topped;
      if (pool != nullptr) {
        topped = pool->parallelMap(bound.size(), resolveCell);
      } else {
        topped.reserve(bound.size());
        for (std::size_t i = 0; i < bound.size(); ++i) {
          topped.push_back(resolveCell(i));
        }
      }
      for (std::size_t i = 0; i < bound.size(); ++i) {
        const std::size_t c = bound[i];
        if (topped[i].cancelled()) {
          cancelled = true;
          ++stats_.cancelledCells;
          continue;
        }
        // Keep the better of the two solves (the top-up budget is a
        // superset, so it should not lose; guard against tie-break drift).
        if (topped[i].totalAccuracy >= outcomes[c].totalAccuracy) {
          cellBudget[c] = topBudget[c];
          outcomes[c] = std::move(topped[i]);
        }
      }
      used = 0.0;
      for (const SolveOutcome& outcome : outcomes) used += outcome.energy;
    }
  }
  stats_.budgetUsed = used;

  // --- merge: index-ordered recombination into the global instance ---
  SolveOutcome merged;
  bool allIntegral = true;
  bool anyFractional = false;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].tasks.empty()) continue;
    if (!outcomes[c].schedule.has_value()) allIntegral = false;
    if (outcomes[c].fractional.has_value()) anyFractional = true;
    merged.upperBound += outcomes[c].upperBound;
    addCounters(merged.counters, outcomes[c].counters);
    merged.lpCounters.add(outcomes[c].lpCounters);
  }
  if (allIntegral) {
    // Cell timelines stack their tasks in deadline order from 0; the global
    // rebuild stacks the same subsets on the same machines, so start times
    // and deadline feasibility carry over exactly.
    std::vector<int> machineOf(static_cast<std::size_t>(inst.numTasks()), -1);
    std::vector<double> duration(static_cast<std::size_t>(inst.numTasks()),
                                 0.0);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].tasks.empty()) continue;
      const IntegralSchedule& cellSched = *outcomes[c].schedule;
      for (std::size_t local = 0; local < cells[c].tasks.size(); ++local) {
        const int r = cellSched.machineOf(static_cast<int>(local));
        if (r < 0) continue;
        const std::size_t global =
            static_cast<std::size_t>(cells[c].tasks[local]);
        machineOf[global] = cells[c].machines[static_cast<std::size_t>(r)];
        duration[global] = cellSched.duration(static_cast<int>(local));
      }
    }
    merged.schedule = IntegralSchedule::build(inst, std::move(machineOf),
                                              std::move(duration));
    fillFromIntegral(inst, merged);
  } else if (anyFractional) {
    FractionalSchedule global(inst.numTasks(), inst.numMachines());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].tasks.empty() || !outcomes[c].fractional.has_value()) {
        continue;
      }
      const FractionalSchedule& cellFrac = *outcomes[c].fractional;
      for (std::size_t local = 0; local < cells[c].tasks.size(); ++local) {
        for (std::size_t lr = 0; lr < cells[c].machines.size(); ++lr) {
          const double t = cellFrac.at(static_cast<int>(local),
                                       static_cast<int>(lr));
          if (t > 0.0) {
            global.set(cells[c].tasks[local], cells[c].machines[lr], t);
          }
        }
      }
    }
    merged.fractional = std::move(global);
    fillFromFractional(inst, merged);
  }
  // Note: the summed upper bound is a bound for the *partitioned* problem
  // (each cell's optimum at its budget share), not for the joint optimum —
  // the coordinator's objective gap is measured against an unsharded solve
  // in bench/fig10_sharded_scale.
  if (cancelled) merged.status = OutcomeStatus::kCancelled;
  stats_.budgetUsed = merged.energy;
  return merged;
}

ShardedSolver::ShardedSolver(const Solver& inner, ShardOptions options)
    : coordinator_(inner, options),
      name_("sharded-" + inner.name()),
      displayName_(inner.displayName() + " (sharded, K=" +
                   std::to_string(options.cells) + ")") {}

SolverCapabilities ShardedSolver::capabilities() const {
  SolverCapabilities caps = coordinator_.inner().capabilities();
  // The coordinator owns per-cell warm-start slots, so the context-level
  // one is unused; keep the flags as the inner solver's so callers still
  // provision the shared pool. Determinism is preserved: the partition, the
  // price loop, and the index-ordered merge are all pure.
  return caps;
}

SolveOutcome ShardedSolver::doSolve(const Instance& inst,
                                    const SolveContext& context) const {
  return coordinator_.solve(inst, context);
}

}  // namespace dsct::shard
