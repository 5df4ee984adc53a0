// Shard coordinator (DESIGN.md §18): budget-partitioned cells coordinated
// by a Lagrangian energy price.
//
// The only coupling between machines in DSCT-EA is the global energy budget
// B — remove it and the problem decomposes by machine. The coordinator
// exploits that: it partitions machines+tasks into K cells, runs an outer
// price search on the energy price λ using each cell's PricedDemandCurve
// (energy_price.h) to find the price at which the cells' combined appetite
// fits B, hands every cell its demand share B_c as an independent budget,
// solves the cells in parallel through the regular Solver interface, and
// finally re-solves budget-bound cells with the run's leftover energy (the
// top-up pass). Each cell keeps its own cross-epoch LP warm-start slot, so
// sharded serving retains the single-cell basis reuse.
//
// With K <= 1 the coordinator delegates to the inner solver with the
// context untouched — bit-identical to not having a coordinator at all
// (tests/shard_coordinator_test.cpp pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/solver_api.h"
#include "shard/partitioner.h"

namespace dsct::shard {

struct ShardOptions {
  /// Cell count K; <= 1 delegates to the inner solver unchanged.
  int cells = 1;
  /// Partitioner seed (see PartitionOptions::seed).
  std::uint64_t seed = 0;
  /// Re-solve budget-bound cells with the run's leftover energy.
  bool topUp = true;
};

/// Outer price-loop iteration cap, counted in demand evaluations. The
/// demand curves are step functions, so the loop snaps every probe to a
/// breakpoint (secant guess, midpoint fallback) and declares exact
/// convergence once the bracket holds no interior breakpoint — in practice
/// ≤ 8 evaluations; 32 is a generous backstop.
inline constexpr int kMaxPriceIterations = 32;

/// Per-solve observability (read via lastStats after each solve).
struct ShardStats {
  int cells = 0;             ///< cells actually used (after clamping)
  int priceIterations = 0;   ///< demand-curve evaluations of the outer loop
  double finalPrice = 0.0;   ///< accepted λ (0 when the budget is generous)
  bool converged = false;    ///< funded demand within tolerance of B
  double budgetAssigned = 0.0;  ///< Σ B_c handed to the cells
  double budgetUsed = 0.0;      ///< Σ Joules the cell schedules consumed
  double topUpEnergy = 0.0;     ///< extra Joules granted by the top-up pass
  int topUpCells = 0;           ///< cells re-solved in the top-up pass
  int cancelledCells = 0;       ///< cell solves stopped by the cancel token
};

/// Runs sharded solves through an inner registry solver. Stateful across
/// solves (per-cell LP warm-start slots persist between epochs), so
/// a coordinator must not run two solves concurrently — the serving loop's
/// at-most-one-solve-in-flight rule, same as LpWarmStartSlot.
class ShardCoordinator {
 public:
  ShardCoordinator(const Solver& inner, ShardOptions options);

  SolveOutcome solve(const Instance& inst, const SolveContext& context);

  const Solver& inner() const { return inner_; }
  const ShardOptions& options() const { return options_; }
  /// Stats of the most recent solve (zeroed at the start of each).
  const ShardStats& lastStats() const { return stats_; }

 private:
  const Solver& inner_;
  ShardOptions options_;
  std::vector<LpWarmStartSlot> cellLpWarm_;  ///< one per cell, cross-epoch
  ShardStats stats_;
};

/// Solver adapter: lets every existing dispatch layer (serving loop,
/// fallback chains, benches) treat a sharded solve as a normal
/// Solver. The coordinator inside is mutable state, so the adapter inherits
/// its at-most-one-solve-in-flight rule.
class ShardedSolver final : public Solver {
 public:
  ShardedSolver(const Solver& inner, ShardOptions options);

  const std::string& name() const override { return name_; }
  const std::string& displayName() const override { return displayName_; }
  SolverCapabilities capabilities() const override;

  const Solver& inner() const { return coordinator_.inner(); }
  const ShardStats& lastStats() const { return coordinator_.lastStats(); }

 protected:
  SolveOutcome doSolve(const Instance& inst,
                       const SolveContext& context) const override;

 private:
  mutable ShardCoordinator coordinator_;
  std::string name_;
  std::string displayName_;
};

}  // namespace dsct::shard
