// Shared fixtures and builders for the dsct test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "accuracy/fit.h"
#include "accuracy/piecewise.h"
#include "core/solver_registry.h"
#include "sched/types.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace dsct::testing {

/// A simple 2-segment concave accuracy function reaching `amax` at `fmax`.
inline PiecewiseLinearAccuracy twoSegment(double amin = 0.0,
                                          double amax = 0.8,
                                          double fmax = 2.0) {
  const double mid = amin + 0.75 * (amax - amin);
  return PiecewiseLinearAccuracy::fromPoints({0.0, fmax / 2.0, fmax},
                                             {amin, mid, amax});
}

/// Deterministic random instance via the paper's scenario generator.
inline Instance randomInstance(std::uint64_t seed, int n = 8, int m = 3,
                               double rho = 0.35, double beta = 0.5,
                               double thetaMin = 0.1, double thetaMax = 1.0) {
  ScenarioSpec spec;
  spec.numTasks = n;
  spec.numMachines = m;
  spec.rho = rho;
  spec.beta = beta;
  return makeScenario(spec, thetaMin, thetaMax, seed);
}

/// Tiny hand-built instance: 2 tasks, 2 machines, generous budget.
inline Instance tinyInstance(double budget = 1e9) {
  std::vector<Task> tasks{
      Task{1.0, twoSegment(0.0, 0.8, 2.0), "t0"},
      Task{2.0, twoSegment(0.0, 0.9, 3.0), "t1"},
  };
  std::vector<Machine> machines{
      Machine{2.0, 0.05, "m0"},
      Machine{1.0, 0.08, "m1"},
  };
  return Instance(std::move(tasks), std::move(machines), budget);
}

// --- Shared seeded corpus ---------------------------------------------------
// One instance family for the differential (sched_slack_cache_test), property
// (sched_pair_search_test), and golden tests, cycling through the regimes
// that have historically broken things: loose and tight budgets, strict
// deadlines with heterogeneous θ, the zero-slope/hopeless-task degeneracies
// from the fault PR, and horizon-bound profiles (the energy-leak regression).

inline constexpr int kCorpusRegimes = 5;

/// Deterministic corpus member. `caseIdx` picks the regime
/// (caseIdx % kCorpusRegimes) and scales the size; `seed` varies the draw.
inline Instance corpusInstance(std::uint64_t seed, int caseIdx) {
  Rng rng(deriveSeed(seed, static_cast<std::uint64_t>(caseIdx) * 7919u + 13u));
  const int regime = caseIdx % kCorpusRegimes;
  const int n = 3 + (caseIdx * 5) % 38;
  const int m = 1 + caseIdx % 5;
  switch (regime) {
    case 0:  // small-to-mid, generous budget: refinement mostly idles
      return randomInstance(deriveSeed(seed, 101), n, m, 0.35, 0.8, 0.1, 1.0);
    case 1:  // tight budget: every Joule contested, long transfer chains
      return randomInstance(deriveSeed(seed, 202), n, m, 0.10, 0.08, 0.1, 2.0);
    case 2:  // strict deadlines + heterogeneous θ (the Fig. 4 hard regime)
      return randomInstance(deriveSeed(seed, 303), n, m, 0.02, 0.4, 0.1, 4.9);
    case 3: {  // degenerate: flat (zero-slope, hopeless) tasks mixed in
      std::vector<Task> tasks;
      double deadline = 0.0;
      for (int j = 0; j < n; ++j) {
        deadline += rng.uniform(0.05, 0.6);
        if (j % 3 == 0) {
          // A comm-flattened hopeless task: constant accuracy, zero slope
          // end to end (the shape commAwareInstance emits when the transfer
          // alone exceeds the deadline).
          const double level = rng.uniform(0.0, 0.4);
          tasks.push_back(Task{deadline,
                               PiecewiseLinearAccuracy::linear(
                                   level, level, rng.uniform(0.5, 2.0)),
                               "flat"});
        } else {
          tasks.push_back(Task{deadline,
                               makePaperAccuracy(1e-3, 0.82,
                                                 rng.uniform(0.2, 2.0), 4),
                               "task"});
        }
      }
      std::vector<Machine> machines = makeUniformMachines(m, rng);
      const double budget =
          rng.uniform(0.05, 0.9) * deadline *
          Instance(tasks, machines, 1.0).totalPower();
      return Instance(std::move(tasks), std::move(machines), budget);
    }
    default: {  // horizon-bound: tiny recipient headroom at the horizon
      const double horizon = 10.0;
      std::vector<Task> tasks;
      for (int j = 0; j < std::max(1, n / 8); ++j) {
        const double kink = rng.uniform(10.0, 20.0);
        const double top = kink + rng.uniform(2.0, 6.0);
        const double atKink = rng.uniform(0.6, 0.9);
        // Concavity: the post-kink slope is a strict fraction of the
        // pre-kink slope.
        const double atTop =
            std::min(0.995, atKink + rng.uniform(0.2, 0.8) *
                                         (atKink / kink) * (top - kink));
        tasks.push_back(Task{horizon - rng.uniform(0.0, 0.5),
                             PiecewiseLinearAccuracy::fromPoints(
                                 {0.0, kink, top}, {0.0, atKink, atTop}),
                             "hb"});
      }
      std::vector<Machine> machines{Machine{1.0, 0.05, "r0"},
                                    Machine{1.0, 0.04, "r1"}};
      // Budget just below what both machines consume when horizon-full, so
      // the optimum pins one machine at the horizon (the regime where the
      // uncapped pair search used to destroy energy).
      const double full = horizon * (1.0 / 0.05 + 1.0 / 0.04);
      return Instance(std::move(tasks), std::move(machines),
                      rng.uniform(0.85, 0.999) * full);
    }
  }
}

/// The corpus member the FR-OPT golden-value pin runs on: mid-size, tight
/// budget, multi-machine (tests/sched_slack_cache_test.cpp).
inline Instance goldenMidSizeInstance() {
  // The Fig. 6b shape (earliest deadlines on the efficient machine, tight
  // ρ) — the regime where the naive profile is provably suboptimal, so the
  // pin exercises RefineProfile's transfers, not just its slack queries.
  Rng rng(987654321u);
  std::vector<Machine> machines{Machine{2.0, 80e-3, "m1"},
                                Machine{5.0, 70e-3, "m2"}};
  const auto thetas =
      makeThetasEarliestHighEfficient(60, 0.3, 4.0, 4.9, 0.1, 1.0, rng);
  ScenarioSpec spec;
  spec.numTasks = 60;
  spec.numMachines = 2;
  spec.rho = 0.01;
  spec.beta = 0.2;
  return buildInstance(std::move(machines), thetas, spec, rng);
}

// --- Serving variants --------------------------------------------------------
// Serving attaches the cross-epoch LP warm-start slot that a solver's
// capabilities ask for, and never evaluates in parallel. Each of those
// choices is pinned bit-identical against its alternative; a variant solver
// is how a test serves the alternative side.

enum class ServingVariant {
  kNoLpWarm,      ///< no cross-epoch LP warm-start slot
  kParallelEval,  ///< pooled evaluation on an 8-thread pool
};

/// Registers, on first use, a test-only variant of the registry solver
/// `base` through SolverRegistry::add/makeSolver and returns its name, to be
/// passed to sim::runServing in place of `base`. The variant drops the
/// capability that makes serving attach the resource it goes without, and
/// edits the SolveContext it hands to `base`.
inline std::string servingVariant(const std::string& base,
                                  ServingVariant variant) {
  static const char* const kSuffix[] = {"cold-lp", "parallel-eval"};
  const std::string name = base + "/" + kSuffix[static_cast<int>(variant)];
  SolverRegistry& registry = SolverRegistry::instance();
  if (registry.find(name) != nullptr) return name;
  const Solver& inner = registry.resolve(base);
  SolverCapabilities caps = inner.capabilities();
  if (variant == ServingVariant::kNoLpWarm) caps.usesLpWarmStart = false;
  registry.add(makeSolver(
      name, inner.displayName(), caps,
      [&inner, variant](const Instance& inst, const SolveContext& context) {
        SolveContext ctx = context;
        switch (variant) {
          case ServingVariant::kNoLpWarm:
            ctx.lpWarm = nullptr;
            break;
          case ServingVariant::kParallelEval: {
            static ThreadPool pool(8);
            ctx.frOpt.pool = &pool;
            break;
          }
        }
        return inner.solve(inst, ctx);
      }));
  return name;
}

}  // namespace dsct::testing
