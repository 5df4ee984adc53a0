// Reference RefineProfile (Algorithm 3) for the differential tests.
//
// This is the donor loop as the paper states it: for every grower, walk the
// ψ-sorted pair list from the cheapest ψ upward and skip each pair that
// cannot donate — O(P) per grower over P = n·segments·m pairs.
// sched/refine_profile.cpp replaces the walk with a live-donor bitset and
// must stay bit-identical to this loop (tests/sched_refine_reference_test.cpp).
// The transfer arithmetic below is the production arithmetic, line for line.
//
// Two counters are added for the tests: RefineStats::donorChecks counts every
// pair position the walk visits, and `revivals` counts donations by a pair
// the walk had found dead earlier in the same round — the case the bitset's
// per-task refresh exists for.
//
// The walk takes its deadline slacks from a slack source type: production's
// SlackEngine (the default), or ScratchSlack below — the O(n) column scan
// that SlackEngine's memo and suffix trees must reproduce bit for bit
// (tests/sched_slack_cache_test.cpp).
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "sched/refine_profile.h"
#include "sched/slack_engine.h"

namespace dsct::testing {

/// Deadline slack by a scratch scan of the machine column on every query:
/// sequential prefix sums, early exit at the first exhausted slack. Counts
/// queries only; it has no memo to hit and no column to rebuild.
class ScratchSlack {
 public:
  ScratchSlack(const Instance& inst, const FractionalSchedule& schedule)
      : inst_(inst), schedule_(schedule) {}

  double slack(int task, int machine) {
    ++counters_.queries;
    double prefix = 0.0;
    for (int i = 0; i < task; ++i) prefix += schedule_.at(i, machine);
    double slack = std::numeric_limits<double>::infinity();
    for (int i = task; i < inst_.numTasks(); ++i) {
      prefix += schedule_.at(i, machine);
      slack = std::min(slack, inst_.task(i).deadline - prefix);
      if (slack <= 0.0) return 0.0;
    }
    return slack;
  }

  void onTransfer(int /*growMachine*/, int /*shrinkMachine*/) {}

  const SlackCounters& counters() const { return counters_; }

 private:
  const Instance& inst_;
  const FractionalSchedule& schedule_;
  SlackCounters counters_;
};

struct ReferenceRefine {
  RefineStats stats;
  long revivals = 0;
};

template <typename SlackSource = SlackEngine>
ReferenceRefine referenceRefineProfile(const Instance& inst,
                                       FractionalSchedule& schedule,
                                       const RefineOptions& options = {}) {
  struct Pair {
    int task;
    int segment;
    int machine;
    double slope;
    double psi;
    double fLo;
    double fHi;
  };
  constexpr double kPsiTol = 1e-12;

  ReferenceRefine result;
  RefineStats& stats = result.stats;
  const int n = inst.numTasks();
  const int m = inst.numMachines();
  if (n == 0) return result;

  std::vector<Pair> pairs;
  for (int j = 0; j < n; ++j) {
    const PiecewiseLinearAccuracy& acc = inst.task(j).accuracy;
    for (int k = 0; k < acc.numSegments(); ++k) {
      const AccuracySegment seg = acc.segment(k);
      for (int r = 0; r < m; ++r) {
        const double e = inst.machine(r).efficiency;
        pairs.push_back({j, k, r, seg.slope, seg.slope * e, seg.fLo, seg.fHi});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.psi != b.psi) return a.psi > b.psi;
    if (a.task != b.task) return a.task < b.task;
    if (a.segment != b.segment) return a.segment < b.segment;
    return a.machine < b.machine;
  });

  std::vector<double> flops(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    flops[static_cast<std::size_t>(j)] = schedule.flops(inst, j);
  }

  SlackSource slackEngine(inst, schedule);

  const std::vector<double>* caps = options.machineEnergyCaps;
  std::vector<double> machineEnergy;
  if (caps != nullptr) {
    machineEnergy = schedule.machineLoads();
    for (int r = 0; r < m; ++r) {
      machineEnergy[static_cast<std::size_t>(r)] *= inst.machine(r).power();
    }
  }

  std::vector<char> seenDead(pairs.size());
  for (stats.rounds = 0; stats.rounds < options.maxRounds; ++stats.rounds) {
    if (stopRequested(options.cancel)) break;
    std::fill(seenDead.begin(), seenDead.end(), 0);
    long transfersThisRound = 0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const Pair& grow = pairs[p];
      if (grow.slope <= 0.0) continue;
      const Machine& mr = inst.machine(grow.machine);
      const double fj = flops[static_cast<std::size_t>(grow.task)];
      const double growFlops = grow.fHi - fj;
      if (growFlops <= 1e-12) continue;
      const double slack = slackEngine.slack(grow.task, grow.machine);
      double eAdd = std::min(growFlops / mr.efficiency,
                             std::max(0.0, slack) * mr.power());
      if (caps != nullptr &&
          static_cast<std::size_t>(grow.machine) < caps->size()) {
        eAdd = std::min(
            eAdd, std::max(0.0, (*caps)[static_cast<std::size_t>(
                                    grow.machine)] -
                                    machineEnergy[static_cast<std::size_t>(
                                        grow.machine)]));
      }
      if (eAdd <= kRefineTol) continue;

      for (std::size_t q = pairs.size(); q-- > p + 1 && eAdd > kRefineTol;) {
        ++stats.donorChecks;
        const Pair& shrink = pairs[q];
        if (shrink.psi >= grow.psi - kPsiTol) break;
        const double tShrink = schedule.at(shrink.task, shrink.machine);
        if (tShrink <= 1e-12) {
          seenDead[q] = 1;
          continue;
        }
        const Machine& ms = inst.machine(shrink.machine);
        const double fj2 = flops[static_cast<std::size_t>(shrink.task)];
        const double usedInSeg =
            std::clamp(fj2 - shrink.fLo, 0.0, shrink.fHi - shrink.fLo);
        if (usedInSeg <= 1e-12) {
          seenDead[q] = 1;
          continue;
        }
        const double eSub =
            std::min(usedInSeg / ms.efficiency, tShrink * ms.power());
        const double eTransfer = std::min(eAdd, eSub);
        if (eTransfer <= kRefineTol) {
          seenDead[q] = 1;
          continue;
        }
        if (seenDead[q] != 0) {
          ++result.revivals;
          seenDead[q] = 0;
        }

        schedule.add(grow.task, grow.machine, eTransfer / mr.power());
        flops[static_cast<std::size_t>(grow.task)] +=
            eTransfer * mr.efficiency;
        schedule.set(shrink.task, shrink.machine,
                     std::max(0.0, tShrink - eTransfer / ms.power()));
        flops[static_cast<std::size_t>(shrink.task)] -=
            eTransfer * ms.efficiency;

        slackEngine.onTransfer(grow.machine, shrink.machine);
        if (caps != nullptr) {
          machineEnergy[static_cast<std::size_t>(grow.machine)] += eTransfer;
          machineEnergy[static_cast<std::size_t>(shrink.machine)] -=
              eTransfer;
        }

        eAdd -= eTransfer;
        stats.energyMoved += eTransfer;
        ++stats.transfers;
        ++transfersThisRound;
      }
    }
    if (transfersThisRound == 0) break;
  }
  stats.slack = slackEngine.counters();
  return result;
}

}  // namespace dsct::testing
