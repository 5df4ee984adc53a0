#include "sched/refine_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace dsct {

namespace {

/// One (accuracy segment, machine) pair, the unit of the refinement search.
struct Pair {
  int task;
  int segment;
  int machine;
  double slope;  ///< segment slope (accuracy per TFLOP)
  double psi;    ///< accuracy-per-Joule ψ = slope · E_r
  double fLo;
  double fHi;
};

constexpr double kPsiTol = 1e-12;

}  // namespace

RefineStats refineProfile(const Instance& inst, FractionalSchedule& schedule,
                          const RefineOptions& options) {
  RefineStats stats;
  const int n = inst.numTasks();
  const int m = inst.numMachines();
  if (n == 0) return stats;

  // Static pair list sorted by non-increasing accuracy-per-Joule. Task j
  // owns the S_j·m pairs [taskStart[j], taskStart[j+1]) of the unsorted
  // list; the same range indexes its positions in taskPairs below.
  std::vector<Pair> pairs;
  std::vector<std::size_t> taskStart(static_cast<std::size_t>(n) + 1, 0);
  for (int j = 0; j < n; ++j) {
    const PiecewiseLinearAccuracy& acc = inst.task(j).accuracy;
    for (int k = 0; k < acc.numSegments(); ++k) {
      const AccuracySegment seg = acc.segment(k);
      for (int r = 0; r < m; ++r) {
        const double e = inst.machine(r).efficiency;
        pairs.push_back({j, k, r, seg.slope, seg.slope * e, seg.fLo, seg.fHi});
      }
    }
    taskStart[static_cast<std::size_t>(j) + 1] = pairs.size();
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.psi != b.psi) return a.psi > b.psi;
    if (a.task != b.task) return a.task < b.task;
    if (a.segment != b.segment) return a.segment < b.segment;
    return a.machine < b.machine;
  });

  // Current FLOP allocation per task, updated incrementally.
  std::vector<double> flops(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    flops[static_cast<std::size_t>(j)] = schedule.flops(inst, j);
  }

  SlackEngine slackEngine(inst, schedule);

  // Per-machine energy draw, tracked incrementally when caps are active so
  // growth never pushes a machine past its battery charge.
  const std::vector<double>* caps = options.machineEnergyCaps;
  std::vector<double> machineEnergy;
  if (caps != nullptr) {
    machineEnergy = schedule.machineLoads();
    for (int r = 0; r < m; ++r) {
      machineEnergy[static_cast<std::size_t>(r)] *= inst.machine(r).power();
    }
  }

  // Live-donor bitset over pair positions. Bit q is set exactly when the
  // donor scan, offering a grower more than tol Joules, would transfer from
  // pairs[q]: the pair holds time, its segment is in use and it can release
  // more than tol Joules. A pair's bit depends only on its task's flops and
  // its (task, machine) time, so after each transfer the bits of the two
  // tasks involved are re-evaluated (S·m pairs each). That also re-arms a
  // donor within the round: a grow raises flops[j], which brings higher
  // segments of task j back into use.
  //
  // Bits are kept only for the suffix [keptFrom, P) that scans have reached.
  // A scan that needs lower positions first evaluates them from the current
  // state, so no bit is read before it is kept; most solves never scan the
  // high-ψ end of the list.
  const std::size_t numPairs = pairs.size();

  // The donor side of one transfer: the time the pair holds and the energy
  // it can release. False when one of the scan's skip tests rejects it.
  const auto donor = [&](const Pair& shrink, double& tShrink, double& eSub) {
    tShrink = schedule.at(shrink.task, shrink.machine);
    if (tShrink <= 1e-12) return false;
    const Machine& ms = inst.machine(shrink.machine);
    const double fj2 = flops[static_cast<std::size_t>(shrink.task)];
    const double usedInSeg =
        std::clamp(fj2 - shrink.fLo, 0.0, shrink.fHi - shrink.fLo);
    if (usedInSeg <= 1e-12) return false;
    eSub = std::min(usedInSeg / ms.efficiency, tShrink * ms.power());
    return !(eSub <= kRefineTol);
  };

  std::vector<std::uint64_t> live((numPairs + 63) / 64, 0);
  std::size_t keptFrom = numPairs;
  const auto evaluate = [&](std::size_t q) {
    double tShrink = 0.0;
    double eSub = 0.0;
    const std::uint64_t bit = std::uint64_t{1} << (q & 63);
    if (donor(pairs[q], tShrink, eSub)) {
      live[q >> 6] |= bit;
    } else {
      live[q >> 6] &= ~bit;
    }
  };
  std::vector<std::size_t> taskPairs;  // positions by task, built on use
  const auto refreshTask = [&](int task) {
    if (taskPairs.empty()) {
      taskPairs.resize(numPairs);
      std::vector<std::size_t> fill(taskStart.begin(), taskStart.end() - 1);
      for (std::size_t q = 0; q < numPairs; ++q) {
        taskPairs[fill[static_cast<std::size_t>(pairs[q].task)]++] = q;
      }
    }
    for (std::size_t i = taskStart[static_cast<std::size_t>(task)];
         i < taskStart[static_cast<std::size_t>(task) + 1]; ++i) {
      if (taskPairs[i] >= keptFrom) evaluate(taskPairs[i]);
    }
  };

  // Highest live position in (stop, below), or stop when there is none.
  const auto nextLiveDown = [&live](std::size_t below, std::size_t stop) {
    if (below <= stop + 1) return stop;
    std::size_t word = (below - 1) >> 6;
    std::uint64_t bits =
        live[word] & (~std::uint64_t{0} >> (63 - ((below - 1) & 63)));
    const std::size_t lastWord = (stop + 1) >> 6;
    while (bits == 0) {
      if (word == lastWord) return stop;
      bits = live[--word];
    }
    const std::size_t q =
        (word << 6) + 63 - static_cast<std::size_t>(std::countl_zero(bits));
    return q > stop ? q : stop;
  };

  for (stats.rounds = 0; stats.rounds < options.maxRounds; ++stats.rounds) {
    if (stopRequested(options.cancel)) break;
    long transfersThisRound = 0;
    std::size_t cheaper = 0;  // first position cheaper than the grower
    for (std::size_t p = 0; p < numPairs; ++p) {
      const Pair& grow = pairs[p];
      if (grow.slope <= 0.0) continue;  // flat segments can only donate
      const Machine& mr = inst.machine(grow.machine);
      const double fj = flops[static_cast<std::size_t>(grow.task)];
      // Fill at most to the end of this segment; earlier (steeper) segments
      // were already offered growth by higher-ψ pairs, so the realised
      // marginal gain is at least grow.slope per TFLOP (concavity).
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

      // Scan live donors from the cheapest ψ upward (paper line 9's reverse
      // iteration); stop once donors are no cheaper than the grower. Every
      // donor examined either transfers or ends the scan. ψ is sorted, so
      // the cheaper donors' first position only moves forward in a round.
      cheaper = std::max(cheaper, p + 1);
      while (cheaper < numPairs && pairs[cheaper].psi >= grow.psi - kPsiTol) {
        ++cheaper;
      }
      while (keptFrom > cheaper) evaluate(--keptFrom);
      const std::size_t stop = keptFrom > p ? keptFrom - 1 : p;
      for (std::size_t q = nextLiveDown(numPairs, stop);
           q > stop && eAdd > kRefineTol; q = nextLiveDown(q, stop)) {
        ++stats.donorChecks;
        const Pair& shrink = pairs[q];
        if (shrink.psi >= grow.psi - kPsiTol) break;
        double tShrink = 0.0;
        double eSub = 0.0;
        [[maybe_unused]] const bool liveDonor = donor(shrink, tShrink, eSub);
        DSCT_DCHECK(liveDonor);
        const Machine& ms = inst.machine(shrink.machine);
        const double eTransfer = std::min(eAdd, eSub);

        schedule.add(grow.task, grow.machine, eTransfer / mr.power());
        flops[static_cast<std::size_t>(grow.task)] +=
            eTransfer * mr.efficiency;
        schedule.set(shrink.task, shrink.machine,
                     std::max(0.0, tShrink - eTransfer / ms.power()));
        flops[static_cast<std::size_t>(shrink.task)] -=
            eTransfer * ms.efficiency;
        refreshTask(grow.task);
        if (shrink.task != grow.task) refreshTask(shrink.task);

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
  return stats;
}

}  // namespace dsct
