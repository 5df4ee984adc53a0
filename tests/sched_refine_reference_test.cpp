// RefineProfile's live-donor scan against the reference walk.
//
// sched/refine_profile.cpp keeps one bit per ψ-sorted pair position, set
// exactly when the pair could donate, and jumps between set bits instead of
// walking every pair below the grower. The contract is bit-identity with the
// paper's walk (tests/refine_reference.h): over the shared corpus every
// refined t_jr and every RefineStats counter except donorChecks must match,
// uncapped, under per-machine energy caps, and when stopped after one round.
// The complexity pin then holds the scan to its output-sensitive bound.
#include <gtest/gtest.h>

#include <vector>

#include "sched/fr_opt.h"
#include "sched/naive_solution.h"
#include "sched/refine_profile.h"
#include "tests/refine_reference.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::corpusInstance;
using testing::referenceRefineProfile;

constexpr int kCases = 120;

enum class Mode { kUncapped, kCapped, kOneRound };

/// The two schedules refinement starts from inside FR-OPT: the naive
/// solution, and the solution for some other energy profile (here a random
/// one). The second spreads tasks over machines, so grows re-arm donors.
std::vector<FractionalSchedule> startingSchedules(const Instance& inst,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  EnergyProfile profile;
  for (int r = 0; r < inst.numMachines(); ++r) {
    profile.push_back(rng.uniform(0.0, inst.maxDeadline()));
  }
  return {computeNaiveSolution(inst).schedule, solveForProfile(inst, profile)};
}

/// Per-machine caps at half the starting schedule's total energy: they bind
/// wherever refinement would gather more than half the energy on one
/// machine, and leave the rest of the corpus free to move.
std::vector<double> halfEnergyCaps(const Instance& inst,
                                   const FractionalSchedule& start) {
  return std::vector<double>(static_cast<std::size_t>(inst.numMachines()),
                             0.5 * start.energy(inst));
}

struct Totals {
  long transfers = 0;
  long revivals = 0;
  long referenceChecks = 0;
  long scanChecks = 0;
  long bound = 0;  ///< Σ transfers + slack queries
  int differFromUncapped = 0;
};

/// Refines every corpus case from both starting schedules with the scan and
/// the reference walk, and expects the two to agree bit for bit.
Totals runCorpus(Mode mode) {
  Totals totals;
  for (int c = 0; c < kCases; ++c) {
    const auto seed = deriveSeed(20261017u, static_cast<std::uint64_t>(c));
    const Instance inst = corpusInstance(seed, c);
    for (const FractionalSchedule& start : startingSchedules(inst, seed)) {
      const std::vector<double> caps = halfEnergyCaps(inst, start);
      RefineOptions options;
      if (mode == Mode::kCapped) options.machineEnergyCaps = &caps;
      if (mode == Mode::kOneRound) options.maxRounds = 1;

      FractionalSchedule reference = start;
      const testing::ReferenceRefine ref =
          referenceRefineProfile(inst, reference, options);
      FractionalSchedule scanned = start;
      const RefineStats stats = refineProfile(inst, scanned, options);

      EXPECT_EQ(stats.rounds, ref.stats.rounds) << "case " << c;
      EXPECT_EQ(stats.transfers, ref.stats.transfers) << "case " << c;
      EXPECT_EQ(stats.energyMoved, ref.stats.energyMoved) << "case " << c;
      EXPECT_EQ(stats.slack.queries, ref.stats.slack.queries) << "case " << c;
      EXPECT_EQ(stats.slack.hits, ref.stats.slack.hits) << "case " << c;
      EXPECT_EQ(stats.slack.rebuilds, ref.stats.slack.rebuilds)
          << "case " << c;
      EXPECT_EQ(stats.slack.invalidations, ref.stats.slack.invalidations)
          << "case " << c;
      for (int j = 0; j < inst.numTasks(); ++j) {
        for (int r = 0; r < inst.numMachines(); ++r) {
          EXPECT_EQ(scanned.at(j, r), reference.at(j, r))
              << "case " << c << " t[" << j << "," << r << "]";
        }
      }
      EXPECT_LE(stats.donorChecks, stats.transfers + stats.slack.queries)
          << "case " << c;

      if (mode == Mode::kCapped) {
        FractionalSchedule uncapped = start;
        refineProfile(inst, uncapped);
        bool differs = false;
        for (int j = 0; j < inst.numTasks(); ++j) {
          for (int r = 0; r < inst.numMachines(); ++r) {
            differs = differs || uncapped.at(j, r) != scanned.at(j, r);
          }
        }
        if (differs) ++totals.differFromUncapped;
      }
      totals.transfers += stats.transfers;
      totals.revivals += ref.revivals;
      totals.referenceChecks += ref.stats.donorChecks;
      totals.scanChecks += stats.donorChecks;
      totals.bound += stats.transfers + stats.slack.queries;
    }
  }
  // Non-vacuity: the corpus moves energy, and some donors die and come back
  // to life within a round, which only the bitset's per-task refresh sees.
  EXPECT_GT(totals.transfers, 0);
  EXPECT_GT(totals.revivals, 0);
  return totals;
}

TEST(RefineReference, BitIdenticalUncapped) {
  const Totals totals = runCorpus(Mode::kUncapped);
  // The walk visits more pairs than the scan's bound allows.
  EXPECT_GT(totals.referenceChecks, totals.bound);
  EXPECT_LE(totals.scanChecks, totals.bound);
}

TEST(RefineReference, BitIdenticalUnderEnergyCaps) {
  // The caps must bind somewhere, or this mode repeats the uncapped one.
  EXPECT_GT(runCorpus(Mode::kCapped).differFromUncapped, 0);
}

TEST(RefineReference, BitIdenticalAfterOneRound) {
  runCorpus(Mode::kOneRound);
}

TEST(RefineComplexity, DonorChecksBoundedOnTightLargeInstance) {
  // n = 300, m = 32 at β = 0.003: ~10^5 pairs, thousands of growers asking
  // for energy, and almost no live donor below any of them.
  const Instance inst = testing::randomInstance(4, 300, 32, 0.35, 0.003);
  const FractionalSchedule start = computeNaiveSolution(inst).schedule;

  FractionalSchedule scanned = start;
  const RefineStats stats = refineProfile(inst, scanned);
  EXPECT_GT(stats.transfers, 0);
  const long bound = stats.transfers + stats.slack.queries;
  EXPECT_LE(stats.donorChecks, bound);

  // The walk examines every dead pair below each grower: orders of
  // magnitude past the bound, on the same trajectory.
  FractionalSchedule reference = start;
  const testing::ReferenceRefine ref = referenceRefineProfile(inst, reference);
  EXPECT_EQ(ref.stats.transfers, stats.transfers);
  EXPECT_EQ(ref.stats.slack.queries, stats.slack.queries);
  EXPECT_GT(ref.stats.donorChecks, 1000 * bound);
  for (int j = 0; j < inst.numTasks(); ++j) {
    for (int r = 0; r < inst.numMachines(); ++r) {
      EXPECT_EQ(scanned.at(j, r), reference.at(j, r))
          << "t[" << j << "," << r << "]";
    }
  }

  // The same bound over a whole FR-OPT solve, which refines many profiles.
  const FrOptResult fr = solveFrOpt(inst);
  EXPECT_GT(fr.refineStats.transfers, 0);
  EXPECT_LE(fr.refineStats.donorChecks,
            fr.refineStats.transfers + fr.refineStats.slack.queries);
}

}  // namespace
}  // namespace dsct
