// Differential harness for RefineProfile's incremental slack engine and the
// cross-solve ProfileCache.
//
// The incremental engine (sched/slack_engine.h) replaces the per-candidate
// O(n) deadline-slack scan with a (task, machine) memo over per-machine
// suffix-min trees, invalidated by per-machine version counters. Its whole
// contract is bit-identity with that scan (testing::ScratchSlack in
// tests/refine_reference.h): query by query on a live schedule, and over
// the shared corpus (tests/test_support.h — loose and tight budgets, strict
// deadlines, zero-slope degenerate tasks, horizon-bound profiles), where
// every schedule entry, objective, and shared counter of production refine
// must equal the reference walk over scratch slacks bit for bit. The same
// harness pins the cross-solve cache (attaching one never changes a solve)
// and a golden FR-OPT objective on a mid-size corpus instance.
#include <gtest/gtest.h>

#include "sched/fr_opt.h"
#include "sched/naive_solution.h"
#include "sched/profile_cache.h"
#include "sched/refine_profile.h"
#include "sched/slack_engine.h"
#include "tests/refine_reference.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::corpusInstance;
using testing::goldenMidSizeInstance;
using testing::kCorpusRegimes;
using testing::referenceRefineProfile;
using testing::ScratchSlack;

constexpr int kDifferentialCases = 120;  ///< ≥ 100 seeds (acceptance floor)

struct RefineRun {
  FractionalSchedule schedule;
  RefineStats stats;
};

/// Refine a fresh naive solution: production refine over its incremental
/// slack engine, or the reference walk over scratch slack scans.
RefineRun refineWith(const Instance& inst, bool incremental) {
  NaiveSolution naive = computeNaiveSolution(inst);
  RefineRun run{std::move(naive.schedule), {}};
  run.stats =
      incremental
          ? refineProfile(inst, run.schedule)
          : referenceRefineProfile<ScratchSlack>(inst, run.schedule).stats;
  return run;
}

TEST(SlackCacheDifferential, RefineBitIdenticalAcrossCorpus) {
  long long totalHits = 0;
  long long totalTransfers = 0;
  for (int c = 0; c < kDifferentialCases; ++c) {
    const Instance inst =
        corpusInstance(deriveSeed(20240807u, static_cast<std::uint64_t>(c)),
                       c);
    const RefineRun incremental = refineWith(inst, true);
    const RefineRun scratch = refineWith(inst, false);

    // Shared counters: the two modes must take the same transfer trajectory.
    EXPECT_EQ(incremental.stats.rounds, scratch.stats.rounds) << "case " << c;
    EXPECT_EQ(incremental.stats.transfers, scratch.stats.transfers)
        << "case " << c;
    EXPECT_EQ(incremental.stats.energyMoved, scratch.stats.energyMoved)
        << "case " << c;
    // Slack-cache counters: the scratch run never memoises; both modes
    // answer the same number of queries.
    EXPECT_EQ(incremental.stats.slack.queries, scratch.stats.slack.queries)
        << "case " << c;
    EXPECT_EQ(scratch.stats.slack.hits, 0) << "case " << c;
    EXPECT_EQ(scratch.stats.slack.rebuilds, 0) << "case " << c;

    // Bit-identical profiles and objectives.
    for (int j = 0; j < inst.numTasks(); ++j) {
      for (int r = 0; r < inst.numMachines(); ++r) {
        EXPECT_EQ(incremental.schedule.at(j, r), scratch.schedule.at(j, r))
            << "case " << c << " t[" << j << "," << r << "]";
      }
    }
    EXPECT_EQ(incremental.schedule.totalAccuracy(inst),
              scratch.schedule.totalAccuracy(inst))
        << "case " << c;
    EXPECT_EQ(incremental.schedule.energy(inst), scratch.schedule.energy(inst))
        << "case " << c;

    totalHits += incremental.stats.slack.hits;
    totalTransfers += incremental.stats.transfers;
  }
  // The corpus must actually exercise both the memo and the transfer path —
  // a trivially idle corpus would make the differential vacuous.
  EXPECT_GT(totalHits, 0);
  EXPECT_GT(totalTransfers, 0);
}

TEST(SlackCacheDifferential, SlackEngineMatchesScratchQueryByQuery) {
  // Unit-level differential: interleave queries and transfers, comparing the
  // engine against the scratch scan on the same live schedule after every
  // mutation.
  for (int c = 0; c < 3 * kCorpusRegimes; ++c) {
    const Instance inst =
        corpusInstance(deriveSeed(31337u, static_cast<std::uint64_t>(c)), c);
    NaiveSolution naive = computeNaiveSolution(inst);
    FractionalSchedule& schedule = naive.schedule;
    SlackEngine fast(inst, schedule);
    ScratchSlack slow(inst, schedule);
    Rng rng(deriveSeed(4242u, static_cast<std::uint64_t>(c)));
    const int n = inst.numTasks();
    const int m = inst.numMachines();
    for (int step = 0; step < 200; ++step) {
      const int j = rng.uniformInt(0, n - 1);
      const int r = rng.uniformInt(0, m - 1);
      const double a = fast.slack(j, r);
      const double b = slow.slack(j, r);
      EXPECT_EQ(a, b) << "case " << c << " step " << step << " (" << j << ","
                      << r << ")";
      // Immediate re-query: must serve from the memo, bit-identically.
      EXPECT_EQ(fast.slack(j, r), a) << "case " << c << " step " << step;
      if (step % 3 == 0) {
        // Mutate the schedule like a refine transfer would and notify both.
        const int j2 = rng.uniformInt(0, n - 1);
        const int r2 = rng.uniformInt(0, m - 1);
        const double dt = rng.uniform(0.0, 0.05);
        schedule.add(j, r, dt);
        schedule.set(j2, r2, std::max(0.0, schedule.at(j2, r2) - dt));
        fast.onTransfer(r, r2);
        slow.onTransfer(r, r2);
      }
    }
    EXPECT_GT(fast.counters().hits, 0) << "case " << c;
  }
}

TEST(SlackCacheDifferential, CrossSolveCacheNeverChangesSolutions) {
  // Solving the same instance repeatedly through one shared cache must
  // reproduce the cache-less solve bit for bit while the repeats hit.
  ProfileCache cache;
  for (int c = 0; c < kCorpusRegimes; ++c) {
    const Instance inst =
        corpusInstance(deriveSeed(99u, static_cast<std::uint64_t>(c)), c);
    const FrOptResult cold = solveFrOpt(inst, FrOptOptions{});
    FrOptOptions withCache;
    withCache.sharedCache = &cache;
    const FrOptResult first = solveFrOpt(inst, withCache);
    const FrOptResult second = solveFrOpt(inst, withCache);
    EXPECT_EQ(first.totalAccuracy, cold.totalAccuracy) << "case " << c;
    EXPECT_EQ(second.totalAccuracy, cold.totalAccuracy) << "case " << c;
    for (int j = 0; j < inst.numTasks(); ++j) {
      for (int r = 0; r < inst.numMachines(); ++r) {
        EXPECT_EQ(first.schedule.at(j, r), cold.schedule.at(j, r));
        EXPECT_EQ(second.schedule.at(j, r), cold.schedule.at(j, r));
      }
    }
    EXPECT_EQ(first.counters.crossHits, 0) << "case " << c;
    EXPECT_GT(second.counters.crossHits, 0) << "case " << c;
  }
  EXPECT_EQ(cache.counters().invalidations, 0);
}

TEST(SlackCacheDifferential, CacheDistinguishesMachineStates) {
  // Same tasks, different machine state (one machine lost): the fingerprint
  // must differ, so nothing from the 2-machine solve can serve the
  // 1-machine solve.
  const Instance full = testing::tinyInstance(500.0);
  std::vector<Task> tasks = full.tasks();
  std::vector<Machine> degraded{full.machine(0)};
  const Instance reduced(tasks, degraded, 500.0);
  EXPECT_NE(instanceFingerprint(full), instanceFingerprint(reduced));

  ProfileCache cache;
  FrOptOptions withCache;
  withCache.sharedCache = &cache;
  const FrOptResult a = solveFrOpt(full, withCache);
  const FrOptResult b = solveFrOpt(reduced, withCache);
  EXPECT_EQ(b.counters.crossHits, 0);
  const FrOptResult coldReduced = solveFrOpt(reduced, FrOptOptions{});
  EXPECT_EQ(b.totalAccuracy, coldReduced.totalAccuracy);
  (void)a;
}

TEST(FrOptGolden, MidSizeObjectivePinned) {
  // Golden-value pin on one mid-size instance (n=60, Fig. 6b shape).
  // Guards the whole FR-OPT pipeline — naive profile, slack engine, pair
  // and direction searches — against silent numerical drift. Update the
  // constant only for a deliberate, understood algorithm change.
  const Instance inst = goldenMidSizeInstance();
  const FrOptResult result = solveFrOpt(inst);
  constexpr double kPinnedObjective = 14.418573205489668;
  EXPECT_NEAR(result.totalAccuracy, kPinnedObjective, 1e-9);
  EXPECT_LE(result.energy, inst.energyBudget() * (1.0 + 1e-9));
  // The pin must exercise the engine, not just agree on an idle refine.
  EXPECT_GT(result.counters.slackQueries, 0);
  EXPECT_GT(result.counters.slackHits, 0);
  EXPECT_GT(result.refineStats.transfers, 0);
}

}  // namespace
}  // namespace dsct
