// Differential harness for the evaluator's pooled batch mode (the
// bit-identity contract): the same FR-OPT solve run serial and pooled must
// produce bitwise-equal schedules, objectives, and work counters; a batch
// evaluated serially and on a pool must return bitwise-equal answers and
// leave equal memos, with intra-batch duplicate keys each evaluated fresh.
// Plus a seeded stress test that oversubscribes the pool (16 workers on
// however few cores the host has) calling the thread-safe evaluate()
// concurrently and checks every answer against a serial replay.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sched/fr_opt.h"
#include "sched/profile_evaluator.h"
#include "tests/test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dsct {
namespace {

void expectBitIdentical(const FrOptResult& a, const FrOptResult& b) {
  EXPECT_EQ(a.totalAccuracy, b.totalAccuracy);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.refinedProfile, b.refinedProfile);
  EXPECT_EQ(a.naiveProfile, b.naiveProfile);
  ASSERT_EQ(a.schedule.numTasks(), b.schedule.numTasks());
  ASSERT_EQ(a.schedule.numMachines(), b.schedule.numMachines());
  for (int j = 0; j < a.schedule.numTasks(); ++j) {
    for (int r = 0; r < a.schedule.numMachines(); ++r) {
      EXPECT_EQ(a.schedule.at(j, r), b.schedule.at(j, r))
          << "t[" << j << "][" << r << "]";
    }
  }
}

TEST(ConcurrentCacheDifferential, PooledSolveBitIdenticalAcrossCorpus) {
  // Serial and pooled runs (twice) over the seeded five-regime corpus.
  // Everything observable must match, including the evaluation and memo
  // counters: pooling changes where an evaluation runs, never which ones.
  ThreadPool pool(8);
  for (int c = 0; c < 3 * testing::kCorpusRegimes; ++c) {
    SCOPED_TRACE("corpus case " + std::to_string(c));
    const Instance inst = testing::corpusInstance(77, c);

    const FrOptResult serial = solveFrOpt(inst, FrOptOptions{});
    FrOptOptions pooledOpts;
    pooledOpts.pool = &pool;
    const FrOptResult pooled = solveFrOpt(inst, pooledOpts);
    const FrOptResult again = solveFrOpt(inst, pooledOpts);

    expectBitIdentical(serial, pooled);
    expectBitIdentical(serial, again);
    for (const FrOptResult* other : {&pooled, &again}) {
      EXPECT_EQ(serial.counters.evaluations, other->counters.evaluations);
      EXPECT_EQ(serial.counters.cacheHits, other->counters.cacheHits);
      EXPECT_EQ(serial.counters.scheduleSolves,
                other->counters.scheduleSolves);
    }
  }
}

TEST(ConcurrentCacheDifferential, EvaluateBatchParallelModeMatchesSerial) {
  // Direct evaluator-level check, away from FR-OPT's control flow: a batch
  // with deliberate exact duplicates, evaluated serially and on a pool
  // through fresh evaluators, must return bitwise-equal vectors after the
  // same number of evaluations — cold, and again warm from the memo.
  const Instance inst = testing::goldenMidSizeInstance();
  ThreadPool pool(16);
  Rng rng(313);
  std::vector<EnergyProfile> profiles;
  profiles.reserve(160);
  for (int i = 0; i < 160; ++i) {
    if (i >= 3 && i % 3 == 0) {
      profiles.push_back(profiles[static_cast<std::size_t>(i - 3)]);
    } else {
      profiles.push_back(
          EnergyProfile{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)});
    }
  }

  ProfileEvaluator serialEval(inst);
  ProfileEvaluator parallelEval(inst);
  const std::vector<double> serialCold =
      serialEval.evaluateBatch(profiles, nullptr);
  const std::vector<double> parallelCold =
      parallelEval.evaluateBatch(profiles, &pool);
  EXPECT_EQ(serialCold, parallelCold);
  // Duplicates inside one batch are all misses: every index evaluates.
  EXPECT_EQ(serialEval.counters().evaluations,
            static_cast<long long>(profiles.size()));
  EXPECT_EQ(parallelEval.counters().evaluations,
            serialEval.counters().evaluations);

  // Warm pass through the same evaluators: identical answers again, all of
  // them from the memo.
  EXPECT_EQ(serialEval.evaluateBatch(profiles, nullptr), serialCold);
  EXPECT_EQ(parallelEval.evaluateBatch(profiles, &pool), parallelCold);
  for (const ProfileEvaluator* eval : {&serialEval, &parallelEval}) {
    const EvaluatorCounters counters = eval->counters();
    EXPECT_EQ(counters.evaluations, static_cast<long long>(profiles.size()));
    EXPECT_EQ(counters.cacheHits, static_cast<long long>(profiles.size()));
  }
}

TEST(ConcurrentCacheDifferential, BatchDuplicateKeysEachEvaluateFresh) {
  // Two profiles one ulp apart share a quantised memo key. A batch over
  // {p1, p2} defers its memo inserts past the whole batch, so p2 is
  // evaluated fresh rather than served p1's answer; the index-ordered
  // commit then memoises p1's value under the shared key.
  const Instance inst = testing::tinyInstance(50.0);
  const EnergyProfile p1{0.7, 0.4};
  EnergyProfile p2 = p1;
  p2[0] = std::nextafter(p2[0], 1.0);
  const std::vector<EnergyProfile> profiles{p1, p2};

  ThreadPool pool(2);
  for (ThreadPool* batchPool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ProfileEvaluator evaluator(inst);
    const std::vector<double> out = evaluator.evaluateBatch(profiles,
                                                            batchPool);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], evaluator.evaluate(p1));
    EXPECT_EQ(out[1], evaluator.evaluate(p2));
    EXPECT_EQ(evaluator.counters().cacheHits, 0);
    EXPECT_EQ(evaluator.cached(p2), out[0]);
    EXPECT_EQ(evaluator.counters().cacheHits, 1);
  }
}

TEST(ConcurrentEvaluateStress, OversubscribedEvaluateMatchesSerialReplay) {
  // 16 logical tasks on a 16-worker pool (maximal oversubscription on a
  // small host) each call the thread-safe evaluate() on their own seeded
  // profile sequence through one shared evaluator. Every answer must equal
  // the serial replay's bit for bit, and the evaluation counter must count
  // every call exactly once.
  constexpr int kTasks = 16;
  constexpr int kOpsPerTask = 40;
  const Instance inst = testing::goldenMidSizeInstance();
  const auto profileFor = [](Rng& rng) {
    return EnergyProfile{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)};
  };

  ProfileEvaluator shared(inst);
  std::vector<std::vector<double>> concurrent(kTasks);
  {
    ThreadPool pool(16);
    pool.parallelFor(kTasks, [&](std::size_t t) {
      Rng rng(deriveSeed(909, static_cast<std::uint64_t>(t)));
      for (int op = 0; op < kOpsPerTask; ++op) {
        concurrent[t].push_back(shared.evaluate(profileFor(rng)));
      }
    });
  }
  EXPECT_EQ(shared.counters().evaluations,
            static_cast<long long>(kTasks) * kOpsPerTask);

  ProfileEvaluator reference(inst);
  for (int t = 0; t < kTasks; ++t) {
    Rng rng(deriveSeed(909, static_cast<std::uint64_t>(t)));
    for (int op = 0; op < kOpsPerTask; ++op) {
      EXPECT_EQ(concurrent[static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(op)],
                reference.evaluate(profileFor(rng)))
          << "task " << t << " op " << op;
    }
  }
}

}  // namespace
}  // namespace dsct
