// Differential harness for the concurrency-safe cross-solve ProfileCache
// (the bit-identity contract): the same FR-OPT solve run serial and pooled
// (workers read the shared cache concurrently) must produce bitwise-equal
// schedules, objectives, and cache contents. Plus a seeded stress test that
// oversubscribes the pool (16 workers on however few cores the host has) and
// checks the hammered cache against a serial replay.
#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sched/fr_opt.h"
#include "sched/profile_cache.h"
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

TEST(ConcurrentCacheDifferential, PooledSharedCacheBitIdenticalAcrossCorpus) {
  // Serial and pooled runs (twice) over the seeded five-regime corpus, each
  // feeding its own fresh cache; pooled workers read the shared cache
  // concurrently. Everything observable must match —
  // including the caches' sizes, digests, and hit/miss/invalidation
  // counters. Only the contention counter may differ (it measures lock
  // timing, not content).
  ThreadPool pool(8);
  for (int c = 0; c < 3 * testing::kCorpusRegimes; ++c) {
    SCOPED_TRACE("corpus case " + std::to_string(c));
    const Instance inst = testing::corpusInstance(77, c);

    ProfileCache serialCache;
    FrOptOptions serialOpts;
    serialOpts.sharedCache = &serialCache;
    const FrOptResult serial = solveFrOpt(inst, serialOpts);

    ProfileCache pooledCache;
    FrOptOptions pooledOpts;
    pooledOpts.sharedCache = &pooledCache;
    pooledOpts.pool = &pool;
    const FrOptResult pooled = solveFrOpt(inst, pooledOpts);

    ProfileCache parallelCache;
    FrOptOptions parallelOpts;
    parallelOpts.sharedCache = &parallelCache;
    parallelOpts.pool = &pool;
    const FrOptResult parallel = solveFrOpt(inst, parallelOpts);

    expectBitIdentical(serial, pooled);
    expectBitIdentical(serial, parallel);

    EXPECT_EQ(serialCache.size(), pooledCache.size());
    EXPECT_EQ(serialCache.size(), parallelCache.size());
    EXPECT_EQ(serialCache.contentDigest(), pooledCache.contentDigest());
    EXPECT_EQ(serialCache.contentDigest(), parallelCache.contentDigest());

    const ProfileCacheCounters sc = serialCache.counters();
    const ProfileCacheCounters pc = parallelCache.counters();
    EXPECT_EQ(sc.hits, pc.hits);
    EXPECT_EQ(sc.misses, pc.misses);
    EXPECT_EQ(sc.invalidations, pc.invalidations);
    EXPECT_EQ(parallel.counters.crossShards,
              static_cast<long long>(parallelCache.shardCount()));
  }
}

TEST(ConcurrentCacheDifferential, CrossSolveReuseUnderParallelMode) {
  // Warm re-solve through the same cache on a pool: still
  // bit-identical, but it reuses earlier answers instead of recomputing.
  ThreadPool pool(8);
  const Instance inst = testing::corpusInstance(512, 7);
  ProfileCache cache;
  FrOptOptions opts;
  opts.sharedCache = &cache;
  opts.pool = &pool;

  const FrOptResult cold = solveFrOpt(inst, opts);
  const FrOptResult warm = solveFrOpt(inst, opts);
  expectBitIdentical(cold, warm);
  EXPECT_GT(warm.counters.crossHits, 0);
  EXPECT_LT(warm.counters.evaluations, cold.counters.evaluations);
}

TEST(ConcurrentCacheDifferential, EvaluateBatchParallelModeMatchesSerial) {
  // Direct evaluator-level check, away from FR-OPT's control flow: a batch
  // with deliberate exact duplicates, evaluated serially and on a pool
  // through fresh caches, must return bitwise-equal vectors and
  // leave bitwise-equal caches — cold and warm.
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

  ProfileCache serialCache;
  ProfileCache parallelCache;
  std::vector<double> serialCold;
  std::vector<double> parallelCold;
  {
    ProfileEvaluator serialEval(inst, &serialCache);
    serialCold = serialEval.evaluateBatch(profiles, nullptr);
    ProfileEvaluator parallelEval(inst, &parallelCache);
    parallelCold = parallelEval.evaluateBatch(profiles, &pool);
  }
  EXPECT_EQ(serialCold, parallelCold);
  EXPECT_EQ(serialCache.size(), parallelCache.size());
  EXPECT_EQ(serialCache.contentDigest(), parallelCache.contentDigest());

  // Warm pass through fresh evaluators (empty local memos, full shared
  // caches): identical answers again, and no new cache entries.
  const std::uint64_t digestBefore = parallelCache.contentDigest();
  ProfileEvaluator serialWarm(inst, &serialCache);
  ProfileEvaluator parallelWarm(inst, &parallelCache);
  EXPECT_EQ(serialWarm.evaluateBatch(profiles, nullptr), serialCold);
  EXPECT_EQ(parallelWarm.evaluateBatch(profiles, &pool), parallelCold);
  EXPECT_EQ(parallelCache.contentDigest(), digestBefore);
}

TEST(ConcurrentCacheDifferential, PooledBatchResolvesFromSharedCache) {
  // A pooled batch through a fresh evaluator (empty local memo) over a full
  // shared cache: every index is resolved by a worker-side shared-cache
  // lookup, so nothing is evaluated, nothing is stored, and the answers
  // equal the serial fill's bit for bit.
  const Instance inst = testing::goldenMidSizeInstance();
  ThreadPool pool(8);
  Rng rng(317);
  std::vector<EnergyProfile> profiles;
  for (int i = 0; i < 64; ++i) {
    profiles.push_back(
        EnergyProfile{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)});
  }
  ProfileCache cache;
  ProfileEvaluator filler(inst, &cache);
  const std::vector<double> serial = filler.evaluateBatch(profiles, nullptr);
  const std::size_t sizeBefore = cache.size();
  const std::uint64_t digestBefore = cache.contentDigest();
  const ProfileCacheCounters before = cache.counters();

  ProfileEvaluator pooled(inst, &cache);
  EXPECT_EQ(pooled.evaluateBatch(profiles, &pool), serial);
  EXPECT_EQ(pooled.counters().evaluations, 0);
  const ProfileCacheCounters after = cache.counters();
  EXPECT_EQ(after.hits - before.hits,
            static_cast<long long>(profiles.size()));
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(cache.size(), sizeBefore);
  EXPECT_EQ(cache.contentDigest(), digestBefore);
}

TEST(ConcurrentCacheStress, SeededOversubscribedHammerMatchesSerialReplay) {
  // 16 logical hammer tasks on whatever core count the host has (a single
  // core in CI — maximal oversubscription) mixing lookups and stores over a
  // small shared key space. Values are a pure function of the key, so every
  // hit can be checked in-flight; afterwards a serial replay of the same
  // seeded sequences must reproduce the cache contents exactly
  // (first-store-wins makes the final contents order-independent).
  constexpr int kTasks = 16;
  constexpr int kOpsPerTask = 4000;
  constexpr int kKeySpace = 97;
  const auto profileFor = [](int key) {
    return EnergyProfile{static_cast<double>(key), 0.5};
  };
  const auto valueFor = [](int key) {
    return static_cast<double>(key) * 1.25 + 0.125;
  };
  const auto fingerprintFor = [](int key) {
    return static_cast<std::uint64_t>(1000 + key);
  };

  ProfileCache hammered(1 << 20, 8);
  std::atomic<long long> lookups{0};
  {
    ThreadPool pool(16);
    pool.parallelFor(kTasks, [&](std::size_t t) {
      Rng rng(deriveSeed(909, static_cast<std::uint64_t>(t)));
      for (int op = 0; op < kOpsPerTask; ++op) {
        const int key = rng.uniformInt(0, kKeySpace - 1);
        if (rng.bernoulli(0.5)) {
          lookups.fetch_add(1, std::memory_order_relaxed);
          const auto hit = hammered.lookup(fingerprintFor(key), profileFor(key));
          if (hit.has_value()) {
            EXPECT_EQ(*hit, valueFor(key)) << "key " << key;
          }
        } else {
          hammered.store(fingerprintFor(key), profileFor(key), valueFor(key));
        }
      }
    });
  }

  // Serial replay of every task's sequence (stores only) into a
  // single-shard reference cache: same size, same content digest.
  ProfileCache reference(1 << 20, 1);
  long long replayedLookups = 0;
  for (int t = 0; t < kTasks; ++t) {
    Rng rng(deriveSeed(909, static_cast<std::uint64_t>(t)));
    for (int op = 0; op < kOpsPerTask; ++op) {
      const int key = rng.uniformInt(0, kKeySpace - 1);
      if (rng.bernoulli(0.5)) {
        ++replayedLookups;
      } else {
        reference.store(fingerprintFor(key), profileFor(key), valueFor(key));
      }
    }
  }
  EXPECT_EQ(hammered.size(), reference.size());
  EXPECT_EQ(hammered.contentDigest(), reference.contentDigest());

  const ProfileCacheCounters counters = hammered.counters();
  EXPECT_EQ(counters.hits + counters.misses, lookups.load());
  EXPECT_EQ(lookups.load(), replayedLookups);
  EXPECT_EQ(counters.invalidations, 0);  // key space far below capacity
}

}  // namespace
}  // namespace dsct
