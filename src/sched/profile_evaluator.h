// Profile-evaluation engine for DSCT-EA-FR-OPT's inner loop.
//
// Every step of the FR-OPT fixed-point iteration (expansion candidates, the
// pairwise transfer search, the direction search) asks the same question
// thousands of times: "what is the optimal total accuracy under per-machine
// load caps p?". Answering it from scratch re-flattens and re-sorts the
// segment jobs and materialises a full n×m schedule each time. This engine
// precomputes the sorted segment list once per instance, answers the
// accuracy question in a single fused pass (temporary deadlines →
// Algorithm 1 → accuracy, no schedule matrix), memoises answers keyed on
// the quantised profile vector, and exposes counters so benchmarks can see
// where the work goes. Batch evaluation optionally fans misses across a
// ThreadPool, whose workers read the sharded cross-solve cache; pooled and
// serial batches compute bit-identical values and commit cache writes
// single-threaded in index order, so results and cache contents are
// deterministic regardless of interleaving.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sched/energy_profile.h"
#include "sched/profile_cache.h"
#include "sched/schedule.h"
#include "sched/single_machine.h"
#include "sched/types.h"

namespace dsct {

class ThreadPool;

/// Observability counters for one evaluator (and, via FrOptResult, one
/// FR-OPT solve).
struct EvaluatorCounters {
  long long evaluations = 0;    ///< fused profile evaluations performed
  long long cacheHits = 0;      ///< memoised answers served
  long long scheduleSolves = 0; ///< full n×m schedule materialisations
};

class ProfileEvaluator {
 public:
  /// `shared` (optional, borrowed) is a cross-solve ProfileCache consulted
  /// on local-memo misses and fed every newly computed answer. Shared hits
  /// are bit-identical to fresh evaluations (exact-bit keys; see
  /// profile_cache.h), so attaching a cache never changes results. Stores
  /// happen on the coordinating thread only; lookups run there too, except
  /// in a pooled evaluateBatch, whose workers read it (the cache is sharded
  /// and thread-safe, so workers may read it concurrently).
  explicit ProfileEvaluator(const Instance& inst,
                            ProfileCache* shared = nullptr);

  ProfileEvaluator(const ProfileEvaluator&) = delete;
  ProfileEvaluator& operator=(const ProfileEvaluator&) = delete;

  const Instance& instance() const { return inst_; }

  /// Optimal total accuracy under per-machine load caps `profile`, without
  /// materialising the schedule. Pure and thread-safe; no memoisation.
  double evaluate(const EnergyProfile& profile) const;

  /// Memoised evaluate(). Not thread-safe — call from the coordinating
  /// thread only; worker threads use evaluate() or evaluateBatch().
  double cached(const EnergyProfile& profile);

  /// Evaluate many profiles, serving memoised answers and resolving the
  /// misses (shared-cache lookup, else evaluate) — in index order serially,
  /// or on the workers of `pool` when given. Resolved values are staged per
  /// index; a single-threaded commit phase then inserts new answers into
  /// both caches in index order. Pooled and serial batches produce
  /// bit-identical values *and* bit-identical cache contents — evaluations
  /// are pure functions of their profile, lookups never mutate, and every
  /// write happens in the index-ordered commit phase regardless of how the
  /// workers interleave (tests/sched_concurrent_cache_test.cpp).
  std::vector<double> evaluateBatch(std::span<const EnergyProfile> profiles,
                                    ThreadPool* pool);

  /// Full optimal schedule for `profile` (Algorithm 2's core), reusing the
  /// pre-sorted segment list. Thread-safe.
  FractionalSchedule schedule(const EnergyProfile& profile) const;

  /// Snapshot of the counters accumulated so far.
  EvaluatorCounters counters() const;

 private:
  using CacheKey = std::vector<std::int64_t>;
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const;
  };

  CacheKey keyOf(const EnergyProfile& profile) const;
  std::vector<double> workFor(const EnergyProfile& profile) const;

  const Instance& inst_;
  std::vector<SegmentJob> sortedSegments_;  ///< slope-desc, built once
  double quantum_;  ///< cache-key resolution (seconds of profile)

  ProfileCache* shared_;           ///< cross-solve cache (may be null)
  std::uint64_t fingerprint_ = 0;  ///< instance fingerprint (when shared)

  std::unordered_map<CacheKey, double, CacheKeyHash> cache_;
  mutable std::atomic<long long> evaluations_{0};
  mutable std::atomic<long long> scheduleSolves_{0};
  long long cacheHits_ = 0;
};

}  // namespace dsct
