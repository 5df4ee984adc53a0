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
// the quantised profile vector for the lifetime of one solve, and exposes
// counters so benchmarks can see where the work goes. Batch evaluation
// optionally fans misses across a ThreadPool; pooled and serial batches
// compute bit-identical values and commit memo writes single-threaded in
// index order, so results and memo contents are deterministic regardless
// of interleaving.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sched/energy_profile.h"
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
  explicit ProfileEvaluator(const Instance& inst);

  ProfileEvaluator(const ProfileEvaluator&) = delete;
  ProfileEvaluator& operator=(const ProfileEvaluator&) = delete;

  const Instance& instance() const { return inst_; }

  /// Optimal total accuracy under per-machine load caps `profile`, without
  /// materialising the schedule. Pure and thread-safe; no memoisation.
  double evaluate(const EnergyProfile& profile) const;

  /// Memoised evaluate(). Not thread-safe — call from the coordinating
  /// thread only; worker threads use evaluate() or evaluateBatch().
  double cached(const EnergyProfile& profile);

  /// Evaluate many profiles, serving memoised answers and evaluating the
  /// misses — in index order serially, or on the workers of `pool` when
  /// given. Fresh values are staged per index; a single-threaded commit
  /// phase then inserts them into the memo in index order, so two misses of
  /// one batch that share a quantised key are both evaluated fresh and the
  /// first one's value is memoised. Pooled and serial batches produce
  /// bit-identical values *and* bit-identical memo contents — evaluations
  /// are pure functions of their profile, and every write happens in the
  /// index-ordered commit phase regardless of how the workers interleave
  /// (tests/sched_concurrent_cache_test.cpp).
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

  std::unordered_map<CacheKey, double, CacheKeyHash> cache_;
  mutable std::atomic<long long> evaluations_{0};
  mutable std::atomic<long long> scheduleSolves_{0};
  long long cacheHits_ = 0;
};

}  // namespace dsct
