#include "sched/profile_evaluator.h"

#include <algorithm>
#include <cmath>

#include "sched/naive_solution.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace dsct {

ProfileEvaluator::ProfileEvaluator(const Instance& inst) : inst_(inst) {
  sortedSegments_ = makeSegmentJobs(inst.tasks());
  sortSegmentJobs(sortedSegments_);
  // Key resolution well below any meaningful profile difference (the line
  // searches stop at 1e-12 of their interval) but coarse enough that a
  // re-evaluation of the same point hits the cache despite rounding noise.
  quantum_ = std::max(inst.maxDeadline(), 1e-9) * 1e-13;
}

std::size_t ProfileEvaluator::CacheKeyHash::operator()(
    const CacheKey& key) const {
  // FNV-1a over the quantised coordinates.
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t v : key) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

ProfileEvaluator::CacheKey ProfileEvaluator::keyOf(
    const EnergyProfile& profile) const {
  CacheKey key(profile.size());
  for (std::size_t r = 0; r < profile.size(); ++r) {
    key[r] = static_cast<std::int64_t>(std::llround(profile[r] / quantum_));
  }
  return key;
}

std::vector<double> ProfileEvaluator::workFor(
    const EnergyProfile& profile) const {
  const std::vector<double> temp = temporaryDeadlines(inst_, profile);
  return scheduleSingleMachineSorted(temp, 1.0, sortedSegments_);
}

double ProfileEvaluator::evaluate(const EnergyProfile& profile) const {
  DSCT_DCHECK(static_cast<int>(profile.size()) == inst_.numMachines());
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<double> work = workFor(profile);
  double total = 0.0;
  for (int j = 0; j < inst_.numTasks(); ++j) {
    total += inst_.task(j).accuracy.value(work[static_cast<std::size_t>(j)]);
  }
  return total;
}

double ProfileEvaluator::cached(const EnergyProfile& profile) {
  CacheKey key = keyOf(profile);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++cacheHits_;
    return it->second;
  }
  const double value = evaluate(profile);
  cache_.emplace(std::move(key), value);
  return value;
}

std::vector<double> ProfileEvaluator::evaluateBatch(
    std::span<const EnergyProfile> profiles, ThreadPool* pool) {
  std::vector<double> out(profiles.size(), 0.0);
  // Local-memo pass on the coordinating thread, in index order. Misses stay
  // pending; their memo inserts are deferred to the commit phase (see there).
  std::vector<std::size_t> pending;
  std::vector<CacheKey> pendingKeys;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    CacheKey key = keyOf(profiles[i]);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cacheHits_;
      out[i] = it->second;
      continue;
    }
    pending.push_back(i);
    pendingKeys.push_back(std::move(key));
  }

  // Evaluate the pending indices into per-index staging slots. Nothing
  // writes the memo here, so the interleaving of pool workers cannot
  // influence what any index resolves to.
  const auto resolve = [&](std::size_t k) {
    return evaluate(profiles[pending[k]]);
  };
  std::vector<double> staged;
  if (pool != nullptr && pending.size() > 1) {
    staged = pool->parallelMap(pending.size(), resolve);
  } else {
    staged.reserve(pending.size());
    for (std::size_t k = 0; k < pending.size(); ++k) {
      staged.push_back(resolve(k));
    }
  }

  // Commit phase: single-threaded, in index order — the only place the memo
  // is written, so its contents are identical pooled or serial. Deferring
  // the inserts past the whole batch means an intra-batch quantised-key
  // collision is evaluated fresh rather than served the earlier index's
  // value; emplace keeps the first index's value for later lookups.
  for (std::size_t k = 0; k < pending.size(); ++k) {
    out[pending[k]] = staged[k];
    cache_.emplace(std::move(pendingKeys[k]), staged[k]);
  }
  return out;
}

FractionalSchedule ProfileEvaluator::schedule(
    const EnergyProfile& profile) const {
  DSCT_DCHECK(static_cast<int>(profile.size()) == inst_.numMachines());
  scheduleSolves_.fetch_add(1, std::memory_order_relaxed);
  if (inst_.numTasks() == 0) {
    return FractionalSchedule(0, inst_.numMachines());
  }
  return distributeWork(inst_, profile, workFor(profile));
}

EvaluatorCounters ProfileEvaluator::counters() const {
  EvaluatorCounters c;
  c.evaluations = evaluations_.load(std::memory_order_relaxed);
  c.scheduleSolves = scheduleSolves_.load(std::memory_order_relaxed);
  c.cacheHits = cacheHits_;
  return c;
}

}  // namespace dsct
