#include "sim/serving.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accuracy/fit.h"
#include "core/solver_api.h"
#include "core/solver_registry.h"
#include "sched/validator.h"
#include "shard/coordinator.h"
#include "sim/renewable.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dsct::sim {

const char* toString(IncidentKind kind) {
  switch (kind) {
    case IncidentKind::kPolicyFailure: return "policy-failure";
    case IncidentKind::kPolicyTimeout: return "policy-timeout";
    case IncidentKind::kValidatorReject: return "validator-reject";
    case IncidentKind::kFallbackEngaged: return "fallback-engaged";
    case IncidentKind::kEmptySchedule: return "empty-schedule";
    case IncidentKind::kNoAliveMachines: return "no-alive-machines";
    case IncidentKind::kBudgetShock: return "budget-shock";
    case IncidentKind::kAdmissionShed: return "admission-shed";
    case IncidentKind::kMachineDeparted: return "machine-departed";
    case IncidentKind::kBatteryBudgetCapped: return "battery-budget-capped";
    case IncidentKind::kBatteryExhausted: return "battery-exhausted";
    case IncidentKind::kShardPriceDiverged: return "shard-price-diverged";
  }
  return "unknown";
}

namespace {

/// Resolve a solver name for serving and enforce the integral capability —
/// the executor needs a task→machine assignment, not a fractional profile.
const Solver& resolveServingSolver(const std::string& name) {
  const Solver& solver = SolverRegistry::instance().resolve(name);
  DSCT_ENSURE(solver.capabilities().integral,
              "serving policy '" << name
                                 << "' does not produce integral schedules");
  return solver;
}

/// Shared driver core; `budgetFor(epochStart, epochEnd)` supplies each
/// epoch's energy budget.
ServingStats runServingImpl(
    const std::vector<Machine>& machines, const std::string& policy,
    const ServingOptions& options,
    const std::function<double(double, double)>& budgetFor) {
  DSCT_ENSURE(!machines.empty(), "machines must not be empty");
  DSCT_ENSURE(
      std::isfinite(options.epochSeconds) && options.epochSeconds > 0.0,
      "epochSeconds must be finite and > 0, got " << options.epochSeconds);
  DSCT_ENSURE(
      std::isfinite(options.horizonSeconds) && options.horizonSeconds > 0.0,
      "horizonSeconds must be finite and > 0, got " << options.horizonSeconds);
  DSCT_ENSURE(options.shards >= 0,
              "shards must be >= 0, got " << options.shards);
  DSCT_ENSURE(std::isfinite(options.admissionLoadFactor) &&
                  options.admissionLoadFactor >= 0.0,
              "admissionLoadFactor must be finite and >= 0, got "
                  << options.admissionLoadFactor);
  const bool hasRequestTrace = !options.requestTrace.empty();
  if (hasRequestTrace) {
    DSCT_ENSURE(options.arrivalTimes.empty(),
                "requestTrace and arrivalTimes are mutually exclusive");
    for (std::size_t i = 0; i < options.requestTrace.size(); ++i) {
      const RequestSpec& spec = options.requestTrace[i];
      DSCT_ENSURE(spec.relDeadline > 0.0 && spec.theta > 0.0 &&
                      spec.missPenalty >= 0.0,
                  "requestTrace[" << i << "] has relDeadline "
                                  << spec.relDeadline << ", theta "
                                  << spec.theta << ", missPenalty "
                                  << spec.missPenalty);
      DSCT_ENSURE(i == 0 || options.requestTrace[i - 1].arrival <=
                                spec.arrival,
                  "requestTrace arrivals must be ascending");
    }
  } else if (options.arrivalTimes.empty()) {
    // The rate feeds the Poisson generator only; an explicit arrival trace
    // makes it irrelevant and must not be rejected.
    DSCT_ENSURE(options.arrivalRatePerSecond > 0.0,
                "arrivalRatePerSecond must be positive when no explicit "
                "arrivalTimes are supplied, got "
                    << options.arrivalRatePerSecond);
  }

  Rng rng(options.seed);
  // Arrival stream: a fully specified request trace, caller-provided times,
  // or a Poisson process.
  std::vector<double> arrivalTimes = options.arrivalTimes;
  if (hasRequestTrace) {
    arrivalTimes.reserve(options.requestTrace.size());
    for (const RequestSpec& spec : options.requestTrace) {
      arrivalTimes.push_back(spec.arrival);
    }
  } else if (arrivalTimes.empty()) {
    double t = rng.exponential(options.arrivalRatePerSecond);
    while (t < options.horizonSeconds) {
      arrivalTimes.push_back(t);
      t += rng.exponential(options.arrivalRatePerSecond);
    }
  } else {
    for (std::size_t i = 0; i + 1 < arrivalTimes.size(); ++i) {
      DSCT_ENSURE(arrivalTimes[i] <= arrivalTimes[i + 1],
                  "arrivalTimes must be ascending");
    }
  }

  // Fault event stream — generated only when enabled, so the default path
  // draws no extra random numbers and stays bit-identical to the pre-fault
  // driver.
  FaultTrace faults;
  if (options.faults.enabled) {
    const long long numEpochs = static_cast<long long>(
        std::ceil(options.horizonSeconds / options.epochSeconds));
    faults = FaultTrace::generate(static_cast<int>(machines.size()),
                                  options.horizonSeconds, numEpochs,
                                  options.faults);
  }
  // Availability layer (DESIGN.md §15): a seeded departure schedule at
  // whole-epoch granularity plus per-machine battery stores. Generated only
  // when enabled, so the default path draws no extra random numbers and
  // stays bit-identical to the pre-availability driver.
  AvailabilityTrace avail;
  BatteryModel battery;
  if (options.availability.enabled) {
    const long long numEpochs = static_cast<long long>(
        std::ceil(options.horizonSeconds / options.epochSeconds));
    avail = AvailabilityTrace::generate(
        static_cast<int>(machines.size()), options.horizonSeconds, numEpochs,
        options.epochSeconds, options.availability);
    if (avail.batteryActive()) {
      battery =
          BatteryModel(static_cast<int>(machines.size()), options.availability);
    }
  }
  // The fallback chain (try primary → validate → walk options.fallbackChain)
  // runs only when some guard is active; otherwise scheduling is a single
  // unguarded call exactly as before.
  const bool guarded =
      options.faults.enabled || options.epochTimeLimitSeconds > 0.0;

  // Resolve the primary policy and the fallback chain through the solver
  // registry up front, so a typo fails the run at epoch 0 rather than at the
  // first faulty epoch.
  const Solver& basePrimary = resolveServingSolver(policy);
  // Sharded serving wraps the primary in a run-local ShardedSolver: both
  // dispatch paths (the unguarded call and the guarded chain) then treat the
  // coordinated solve as a normal Solver. The coordinator is stateful
  // (per-cell caches, warm-start slots), which is safe here because the
  // driver runs one solve at a time. Fallback attempts keep using
  // registry solvers directly, so the safety net never depends on the shard
  // layer.
  std::unique_ptr<shard::ShardedSolver> shardedPrimary;
  if (options.shards > 1) {
    shard::ShardOptions shardOptions;
    shardOptions.cells = options.shards;
    shardOptions.seed = options.shardSeed;
    shardedPrimary =
        std::make_unique<shard::ShardedSolver>(basePrimary, shardOptions);
  }
  const Solver& primary =
      shardedPrimary != nullptr ? *shardedPrimary : basePrimary;
  std::vector<const Solver*> chain;
  chain.reserve(options.fallbackChain.size());
  for (const std::string& name : options.fallbackChain) {
    chain.push_back(&resolveServingSolver(name));
  }

  // Warm-slot demand is capability-driven: the chain only contributes in
  // guarded runs (it is never consulted otherwise), which keeps unguarded
  // runs bit-identical to the pre-registry driver for every policy.
  bool wantsLpWarm = primary.capabilities().usesLpWarmStart;
  if (guarded) {
    for (const Solver* fb : chain) {
      wantsLpWarm = wantsLpWarm || fb->capabilities().usesLpWarmStart;
    }
  }

  // Sharded runs get a worker pool of hardware-concurrency threads: the
  // coordinator fans the per-cell solves out on it (cells run their own
  // fan-outs inline on the workers). Pool placement never changes results —
  // reductions are index-ordered.
  std::unique_ptr<ThreadPool> solverPool;
  if (shardedPrimary != nullptr) solverPool = std::make_unique<ThreadPool>(0);
  // Cross-epoch LP warm-start slot: one epoch's optimal basis seeds the
  // next epoch's LP when the instance structure matches. The driver runs one
  // solve at a time, so the slot is never touched by two solves at once.
  std::optional<LpWarmStartSlot> lpWarmSlot;
  if (wantsLpWarm) lpWarmSlot.emplace();
  SolveContext solveCtx;
  solveCtx.frOpt.pool = solverPool.get();
  solveCtx.lpWarm = lpWarmSlot ? &*lpWarmSlot : nullptr;
  // Per-epoch availability hints, refilled before each epoch's solves and
  // handed only to capability-gated solvers.
  AvailabilityHints epochHints;
  // The context of one solve: the run's shared resources, `token` (null
  // means never cancel), and the epoch's availability hints when `solver`
  // honours them.
  const auto contextFor = [&](const Solver& solver, const CancelToken* token) {
    SolveContext ctx = solveCtx;
    ctx.cancel = token;
    if (!epochHints.machineEnergyCaps.empty() &&
        solver.capabilities().availabilityAware) {
      ctx.availability = &epochHints;
    }
    return ctx;
  };

  const auto nowSeconds = [&options]() {
    return options.clock ? options.clock() : steadyNowSeconds();
  };

  // In-flight requests. Without backlog carry-over a request lives for one
  // epoch; with it, a request re-enters later batches with its residual
  // accuracy function until its deadline passes or it is fully processed.
  // Fault recovery reuses the same residual path: an interrupted request
  // re-enters with its partial FLOPs until its retry budget runs out.
  struct Active {
    double arrival;
    double absoluteDeadline;
    PiecewiseLinearAccuracy accuracy;  ///< the request's full curve
    double flopsDone = 0.0;
    double lastFinish = 0.0;  ///< absolute completion time of the last slice
    int retryCount = 0;       ///< epochs in which this request was interrupted
    bool interrupted = false; ///< interrupted in the current epoch
    double missPenalty = 1.0; ///< SLA weight per missed deadline
  };
  std::vector<Active> active;
  std::size_t next = 0;  // next unconsumed arrival

  ServingStats stats;
  double accuracySum = 0.0;
  double latencySum = 0.0;
  const auto finalize = [&](const Active& req) {
    ++stats.requests;
    accuracySum += req.accuracy.value(req.flopsDone);
    if (req.flopsDone > 0.0) {
      ++stats.served;
      latencySum += req.lastFinish - req.arrival;
    } else if (hasRequestTrace &&
               req.absoluteDeadline <= options.horizonSeconds) {
      // SLA accounting for supplied traces: a request whose deadline expired
      // inside the horizon without receiving any service missed its SLA.
      // Only trace mode counts these — the legacy generator path keeps its
      // executed-late-only semantics bit-identically.
      ++stats.deadlineMisses;
      stats.missPenalty += req.missPenalty;
    }
  };

  // LP telemetry summed over every solve of the run (primary and fallback
  // alike); folded into ServingStats at the end.
  lp::LpCounters lpTotals;
  // Take one solve's outcome: fold its LP telemetry into the run totals and,
  // after a sharded primary solve (depth 0), the coordinator's per-solve
  // stats; a price loop that hit its cap outside the budget tolerance is
  // logged as an incident (payload: the accepted λ). Returns the schedule —
  // none when the solve was cancelled. A missing schedule otherwise throws,
  // which the guarded chain absorbs like any other policy failure.
  const auto takeOutcome =
      [&](const Solver& solver, SolveOutcome& outcome, int depth,
          long long epoch) -> std::optional<IntegralSchedule> {
    lpTotals.add(outcome.lpCounters);
    if (depth == 0 && shardedPrimary != nullptr) {
      const shard::ShardStats& ss = shardedPrimary->lastStats();
      ++stats.shardedEpochs;
      stats.shardPriceIterations += ss.priceIterations;
      stats.shardTopUpCells += ss.topUpCells;
      stats.shardTopUpEnergy += ss.topUpEnergy;
      if (!ss.converged) {
        ++stats.shardPriceDivergences;
        stats.incidents.push_back(
            {epoch, IncidentKind::kShardPriceDiverged, ss.finalPrice});
      }
    }
    if (outcome.cancelled()) return std::nullopt;
    DSCT_CHECK_MSG(outcome.schedule.has_value(),
                   "solver '" << solver.name()
                              << "' returned no integral schedule");
    return std::move(outcome.schedule);
  };
  // Iterate over the integer epoch index and derive both boundaries by
  // multiplication: accumulating `epochStart += epochSeconds` compounds one
  // rounding error per epoch, which can admit an arrival into the wrong
  // epoch or run one epoch too many/few over long horizons.
  for (long long epoch = 0;; ++epoch) {
    const double epochStart = static_cast<double>(epoch) * options.epochSeconds;
    if (epochStart >= options.horizonSeconds) break;
    const double epochEnd =
        static_cast<double>(epoch + 1) * options.epochSeconds;
    // Battery recharge at every epoch boundary — including idle or departed
    // epochs, before any early exits below, so a drained volunteer device
    // recovers while it sits out.
    if (battery.active() && epoch > 0) battery.recharge(options.epochSeconds);
    // Admit this epoch's arrivals. A request trace supplies the per-request
    // deadline/θ/penalty directly (no RNG draws); otherwise both are drawn
    // from the workload RNG exactly as before.
    while (next < arrivalTimes.size() && arrivalTimes[next] < epochEnd) {
      const double arrival = arrivalTimes[next];
      double relDeadline, theta, missPenalty;
      if (hasRequestTrace) {
        const RequestSpec& spec = options.requestTrace[next];
        relDeadline = spec.relDeadline;
        theta = spec.theta;
        missPenalty = spec.missPenalty;
      } else {
        relDeadline =
            rng.uniform(options.relDeadlineLo, options.relDeadlineHi);
        theta = rng.uniform(options.thetaLo, options.thetaHi);
        missPenalty = 1.0;
      }
      active.push_back(Active{
          arrival, arrival + relDeadline,
          makePaperAccuracy(options.amin, options.amax, theta,
                            options.segments),
          0.0, 0.0, 0, false, missPenalty});
      ++next;
    }
    if (active.empty()) continue;
    ++stats.epochs;

    // Retire requests; with carry-over, keep those that still have usable
    // time next epoch and remaining accuracy headroom. Interrupted requests
    // additionally re-enter (their residual suffix carries the partial
    // FLOPs) until the retry budget is exhausted.
    const auto retire = [&]() {
      std::vector<Active> carried;
      for (Active& req : active) {
        const bool complete =
            req.flopsDone >= req.accuracy.fmax() - 1e-9;
        const bool hasTimeNextEpoch =
            req.absoluteDeadline > epochEnd + options.epochSeconds;
        const bool nextEpochRuns =
            epochEnd + options.epochSeconds < options.horizonSeconds;
        const bool carryNormal = options.carryBacklog && !complete &&
                                 hasTimeNextEpoch && nextEpochRuns;
        // Battery exhaustion spills through the same retry path as crashes
        // (the executor flags cut tasks `interrupted` either way); both share
        // options.faults.maxRetries — identical to faults.maxRetries() when
        // the fault trace is enabled.
        const bool retryPathActive = faults.enabled() || battery.active();
        const bool carryRetry =
            retryPathActive && req.interrupted && !complete &&
            hasTimeNextEpoch && nextEpochRuns &&
            req.retryCount <= options.faults.maxRetries;
        if (carryNormal || carryRetry) {
          if (req.interrupted) {
            ++stats.retries;
            req.interrupted = false;
          }
          carried.push_back(std::move(req));
        } else {
          if (req.interrupted && !complete && hasTimeNextEpoch &&
              nextEpochRuns && req.retryCount > options.faults.maxRetries) {
            ++stats.abandoned;
          }
          finalize(req);
        }
      }
      active = std::move(carried);
    };

    // Replan against the machines that are actually in the fleet and alive
    // at the epoch boundary: departed machines (availability trace) are
    // excluded for the whole epoch, crashed machines until they recover; a
    // machine that recovers/returns mid-epoch rejoins next epoch.
    std::vector<int> aliveIdx;
    std::vector<Machine> aliveMachines;
    const bool filterMachines = faults.enabled() || avail.enabled();
    if (filterMachines) {
      int departedHere = 0;
      for (int r = 0; r < static_cast<int>(machines.size()); ++r) {
        if (!avail.presentInEpoch(r, epoch)) {
          ++departedHere;
          continue;
        }
        if (faults.enabled() && !faults.aliveAt(r, epochStart)) continue;
        aliveIdx.push_back(r);
        aliveMachines.push_back(machines[static_cast<std::size_t>(r)]);
      }
      if (departedHere > 0) {
        stats.machineDepartures += departedHere;
        stats.incidents.push_back({epoch, IncidentKind::kMachineDeparted,
                                   static_cast<double>(departedHere)});
      }
      if (aliveIdx.empty()) {
        ++stats.noMachineEpochs;
        stats.incidents.push_back(
            {epoch, IncidentKind::kNoAliveMachines, 0.0});
        retire();
        continue;
      }
    }
    const std::vector<Machine>& instMachines =
        filterMachines ? aliveMachines : machines;

    // Admission control: shed the requests with the least remaining accuracy
    // headroom when the batch exceeds the configured load factor.
    if (options.admissionLoadFactor > 0.0) {
      const std::size_t cap = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(options.admissionLoadFactor *
                                                static_cast<double>(
                                                    instMachines.size()))));
      if (active.size() > cap) {
        std::vector<std::size_t> byHeadroom(active.size());
        for (std::size_t i = 0; i < byHeadroom.size(); ++i) byHeadroom[i] = i;
        std::stable_sort(byHeadroom.begin(), byHeadroom.end(),
                         [&](std::size_t a, std::size_t b) {
                           const auto headroom = [&](const Active& req) {
                             return req.accuracy.amax() -
                                    req.accuracy.value(req.flopsDone);
                           };
                           return headroom(active[a]) > headroom(active[b]);
                         });
        std::vector<bool> keep(active.size(), false);
        for (std::size_t k = 0; k < cap; ++k) keep[byHeadroom[k]] = true;
        std::vector<Active> kept;
        kept.reserve(cap);
        int shedHere = 0;
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (keep[i]) {
            kept.push_back(std::move(active[i]));
          } else {
            finalize(active[i]);
            ++shedHere;
          }
        }
        active = std::move(kept);
        stats.shed += shedHere;
        stats.incidents.push_back({epoch, IncidentKind::kAdmissionShed,
                                   static_cast<double>(shedHere)});
      }
    }

    // Build a DSCT-EA instance with residual curves and deadlines relative
    // to the epoch end.
    std::vector<Task> tasks;
    tasks.reserve(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Active& req = active[i];
      const double rel = std::max(1e-3, req.absoluteDeadline - epochEnd);
      PiecewiseLinearAccuracy curve =
          req.flopsDone > 0.0 ? req.accuracy.suffix(req.flopsDone)
                              : req.accuracy;
      tasks.push_back(Task{rel, std::move(curve), "req-" + std::to_string(i)});
    }
    // Instance sorts by deadline; remember the active slot per sorted task.
    std::vector<std::size_t> order(active.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tasks[a].deadline < tasks[b].deadline;
                     });

    double budget = std::max(0.0, budgetFor(epochStart, epochEnd));
    const double shock = faults.budgetFactor(epoch);
    if (shock != 1.0) {
      budget *= shock;
      ++stats.budgetShockEpochs;
      stats.incidents.push_back({epoch, IncidentKind::kBudgetShock, shock});
    }
    // Battery coupling: the fleet cannot spend energy it has not stored, so
    // the epoch budget is capped at Σ charge over the present machines.
    // Per-machine caps are also handed to availability-aware solvers so they
    // can avoid over-assigning a nearly-empty machine in the first place.
    epochHints.machineEnergyCaps.clear();
    if (battery.active()) {
      double stored = 0.0;
      epochHints.machineEnergyCaps.reserve(aliveIdx.size());
      for (int r : aliveIdx) {
        const double charge = battery.charge(r);
        stored += charge;
        epochHints.machineEnergyCaps.push_back(charge);
      }
      if (options.availability.capGlobalBudget && stored < budget) {
        budget = stored;
        ++stats.batteryCappedEpochs;
        stats.incidents.push_back(
            {epoch, IncidentKind::kBatteryBudgetCapped, stored});
      }
    }
    Instance inst(tasks, instMachines, budget);

    // Schedule the epoch. Guarded mode wraps the primary policy in the
    // configurable fallback chain: exception / injected failure / solve-
    // budget timeout / validator rejection each demote the epoch to the
    // next chain entry, and if every entry is rejected too the epoch serves
    // an empty schedule rather than executing an infeasible one.
    IntegralSchedule sched = [&]() -> IntegralSchedule {
      if (!guarded) {
        SolveOutcome outcome =
            primary.solve(inst, contextFor(primary, nullptr));
        return *takeOutcome(primary, outcome, 0, epoch);
      }
      // depth 0 = the primary policy, depth k = the k-th fallback attempt.
      // Injected failures fail every attempt below the trace's
      // injectFailureDepth (default 1: primary only, the pre-chain
      // semantics); real exceptions keep the historical log shape and are
      // recorded for the primary only.
      //
      // The solve budget (epochTimeLimitSeconds) is shared by the whole
      // attempt chain and anchored at the moment the primary started. Each
      // attempt receives a CancelToken carrying the *remaining* budget,
      // polled cooperatively inside the solvers; once the budget is blown,
      // later attempts run unguarded (the chain must still serve the epoch,
      // and the blowout is already on the incident log).
      const bool limited = options.epochTimeLimitSeconds > 0.0;
      const double chainStart = limited ? nowSeconds() : 0.0;
      const double chainDeadline = chainStart + options.epochTimeLimitSeconds;
      const auto attempt =
          [&](const Solver& solver, int depth) -> std::optional<IntegralSchedule> {
        if (faults.policyFailureInjected(epoch) &&
            depth < faults.injectFailureDepth()) {
          ++stats.policyFailures;
          stats.incidents.push_back({epoch, IncidentKind::kPolicyFailure,
                                     static_cast<double>(depth)});
          return std::nullopt;
        }
        std::unique_ptr<CancelToken> token;
        double granted = std::numeric_limits<double>::infinity();
        double attemptStart = 0.0;
        if (limited) {
          attemptStart = nowSeconds();
          granted = chainDeadline - attemptStart;
          if (granted > 0.0) {
            token = std::make_unique<CancelToken>(granted, options.clock);
          }
        }
        std::optional<IntegralSchedule> s;
        bool cancelledOutcome = false;
        try {
          SolveOutcome outcome =
              solver.solve(inst, contextFor(solver, token.get()));
          cancelledOutcome = outcome.cancelled();
          // Inside the try: a missing schedule is a policy failure the
          // chain absorbs, same as any other solver exception.
          s = takeOutcome(solver, outcome, depth, epoch);
        } catch (const std::exception&) {
          if (depth == 0) {
            ++stats.policyFailures;
            stats.incidents.push_back(
                {epoch, IncidentKind::kPolicyFailure, 0.0});
          }
          return std::nullopt;
        }
        // An attempt times out when the solver observed its token and
        // stopped early (kCancelled), or — for slow non-cooperative spans —
        // when it ran past its granted budget post hoc. Unguarded attempts
        // (token == nullptr, budget already blown) are never flagged.
        const double elapsed = limited ? nowSeconds() - attemptStart : 0.0;
        if (cancelledOutcome || (token != nullptr && elapsed > granted)) {
          if (depth == 0) ++stats.policyFailures;
          ++stats.policyTimeouts;
          stats.incidents.push_back(
              {epoch, IncidentKind::kPolicyTimeout, elapsed, depth});
          return std::nullopt;
        }
        if (!validate(inst, *s).feasible) {
          ++stats.validatorRejections;
          stats.incidents.push_back(
              {epoch, IncidentKind::kValidatorReject, 0.0});
          return std::nullopt;
        }
        return s;
      };
      std::optional<IntegralSchedule> s = attempt(primary, 0);
      if (!s.has_value()) {
        int depth = 1;
        for (const Solver* fb : chain) {
          // A chain entry equal to the primary would just repeat the failed
          // attempt; skip it (this reproduces the historical "edf3 does not
          // fall back to itself" rule under the default chain). Sharded runs
          // compare against the inner solver — an unsharded retry of the
          // same algorithm is still the same failed attempt.
          if (fb == &basePrimary) continue;
          s = attempt(*fb, depth++);
          if (s.has_value()) {
            ++stats.fallbacks;
            stats.incidents.push_back(
                {epoch, IncidentKind::kFallbackEngaged, 0.0});
            break;
          }
        }
      }
      if (!s.has_value()) {
        ++stats.fallbacks;
        stats.incidents.push_back({epoch, IncidentKind::kEmptySchedule, 0.0});
        s = IntegralSchedule::build(
            inst,
            std::vector<int>(static_cast<std::size_t>(inst.numTasks()), -1),
            std::vector<double>(static_cast<std::size_t>(inst.numTasks()),
                                0.0));
      }
      return *std::move(s);
    }();

    FaultContext ctx;
    if (faults.enabled()) {
      ctx.trace = &faults;
      ctx.timeOffset = epochStart;
      ctx.machineMap = aliveIdx;
    }
    // Battery discounting: a machine whose store cannot cover the energy of
    // its assigned timeline is cut at the instant the store runs dry — the
    // same semantics as a crash, so the residual spills through the existing
    // retry/backlog path. Machines within their charge keep the exact
    // unfaulted execution (empty cut vector, +inf cuts elsewhere).
    if (battery.active()) {
      std::vector<double> cuts(instMachines.size(),
                               std::numeric_limits<double>::infinity());
      int exhaustedHere = 0;
      for (std::size_t i = 0; i < instMachines.size(); ++i) {
        const double power = instMachines[i].power();
        double assignedSeconds = 0.0;
        for (const ScheduledTask& e : sched.timeline(static_cast<int>(i))) {
          assignedSeconds += e.duration;
        }
        const double assigned = assignedSeconds * power;
        const double charge = battery.charge(aliveIdx[i]);
        if (assigned > charge + 1e-9) {
          cuts[i] = power > 0.0
                        ? charge / power
                        : std::numeric_limits<double>::infinity();
          ++exhaustedHere;
        }
      }
      if (exhaustedHere > 0) {
        ctx.energyCutSeconds = std::move(cuts);
        stats.batteryExhaustions += exhaustedHere;
        stats.incidents.push_back({epoch, IncidentKind::kBatteryExhausted,
                                   static_cast<double>(exhaustedHere)});
      }
    }
    // Execute and account: energy, per-request FLOPs and completion time,
    // interruptions, and deadline misses. `order` maps the instance's
    // deadline-sorted tasks to their slots in `active`.
    const ExecutionResult exec =
        executeSchedule(inst, sched, CommModel{}, ctx);
    stats.totalEnergy += exec.totalEnergy;
    for (int j = 0; j < inst.numTasks(); ++j) {
      const TaskExecution& te = exec.executions[static_cast<std::size_t>(j)];
      Active& req = active[order[static_cast<std::size_t>(j)]];
      if (te.executed && te.flops > 0.0) {
        req.flopsDone += te.flops;
        req.lastFinish = epochEnd + te.finish;
      }
      if (te.interrupted) {
        req.interrupted = true;
        ++req.retryCount;
        ++stats.interruptions;
      }
      if (!te.deadlineMet) {
        ++stats.deadlineMisses;
        stats.missPenalty += req.missPenalty;
      }
    }
    if (battery.active()) {
      // Drain by the energy actually consumed (busy seconds × power), which
      // a cut bounds at the machine's stored charge up to rounding.
      for (std::size_t i = 0; i < instMachines.size(); ++i) {
        battery.drain(aliveIdx[i],
                      exec.machineBusySeconds[i] * instMachines[i].power());
      }
    }

    retire();
  }
  // Horizon over: retire whatever is still in flight. Arrivals at or past the
  // horizon (possible with caller-provided times) are outside the simulation
  // and not counted.
  for (const Active& req : active) finalize(req);

  if (stats.requests > 0) {
    stats.meanAccuracy = accuracySum / static_cast<double>(stats.requests);
  }
  if (stats.served > 0) {
    stats.meanLatency = latencySum / static_cast<double>(stats.served);
  }
  stats.lpPivots = lpTotals.pivots;
  stats.lpRefactorizations = lpTotals.refactorizations;
  stats.lpWarmStartsUsed = lpTotals.warmStartsUsed;
  stats.lpWarmStartsRepaired = lpTotals.warmStartsRepaired;
  stats.lpWarmStartsRejected = lpTotals.warmStartsRejected;
  return stats;
}

}  // namespace

ServingStats runServing(const std::vector<Machine>& machines,
                        const std::string& policy,
                        const ServingOptions& options) {
  DSCT_ENSURE(std::isfinite(options.energyBudgetPerEpoch) &&
                  options.energyBudgetPerEpoch >= 0.0,
              "energyBudgetPerEpoch must be finite and >= 0, got "
                  << options.energyBudgetPerEpoch);
  return runServingImpl(machines, policy, options, [&options](double, double) {
    return options.energyBudgetPerEpoch;
  });
}

ServingStats runServing(const std::vector<Machine>& machines,
                        const std::string& policy,
                        const ServingOptions& options,
                        const PowerTrace& supply) {
  return runServingImpl(machines, policy, options,
                        [&supply](double epochStart, double epochEnd) {
                          return supply.energyBetween(epochStart, epochEnd);
                        });
}

}  // namespace dsct::sim
