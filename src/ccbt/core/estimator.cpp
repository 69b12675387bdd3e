#include "ccbt/core/estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "ccbt/decomp/plan.hpp"
#include "ccbt/query/automorphism.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/rng.hpp"
#include "ccbt/util/stats.hpp"

namespace ccbt {

namespace {

/// The next batch's width: the user's cap, bounded by the lane limit and
/// the remaining trial count.
int next_batch_width(int remaining, int cap) {
  return std::min({remaining, std::max(cap, 1), kMaxBatchLanes});
}

/// Run `width` trials in one batched plan execution, drawing lane seeds
/// from `seeder` in trial order (so any batch decomposition consumes the
/// same seed sequence as width-1 runs) and appending per-lane results.
///
/// Degradation: per-lane fault fates roll BEFORE execution, so the seed
/// and fault streams stay aligned regardless of which trials survive —
/// drops are independent of trial values, keeping the survivor mean
/// unbiased. A retryable engine failure (recovery ladder exhausted)
/// drops the whole batch.
void run_batch(const CountingSession& session, Rng& seeder, FaultPlan& faults,
               bool allow_degraded, int width, double scale,
               EstimatorResult& r) {
  std::array<std::uint64_t, kMaxBatchLanes> seeds{};
  for (int l = 0; l < width; ++l) seeds[l] = seeder();
  std::array<bool, kMaxBatchLanes> lost{};
  for (int l = 0; l < width; ++l) lost[l] = faults.trial_fails();
  r.trials_planned += width;
  ExecStats stats;
  try {
    stats = session.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), width));
  } catch (const Error& e) {
    if (!e.retryable() || !allow_degraded) throw;
    r.trials_dropped += width;
    return;
  }
  for (int l = 0; l < width; ++l) {
    if (lost[l]) {
      if (!allow_degraded) {
        throw RankFailed("estimator: trial lost with degraded mode off");
      }
      ++r.trials_dropped;
      continue;
    }
    r.colorful_per_trial.push_back(stats.colorful_lane[l]);
    r.estimate_per_trial.push_back(
        static_cast<double>(stats.colorful_lane[l]) * scale);
  }
  r.total_wall_seconds += stats.wall_seconds;
  r.stage.add(stats.stage);
}

void finalize(const CountingSession& session, EstimatorResult& r) {
  if (r.estimate_per_trial.empty() && r.trials_dropped > 0) {
    throw Error(ErrorCode::kRetriesExhausted,
                "estimator: every trial was lost to faults");
  }
  const Summary summary = summarize(r.estimate_per_trial);
  r.matches = summary.mean;
  r.variance = summary.variance;
  r.cv = summary.cv();
  r.variance_over_mean =
      summary.mean == 0.0 ? 0.0 : summary.variance / summary.mean;
  r.automorphisms = count_automorphisms(session.query());
  r.occurrences = r.matches / static_cast<double>(r.automorphisms);
  r.degraded = r.trials_dropped > 0;
  const std::size_t survivors = r.estimate_per_trial.size();
  r.cv_widened =
      survivors == 0
          ? 0.0
          : r.cv * std::sqrt(static_cast<double>(r.trials_planned) /
                             static_cast<double>(survivors));
}

}  // namespace

EstimatorResult estimate_matches(const CountingSession& session,
                                 const EstimatorOptions& opts) {
  EstimatorResult result;
  const int k = session.query().num_nodes();
  const double scale = colorful_scale(k);
  Rng seeder(opts.seed);
  FaultPlan faults(opts.faults);

  int remaining = opts.trials;
  while (remaining > 0) {
    const int width = next_batch_width(remaining, opts.batch);
    run_batch(session, seeder, faults, opts.allow_degraded, width, scale,
              result);
    remaining -= width;
  }

  finalize(session, result);
  return result;
}

EstimatorResult estimate_matches(const CsrGraph& g, const QueryGraph& q,
                                 const EstimatorOptions& opts) {
  CountingSession session(g, q, make_plan(q), opts.exec);
  return estimate_matches(session, opts);
}

AdaptiveResult estimate_matches_adaptive(const CountingSession& session,
                                         const AdaptiveOptions& opts) {
  AdaptiveResult out;
  const int k = session.query().num_nodes();
  const double scale = colorful_scale(k);
  Rng seeder(opts.seed);
  FaultPlan faults(opts.faults);
  EstimatorResult& r = out.estimate;

  while (out.trials_used < opts.max_trials) {
    const int width =
        next_batch_width(opts.max_trials - out.trials_used, opts.batch);
    run_batch(session, seeder, faults, opts.allow_degraded, width, scale, r);
    out.trials_used += width;
    // Gate min_trials and the cv test on trials that SURVIVED — a thin
    // survivor set (worst case: one trial, whose sample cv is 0) must not
    // fake convergence.
    const int survivors = static_cast<int>(r.estimate_per_trial.size());
    if (survivors < opts.min_trials) continue;
    if (summarize(r.estimate_per_trial).cv() <= opts.target_cv) {
      out.converged = true;
      break;
    }
  }

  finalize(session, r);
  return out;
}

AdaptiveResult estimate_matches_adaptive(const CsrGraph& g,
                                         const QueryGraph& q,
                                         const AdaptiveOptions& opts) {
  CountingSession session(g, q, make_plan(q), opts.exec);
  return estimate_matches_adaptive(session, opts);
}

}  // namespace ccbt
