#pragma once
// Approximate subgraph counting via repeated colorful counts (Section 2):
// (k^k / k!) * E[colorful] equals the exact number of matches, so the mean
// over independent colorings converges to it. The coefficient of variation
// over trials is the precision metric of Section 8.6 / Figure 15.

#include <cstdint>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/util/fault.hpp"

namespace ccbt {

struct EstimatorOptions {
  int trials = 10;
  std::uint64_t seed = 1;

  /// Colorings per plan execution (the batch width B, capped at
  /// kMaxBatchLanes): trials are submitted in batches of min(batch,
  /// kMaxBatchLanes, remaining trials). An execution runs its colorings
  /// one after another, so per-trial colorful counts are identical to a
  /// batch of 1; the width only sets how many trials one execution
  /// carries, and with it how many a failed execution drops.
  int batch = 1;

  /// Deterministic estimator-level fault schedule: trial_fail_rate drops
  /// individual trials (a rank lost mid-trial, past engine recovery).
  /// Default spec injects nothing.
  FaultSpec faults;

  /// Degrade gracefully on lost trials: renormalize the mean over the
  /// survivors (unbiased — drops are decided by an independent fault
  /// stream, never by trial values), widen the reported confidence, and
  /// flag the result degraded. When false, any lost trial throws.
  bool allow_degraded = true;

  ExecOptions exec;
};

struct EstimatorResult {
  /// Estimated number of matches (injective mappings), mean over trials.
  double matches = 0.0;

  /// Estimated number of occurrences (= matches / aut(Q)).
  double occurrences = 0.0;

  std::uint64_t automorphisms = 1;
  double variance = 0.0;       // sample variance of per-trial estimates
  double cv = 0.0;             // stddev / mean (0 when the mean is 0)
  double variance_over_mean = 0.0;  // the paper's Fig 15 ratio
  std::vector<Count> colorful_per_trial;
  std::vector<double> estimate_per_trial;
  double total_wall_seconds = 0.0;

  /// Per-stage wall breakdown summed over every plan execution of the
  /// run (see ExecStats::stage) — what BENCH_batch.json attributes the
  /// batch-width speedup to.
  StageWall stage;

  // Degraded-mode accounting. matches/cv are computed over the surviving
  // trials only; cv_widened additionally inflates the uncertainty by
  // sqrt(planned / survivors) to reflect the thinner sample.
  int trials_planned = 0;
  int trials_dropped = 0;
  bool degraded = false;      // at least one trial was lost to a fault
  double cv_widened = 0.0;    // == cv when nothing was dropped
};

EstimatorResult estimate_matches(const CsrGraph& g, const QueryGraph& q,
                                 const EstimatorOptions& opts = {});

/// Estimator over a pre-built session (lets callers reuse plans).
EstimatorResult estimate_matches(const CountingSession& session,
                                 const EstimatorOptions& opts);

/// Adaptive stopping for the Section 8.6 workflow ("82% of combinations
/// reach cv <= 0.1 within three trials; 91% within ten"): keep adding
/// trials until the coefficient of variation of the per-trial estimates
/// falls to `target_cv`, bounded by [min_trials, max_trials].
struct AdaptiveOptions {
  double target_cv = 0.1;
  int min_trials = 3;
  int max_trials = 50;
  std::uint64_t seed = 1;

  /// Colorings per plan execution (see EstimatorOptions::batch). With
  /// batch > 1 the cv is tested at batch boundaries, so a run can
  /// overshoot the minimal trial count by at most batch - 1 trials.
  int batch = 1;

  /// Estimator-level fault schedule (see EstimatorOptions::faults). Lost
  /// trials do not count toward min_trials or convergence: the adaptive
  /// loop keeps going until enough trials *survive*.
  FaultSpec faults;

  /// See EstimatorOptions::allow_degraded.
  bool allow_degraded = true;

  ExecOptions exec;
};

struct AdaptiveResult {
  EstimatorResult estimate;
  int trials_used = 0;
  bool converged = false;  // hit target_cv before max_trials
};

AdaptiveResult estimate_matches_adaptive(const CountingSession& session,
                                         const AdaptiveOptions& opts = {});

AdaptiveResult estimate_matches_adaptive(const CsrGraph& g,
                                         const QueryGraph& q,
                                         const AdaptiveOptions& opts = {});

}  // namespace ccbt
