// Fault-tolerance properties: deterministic injection (same seed, same
// faults, same counters), recovery transparency (a replayed run is
// bit-identical to the fault-free run, per lane, at every batch width),
// checkpoint integrity, and unbiased degraded-mode estimation.
//
// CI sweeps extra FaultPlan seeds through the CCBT_FAULT_SEED env var.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "ccbt/core/estimator.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/core/planted.hpp"
#include "ccbt/dist/checkpoint.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/dist/dist_primitives.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/fault.hpp"
#include "unique_rows.hpp"

namespace ccbt {
namespace {

// ---------------------------------------------------------------------
// FaultPlan: the schedule is a pure function of the spec.

FaultSpec lossy_spec(std::uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.drop_rate = 0.10;
  s.dup_rate = 0.08;
  s.delay_rate = 0.08;
  s.stall_rate = 0.02;
  s.alloc_fail_rate = 0.02;
  return s;
}

TEST(FaultPlan, SameSeedSameSchedule) {
  FaultPlan a(lossy_spec(42)), b(lossy_spec(42));
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.message_fate(), b.message_fate()) << "event " << i;
    EXPECT_EQ(a.rank_stalls(), b.rank_stalls()) << "event " << i;
    EXPECT_EQ(a.alloc_fails(), b.alloc_fails()) << "event " << i;
    EXPECT_EQ(a.trial_fails(), b.trial_fails()) << "event " << i;
  }
  EXPECT_EQ(a.stats().faults_injected, b.stats().faults_injected);
  EXPECT_GT(a.stats().faults_injected, 0u);
  EXPECT_GT(a.stats().drops, 0u);
  EXPECT_GT(a.stats().dups, 0u);
  EXPECT_GT(a.stats().delays, 0u);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlan a(lossy_spec(1)), b(lossy_spec(2));
  int differing = 0;
  for (int i = 0; i < 2000; ++i) {
    differing += a.message_fate() != b.message_fate() ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, RatesApproximatelyRespected) {
  FaultPlan p(lossy_spec(7));
  const int n = 20000;
  for (int i = 0; i < n; ++i) p.message_fate();
  // drop+dup+delay = 0.26; a 20k-sample Bernoulli mean is within ~1%.
  const double observed =
      static_cast<double>(p.stats().faults_injected) / n;
  EXPECT_NEAR(observed, 0.26, 0.02);
}

TEST(FaultPlan, MaxFaultsBudgetCapsInjection) {
  FaultSpec s = lossy_spec(3);
  s.max_faults = 5;
  FaultPlan p(s);
  for (int i = 0; i < 5000; ++i) p.message_fate();
  EXPECT_EQ(p.stats().faults_injected, 5u);
}

TEST(FaultPlan, DefaultSpecInjectsNothing) {
  FaultPlan p{FaultSpec{}};
  EXPECT_FALSE(p.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p.message_fate(), FaultPlan::Fate::kDeliver);
    EXPECT_FALSE(p.rank_stalls());
    EXPECT_FALSE(p.alloc_fails());
    EXPECT_FALSE(p.trial_fails());
  }
  EXPECT_EQ(p.stats().faults_injected, 0u);
}

TEST(FaultBackoff, GrowsExponentiallyWithinJitterBounds) {
  Rng jitter(9);
  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    const double ms = fault_backoff_ms(2.0, attempt, jitter);
    const double base = 2.0 * static_cast<double>(1u << attempt);
    EXPECT_GE(ms, 0.5 * base);
    EXPECT_LT(ms, 1.5 * base);
  }
}

// ---------------------------------------------------------------------
// Typed errors.

TEST(ErrorCodes, RetryableClassification) {
  EXPECT_TRUE(error_code_retryable(ErrorCode::kCommTimeout));
  EXPECT_TRUE(error_code_retryable(ErrorCode::kRankFailed));
  EXPECT_TRUE(error_code_retryable(ErrorCode::kAllocFailed));
  EXPECT_FALSE(error_code_retryable(ErrorCode::kGeneric));
  EXPECT_FALSE(error_code_retryable(ErrorCode::kUnsupportedQuery));
  EXPECT_FALSE(error_code_retryable(ErrorCode::kBudgetExceeded));
  EXPECT_FALSE(error_code_retryable(ErrorCode::kCheckpointCorrupt));
  EXPECT_FALSE(error_code_retryable(ErrorCode::kRetriesExhausted));
}

TEST(ErrorCodes, SubclassesCarryTheirCodes) {
  EXPECT_EQ(UnsupportedQuery("x").code(), ErrorCode::kUnsupportedQuery);
  EXPECT_EQ(BudgetExceeded("x").code(), ErrorCode::kBudgetExceeded);
  EXPECT_EQ(CommTimeout("x").code(), ErrorCode::kCommTimeout);
  EXPECT_EQ(RankFailed("x").code(), ErrorCode::kRankFailed);
  EXPECT_EQ(CheckpointCorrupt("x").code(), ErrorCode::kCheckpointCorrupt);
  EXPECT_TRUE(CommTimeout("x").retryable());
  EXPECT_FALSE(BudgetExceeded("x").retryable());
}

TEST(ErrorCodes, ChainingPrependsContextAndKeepsCode) {
  const CommTimeout cause("superstep delivery failed after 4 attempts");
  const Error chained("run_plan_distributed: block 3", cause);
  EXPECT_EQ(chained.code(), ErrorCode::kCommTimeout);
  EXPECT_TRUE(chained.retryable());
  EXPECT_STREQ(chained.what(),
               "run_plan_distributed: block 3: superstep delivery failed "
               "after 4 attempts");
}

// ---------------------------------------------------------------------
// Checkpoint shard images: roundtrip and corruption detection.

ProjTable make_sealed_shard(int rows) {
  std::vector<TableEntry> entries;
  for (int i = 0; i < rows; ++i) {
    TableEntry e;
    e.key.v[0] = static_cast<VertexId>((rows - i) * 3);
    e.key.v[1] = static_cast<VertexId>(i);
    e.key.sig = static_cast<Signature>(i & 0x1f);
    // Counts past u16 and past u32 next to small ones.
    const Count base[] = {0, 0x10000ull, 0x100000000ull};
    e.cnt = base[i % 3] + static_cast<Count>(i + 1);
    entries.push_back(e);
  }
  return sink_table(2, entries, /*num_vertices=*/1000);
}

std::vector<TableEntry> rows_of(const ProjTable& t) {
  std::vector<TableEntry> out;
  t.for_each_entry([&](const TableEntry& e) { out.push_back(e); });
  return out;
}

void expect_same_rows(const std::vector<TableEntry>& got,
                      const std::vector<TableEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "row " << i;
    EXPECT_EQ(got[i].cnt, want[i].cnt) << "row " << i;
  }
}

TEST(Checkpoint, ShardRoundtrip) {
  const ProjTable shard = make_sealed_shard(64);
  const std::vector<std::uint8_t> image = checkpoint_encode_shard(shard);
  EXPECT_EQ(image.size(), 12 + 28 * shard.size());
  expect_same_rows(checkpoint_decode_shard(image), rows_of(shard));

  const std::vector<std::uint8_t> empty =
      checkpoint_encode_shard(ProjTable(2));
  EXPECT_EQ(empty.size(), 12u);
  EXPECT_TRUE(checkpoint_decode_shard(empty).empty());
}

TEST(Checkpoint, RecordsHoldEveryCountAndWideKeys) {
  // Counts at the edges of u16, u32 and u64, a key with both tracked
  // slots set and a signature past 8 bits: each record keeps them whole.
  std::vector<TableEntry> rows;
  VertexId v = 0;
  for (const Count c : {Count{0}, Count{0xFFFF}, Count{0x10000},
                        Count{0xFFFFFFFF}, Count{1} << 32, ~Count{0}}) {
    TableEntry e;
    e.key.v[0] = v;
    e.key.v[1] = v + 1;
    e.key.sig = 0b11;
    e.cnt = c;
    rows.push_back(e);
    ++v;
  }
  TableEntry wide;
  wide.key.v = {0x0FFFFFFEu, 7, 0x12345678u, 0xFFFFFFFEu};
  wide.key.sig = 0x1FF03;
  wide.cnt = 0x0102030405060708ull;
  rows.push_back(wide);
  // A graph large enough for the wide key's ids.
  const ProjTable shard = sink_table(4, rows, 0x0FFFFFFF);

  const std::vector<std::uint8_t> image = checkpoint_encode_shard(shard);
  ASSERT_EQ(image.size(), 12 + 28 * rows.size());
  expect_same_rows(checkpoint_decode_shard(image), rows_of(shard));

  // The header and the last record (the wide key sorts last), word by
  // word: magic, rows, then v0 v1 v2 v3 sig as u32 and the count as u64.
  std::uint32_t magic = 0;
  std::uint64_t n = 0;
  std::memcpy(&magic, image.data(), 4);
  std::memcpy(&n, image.data() + 4, 8);
  EXPECT_EQ(magic, kCheckpointMagic);
  EXPECT_EQ(n, rows.size());
  const std::uint8_t* rec = image.data() + 12 + 28 * (rows.size() - 1);
  std::array<std::uint32_t, 5> words{};
  std::memcpy(words.data(), rec, 20);
  Count cnt = 0;
  std::memcpy(&cnt, rec + 20, 8);
  EXPECT_EQ(words, (std::array<std::uint32_t, 5>{0x0FFFFFFEu, 7, 0x12345678u,
                                                 0xFFFFFFFEu, 0x1FF03}));
  EXPECT_EQ(cnt, wide.cnt);
}

TEST(Checkpoint, CorruptionIsDetected) {
  std::vector<std::uint8_t> image =
      checkpoint_encode_shard(make_sealed_shard(16));

  std::vector<std::uint8_t> bad_magic = image;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(checkpoint_decode_shard(bad_magic), CheckpointCorrupt);

  // One byte short, a record and a half short, and one byte long of
  // 12 + 28 x rows.
  std::vector<std::uint8_t> short_one(image.begin(), image.end() - 1);
  EXPECT_THROW(checkpoint_decode_shard(short_one), CheckpointCorrupt);
  std::vector<std::uint8_t> truncated(image.begin(), image.end() - 42);
  EXPECT_THROW(checkpoint_decode_shard(truncated), CheckpointCorrupt);
  std::vector<std::uint8_t> long_one = image;
  long_one.push_back(0);
  EXPECT_THROW(checkpoint_decode_shard(long_one), CheckpointCorrupt);

  EXPECT_THROW(checkpoint_decode_shard(std::vector<std::uint8_t>(5)),
               CheckpointCorrupt);
  EXPECT_THROW(checkpoint_decode_shard(std::vector<std::uint8_t>(11)),
               CheckpointCorrupt);

  // A row count far past what the bytes hold fails typed, before any
  // reservation sized by it (2^62 rows would be a length_error, 2^40 a
  // bad_alloc), and so does one a record off either way.
  for (const std::uint64_t rows :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 40, std::uint64_t{17},
        std::uint64_t{15}}) {
    std::vector<std::uint8_t> miscounted = image;
    std::memcpy(miscounted.data() + sizeof(std::uint32_t), &rows,
                sizeof(rows));
    EXPECT_THROW(checkpoint_decode_shard(miscounted), CheckpointCorrupt)
        << rows << " rows";
  }
}

TEST(Checkpoint, PoolImageIsItsShardRecords) {
  // A stored table's checkpoint costs 12 + 28 x rows per shard, and
  // restoring it gives back the same shards row for row, indexed alike.
  constexpr std::uint32_t kRanks = 3;
  constexpr VertexId kDomain = 300;
  std::vector<ProjTable> shards;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    shards.push_back(make_sealed_shard(static_cast<int>(10 + 7 * r)));
  }
  shards.push_back(ProjTable(2));  // an empty rank
  dist::DistPool pool(/*num_blocks=*/2, kDomain);
  pool.store(0, DistTable::from_shards(2, /*home_slot=*/0, shards));
  const CheckpointImage img = pool.checkpoint(/*next_block=*/1, 0);
  const DistTable& stored = pool.get(0);
  std::uint64_t want = 0;
  for (std::uint32_t r = 0; r < stored.num_shards(); ++r) {
    want += 12 + 28 * stored.shard(r).size();
  }
  EXPECT_EQ(img.bytes(), want);

  dist::DistPool restored(/*num_blocks=*/2, kDomain);
  restored.restore(img, stored.num_shards());
  for (std::uint32_t r = 0; r < stored.num_shards(); ++r) {
    const ProjTable& got = restored.get(0).shard(r);
    expect_same_rows(rows_of(got), rows_of(stored.shard(r)));
    EXPECT_EQ(got.order(), SortOrder::kByV0);
    EXPECT_TRUE(got.has_bucket_index());
    for (VertexId v = 0; v < kDomain; ++v) {
      EXPECT_EQ(got.group_span(0, v), stored.shard(r).group_span(0, v))
          << "shard " << r << " bucket " << v;
    }
  }
}

// ---------------------------------------------------------------------
// The headline property: a faulty run that recovers (retransmit and/or
// replay) reproduces the fault-free per-lane counts bit for bit.

std::vector<std::uint64_t> extra_sweep_seeds() {
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("CCBT_FAULT_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  }
  return seeds;
}

/// A batch's lanes run one after another on one replay budget, so it
/// grants 8 replays per coloring of a `width`-lane batch.
ExecOptions faulty_opts(std::uint64_t seed, int width = 1) {
  ExecOptions opts;
  opts.dist.faults = lossy_spec(seed);
  opts.dist.max_retries = 8;
  opts.dist.max_replays = 8 * width;
  opts.dist.checkpoint_interval = 4;
  return opts;
}

TEST(FaultRecovery, ReplayBitIdenticalAcrossBatchWidths) {
  const CsrGraph g = erdos_renyi(36, 130, 5);
  const QueryGraph q = named_query("ecoli1");
  const Plan plan = make_plan(q);

  std::vector<std::uint64_t> seeds = {11, 12, 13};
  for (std::uint64_t s : extra_sweep_seeds()) seeds.push_back(s);

  for (int width : {1, 2, 4, 8}) {
    std::vector<Coloring> lanes;
    for (int l = 0; l < width; ++l) {
      lanes.emplace_back(g.num_vertices(), q.num_nodes(), 900 + l);
    }
    const ColoringBatch batch{std::span<const Coloring>(lanes)};
    const DistStats clean =
        run_plan_distributed(g, plan.tree, batch, /*ranks=*/5, {});
    ASSERT_EQ(clean.faults.faults_injected, 0u);

    std::uint64_t total_faults = 0, total_recoveries = 0;
    for (std::uint64_t seed : seeds) {
      const DistStats faulty = run_plan_distributed(
          g, plan.tree, batch, /*ranks=*/5, faulty_opts(seed, width));
      for (int l = 0; l < width; ++l) {
        EXPECT_EQ(faulty.colorful_lane[l], clean.colorful_lane[l])
            << "B=" << width << " seed=" << seed << " lane " << l;
      }
      total_faults += faulty.faults.faults_injected;
      total_recoveries += faulty.faults.retries + faulty.faults.replays;
    }
    // The sweep must actually exercise the recovery machinery.
    EXPECT_GT(total_faults, 0u) << "B=" << width;
    EXPECT_GT(total_recoveries, 0u) << "B=" << width;
  }
}

TEST(FaultRecovery, CheckpointReplayRecoversAllocFailures) {
  // Alloc-failure-only schedule: recovery comes purely from the
  // checkpoint-replay layer (no transport faults to retransmit).
  const CsrGraph g = erdos_renyi(32, 110, 6);
  const QueryGraph q = named_query("glet2");
  const Plan plan = make_plan(q);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 77);
  const DistStats clean = run_plan_distributed(g, plan.tree, chi, 4, {});

  std::uint64_t total_replays = 0;
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    ExecOptions opts;
    opts.dist.faults.seed = seed;
    opts.dist.faults.alloc_fail_rate = 0.05;
    opts.dist.max_replays = 16;
    opts.dist.checkpoint_interval = 2;
    const DistStats faulty =
        run_plan_distributed(g, plan.tree, chi, 4, opts);
    EXPECT_EQ(faulty.colorful, clean.colorful) << "seed " << seed;
    total_replays += faulty.faults.replays;
    if (faulty.faults.replays > 0) {
      EXPECT_TRUE(faulty.recovered());
      EXPECT_GT(faulty.faults.checkpoints_taken, 0u);
      EXPECT_GT(faulty.faults.checkpoint_bytes, 0u);
    }
  }
  EXPECT_GT(total_replays, 0u);
}

TEST(FaultRecovery, SameSeedSameCounters) {
  const CsrGraph g = erdos_renyi(30, 100, 8);
  const QueryGraph q = named_query("glet1");
  const Plan plan = make_plan(q);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 5);

  const DistStats a =
      run_plan_distributed(g, plan.tree, chi, 4, faulty_opts(99));
  const DistStats b =
      run_plan_distributed(g, plan.tree, chi, 4, faulty_opts(99));
  EXPECT_EQ(a.colorful, b.colorful);
  EXPECT_EQ(a.faults.faults_injected, b.faults.faults_injected);
  EXPECT_EQ(a.faults.drops, b.faults.drops);
  EXPECT_EQ(a.faults.dups, b.faults.dups);
  EXPECT_EQ(a.faults.delays, b.faults.delays);
  EXPECT_EQ(a.faults.stalls, b.faults.stalls);
  EXPECT_EQ(a.faults.alloc_fails, b.faults.alloc_fails);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.replays, b.faults.replays);
  EXPECT_EQ(a.faults.retransmit_bytes, b.faults.retransmit_bytes);
  EXPECT_EQ(a.faults.checkpoints_taken, b.faults.checkpoints_taken);
  EXPECT_EQ(a.faults.checkpoint_bytes, b.faults.checkpoint_bytes);
  EXPECT_EQ(a.transport.supersteps, b.transport.supersteps);
  EXPECT_DOUBLE_EQ(a.faults.backoff_virtual_ms, b.faults.backoff_virtual_ms);
}

TEST(FaultRecovery, FaultFreePathReportsZeroFaultStats) {
  const CsrGraph g = erdos_renyi(24, 70, 9);
  const QueryGraph q = q_cycle(5);
  const DistStats d = run_plan_distributed(
      g, make_plan(q).tree, Coloring(g.num_vertices(), 5, 1), 4, {});
  EXPECT_EQ(d.faults.faults_injected, 0u);
  EXPECT_EQ(d.faults.retries, 0u);
  EXPECT_EQ(d.faults.replays, 0u);
  EXPECT_EQ(d.faults.checkpoints_taken, 0u);
  EXPECT_FALSE(d.recovered());
}

TEST(FaultRecovery, ExhaustedBudgetsThrowRetryableChainedError) {
  const CsrGraph g = erdos_renyi(24, 70, 10);
  const QueryGraph q = q_cycle(5);
  const Plan plan = make_plan(q);
  const Coloring chi(g.num_vertices(), 5, 2);
  ExecOptions opts;
  opts.dist.faults.seed = 1;
  opts.dist.faults.drop_rate = 0.9;
  opts.dist.max_retries = 1;
  opts.dist.max_replays = 1;
  try {
    run_plan_distributed(g, plan.tree, chi, 4, opts);
    FAIL() << "expected the recovery budget to be exhausted";
  } catch (const Error& e) {
    EXPECT_TRUE(e.retryable()) << error_code_name(e.code());
    EXPECT_NE(std::string(e.what()).find("replay budget exhausted"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Degraded-mode estimation.

TEST(DegradedEstimator, SurvivorsMatchFaultFreeTrialsExactly) {
  // Lane fates are decided by an independent stream before execution, so
  // the degraded run's surviving estimates are exactly the fault-free
  // run's per-trial sequence with the dropped indices removed.
  const CsrGraph g = erdos_renyi(36, 120, 14);
  const QueryGraph q = q_cycle(4);
  EstimatorOptions clean_opts;
  clean_opts.trials = 32;
  clean_opts.seed = 7;
  clean_opts.batch = 4;
  const EstimatorResult clean = estimate_matches(g, q, clean_opts);
  EXPECT_FALSE(clean.degraded);
  EXPECT_EQ(clean.trials_dropped, 0);
  EXPECT_EQ(clean.trials_planned, 32);
  EXPECT_DOUBLE_EQ(clean.cv_widened, clean.cv);

  EstimatorOptions opts = clean_opts;
  opts.faults.seed = 3;
  opts.faults.trial_fail_rate = 0.25;
  const EstimatorResult degraded = estimate_matches(g, q, opts);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_GT(degraded.trials_dropped, 0);
  EXPECT_EQ(degraded.trials_planned, 32);
  EXPECT_EQ(static_cast<int>(degraded.estimate_per_trial.size()),
            32 - degraded.trials_dropped);
  EXPECT_GT(degraded.cv_widened, degraded.cv);

  // Survivor subsequence check: replay the fault stream to find which
  // trials were dropped.
  FaultPlan replayed(opts.faults);
  std::size_t d = 0;
  for (int t = 0; t < 32; ++t) {
    if (replayed.trial_fails()) continue;
    ASSERT_LT(d, degraded.estimate_per_trial.size());
    EXPECT_DOUBLE_EQ(degraded.estimate_per_trial[d],
                     clean.estimate_per_trial[t])
        << "trial " << t;
    ++d;
  }
  EXPECT_EQ(d, degraded.estimate_per_trial.size());
}

TEST(DegradedEstimator, UnbiasedOnPlantedGraph) {
  const QueryGraph q = q_cycle(4);
  const PlantedGraph pg = plant_copies(q, 12, 220, 150, 31);
  const Count exact = count_matches_exact(pg.graph, q);
  EstimatorOptions opts;
  opts.trials = 300;
  opts.seed = 17;
  opts.batch = 8;
  opts.faults.seed = 5;
  opts.faults.trial_fail_rate = 0.2;
  const EstimatorResult r = estimate_matches(pg.graph, q, opts);
  EXPECT_TRUE(r.degraded);
  const int survivors = r.trials_planned - r.trials_dropped;
  ASSERT_GT(survivors, 0);
  const double stderr_est =
      std::sqrt(r.variance / static_cast<double>(survivors));
  EXPECT_NEAR(r.matches, static_cast<double>(exact), 4.0 * stderr_est + 1.0);
}

TEST(DegradedEstimator, AllTrialsLostThrowsRetriesExhausted) {
  const CsrGraph g = erdos_renyi(20, 50, 2);
  EstimatorOptions opts;
  opts.trials = 8;
  opts.faults.trial_fail_rate = 1.0;
  try {
    estimate_matches(g, q_cycle(3), opts);
    FAIL() << "expected kRetriesExhausted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRetriesExhausted);
  }
}

TEST(DegradedEstimator, DegradedModeOffThrows) {
  const CsrGraph g = erdos_renyi(20, 50, 2);
  EstimatorOptions opts;
  opts.trials = 32;
  opts.faults.seed = 4;
  opts.faults.trial_fail_rate = 0.5;
  opts.allow_degraded = false;
  EXPECT_THROW(estimate_matches(g, q_cycle(3), opts), RankFailed);
}

TEST(DegradedEstimator, AdaptiveConvergesOnSurvivors) {
  const CsrGraph g = erdos_renyi(40, 150, 19);
  const QueryGraph q = q_cycle(3);
  AdaptiveOptions opts;
  opts.target_cv = 0.5;
  opts.min_trials = 6;
  opts.max_trials = 60;
  opts.seed = 23;
  opts.faults.seed = 6;
  opts.faults.trial_fail_rate = 0.3;
  const AdaptiveResult r = estimate_matches_adaptive(g, q, opts);
  const int survivors = static_cast<int>(r.estimate.estimate_per_trial.size());
  EXPECT_EQ(survivors,
            r.estimate.trials_planned - r.estimate.trials_dropped);
  if (r.converged) {
    // min_trials counts SURVIVING trials, not attempts.
    EXPECT_GE(survivors, opts.min_trials);
  }
  EXPECT_TRUE(r.estimate.degraded);
}

}  // namespace
}  // namespace ccbt
