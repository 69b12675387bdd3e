// VirtualComm: bulk-synchronous delivery semantics, deterministic ordering
// and traffic accounting.

#include <gtest/gtest.h>

#include <vector>

#include "ccbt/dist/comm.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/fault.hpp"

namespace ccbt {
namespace {

TableEntry entry(VertexId a, VertexId b, Signature sig, Count cnt) {
  TableEntry e;
  e.key.v[0] = a;
  e.key.v[1] = b;
  e.key.sig = sig;
  e.cnt = cnt;
  return e;
}

TEST(Comm, ZeroRanksRejected) {
  EXPECT_THROW(VirtualComm(0), Error);
}

TEST(Comm, NothingDeliveredBeforeExchange) {
  VirtualComm comm(2);
  comm.send(0, 1, entry(1, 2, 0b11, 1));
  EXPECT_TRUE(comm.inbox(1).empty());
  comm.exchange();
  EXPECT_EQ(comm.inbox(1).size(), 1u);
}

TEST(Comm, SelfSendIsDelivered) {
  VirtualComm comm(3);
  comm.send(1, 1, entry(7, 8, 0b01, 5));
  comm.exchange();
  ASSERT_EQ(comm.inbox(1).size(), 1u);
  EXPECT_EQ(comm.inbox(1)[0].cnt, 5u);
  EXPECT_TRUE(comm.inbox(0).empty());
  EXPECT_TRUE(comm.inbox(2).empty());
}

TEST(Comm, DeliveryConcatenatesSendersInRankOrder) {
  VirtualComm comm(4);
  comm.send(2, 0, entry(20, 0, 0, 1));
  comm.send(0, 0, entry(10, 0, 0, 1));
  comm.send(3, 0, entry(30, 0, 0, 1));
  comm.exchange();
  const auto in = comm.inbox(0);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(in[0].key.v[0], 10u);  // from rank 0 first
  EXPECT_EQ(in[1].key.v[0], 20u);
  EXPECT_EQ(in[2].key.v[0], 30u);
}

TEST(Comm, ExchangeClearsPreviousInboxes) {
  VirtualComm comm(2);
  comm.send(0, 1, entry(1, 2, 0, 1));
  comm.exchange();
  ASSERT_EQ(comm.inbox(1).size(), 1u);
  comm.exchange();  // nothing queued
  EXPECT_TRUE(comm.inbox(1).empty());
}

TEST(Comm, OutboxDrainedAfterExchange) {
  VirtualComm comm(2);
  comm.send(0, 1, entry(1, 2, 0, 1));
  comm.exchange();
  comm.exchange();
  EXPECT_TRUE(comm.inbox(1).empty());  // not re-delivered
  EXPECT_EQ(comm.stats().entries_sent, 1u);
}

TEST(Comm, StatsCountOffRankOnly) {
  VirtualComm comm(3);
  comm.send(0, 0, entry(1, 1, 0, 1));  // local
  comm.send(0, 1, entry(1, 2, 0, 1));  // off rank
  comm.send(2, 1, entry(3, 2, 0, 1));  // off rank
  comm.exchange();
  EXPECT_EQ(comm.stats().supersteps, 1u);
  EXPECT_EQ(comm.stats().entries_sent, 3u);
  EXPECT_EQ(comm.stats().off_rank_entries, 2u);
  EXPECT_EQ(comm.stats().max_step_recv, 2u);  // rank 1 received two
  EXPECT_EQ(comm.stats().off_rank_bytes(),
            2u * (sizeof(TableKey) + sizeof(Count)));
}

TEST(Comm, SuperstepCounterAdvances) {
  VirtualComm comm(2);
  comm.exchange();
  comm.exchange();
  comm.exchange();
  EXPECT_EQ(comm.stats().supersteps, 3u);
}

TEST(Comm, AllreduceSumsPerRankContributions) {
  VirtualComm comm(4);
  const std::vector<Count> parts{1, 10, 100, 1000};
  EXPECT_EQ(comm.allreduce_sum(parts), 1111u);
}

TEST(Comm, ManyEntriesSurviveRoundTrip) {
  VirtualComm comm(5);
  for (std::uint32_t from = 0; from < 5; ++from) {
    for (VertexId i = 0; i < 100; ++i) {
      comm.send(from, (from + i) % 5, entry(from, i, i & 0xFF, i + 1));
    }
  }
  comm.exchange();
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < 5; ++r) total += comm.inbox(r).size();
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(comm.stats().entries_sent, 500u);
}

// ------------------------------------------------------ buffer reuse

constexpr std::uint32_t kReuseRanks = 3;
constexpr std::uint32_t kNoSilentRank = kReuseRanks;

/// Row `i` from `from` to `to` in superstep `step`: distinct per superstep,
/// so a stale row left over from an earlier one cannot pass for it.
TableEntry step_row(std::uint32_t step, std::uint32_t from, std::uint32_t to,
                    VertexId i) {
  return entry(from * 1000 + i, to, static_cast<Signature>(1u << step),
               1 + step * 1000 + i);
}

/// Queue superstep `step`: every sender sends `rows` rows to every rank
/// but `silent`, senders walked high to low and destinations interleaved,
/// so send order is not canonical order. Returns each rank's expected
/// inbox: senders in rank order, each in send order.
std::vector<std::vector<TableEntry>> queue_step(VirtualComm& comm,
                                                std::uint32_t step,
                                                VertexId rows,
                                                std::uint32_t silent) {
  for (VertexId i = 0; i < rows; ++i) {
    for (std::uint32_t from = kReuseRanks; from-- > 0;) {
      for (std::uint32_t to = 0; to < kReuseRanks; ++to) {
        if (to != silent) comm.send(from, to, step_row(step, from, to, i));
      }
    }
  }
  std::vector<std::vector<TableEntry>> want(kReuseRanks);
  for (std::uint32_t to = 0; to < kReuseRanks; ++to) {
    if (to == silent) continue;
    for (std::uint32_t from = 0; from < kReuseRanks; ++from) {
      for (VertexId i = 0; i < rows; ++i) {
        want[to].push_back(step_row(step, from, to, i));
      }
    }
  }
  return want;
}

/// A large superstep, a smaller one, then one that sends nothing to rank
/// 1: each inbox holds exactly its superstep's rows in canonical order.
/// The first delivery reserves each inbox exactly; the later ones reuse
/// that buffer.
void run_reuse_sequence(VirtualComm& comm) {
  struct Step {
    VertexId rows;
    std::uint32_t silent;
  };
  const Step steps[] = {{300, kNoSilentRank}, {40, kNoSilentRank}, {7, 1}};
  std::vector<const TableEntry*> buffer(kReuseRanks);
  for (std::uint32_t s = 0; s < 3; ++s) {
    const auto want = queue_step(comm, s, steps[s].rows, steps[s].silent);
    comm.exchange();
    for (std::uint32_t r = 0; r < kReuseRanks; ++r) {
      const std::vector<TableEntry>& in = comm.inbox(r);
      ASSERT_EQ(in.size(), want[r].size()) << "step " << s << " rank " << r;
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(in[i].key, want[r][i].key) << "step " << s << " row " << i;
        EXPECT_EQ(in[i].cnt, want[r][i].cnt) << "step " << s << " row " << i;
      }
      if (s == 0) {
        EXPECT_EQ(in.capacity(), in.size()) << "rank " << r;
        buffer[r] = in.data();
      } else {
        EXPECT_EQ(in.data(), buffer[r]) << "step " << s << " rank " << r;
      }
    }
  }
}

TEST(Comm, InboxesReusedAcrossSupersteps) {
  {
    VirtualComm comm(kReuseRanks);
    run_reuse_sequence(comm);
  }
  {
    // Lossy transport: recovered supersteps reassemble the same inboxes.
    FaultSpec spec;
    spec.seed = 32;
    spec.drop_rate = 0.2;
    spec.dup_rate = 0.1;
    spec.delay_rate = 0.1;
    FaultPlan plan(spec);
    VirtualComm comm(kReuseRanks);
    comm.set_fault_plan(&plan, /*max_retries=*/40);
    run_reuse_sequence(comm);
    EXPECT_GT(plan.stats().retries, 0u);
  }
  {
    // An aborted superstep discarded by reset_in_flight leaves nothing
    // behind: no queued rows, no inbox rows.
    VirtualComm comm(kReuseRanks);
    run_reuse_sequence(comm);
    (void)queue_step(comm, 3, 50, kNoSilentRank);
    comm.reset_in_flight();
    for (std::uint32_t r = 0; r < kReuseRanks; ++r) {
      EXPECT_TRUE(comm.inbox(r).empty()) << "rank " << r;
    }
    run_reuse_sequence(comm);
  }
}


}  // namespace
}  // namespace ccbt
