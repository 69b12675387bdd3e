#include "ccbt/engine/primitives.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ccbt {

namespace {

void check_budget(const ExecContext& cx, std::size_t size) {
  if (size > cx.opts.max_table_entries) {
    throw BudgetExceeded("projection table exceeded " +
                         std::to_string(cx.opts.max_table_entries) +
                         " entries");
  }
}

/// Whether `sink` fits the budget: past it, its duplicate keys are
/// summed first, so the budget bounds distinct rows.
bool sink_fits(const ExecContext& cx, FlatRows& sink) {
  if (sink.size() <= cx.opts.max_table_entries) return true;
  sink.sum_duplicates();
  return sink.size() <= cx.opts.max_table_entries;
}

/// Hold `sink` to the budget (sink_fits), throwing BudgetExceeded when
/// even its summed rows exceed it.
void bound_sink(const ExecContext& cx, FlatRows& sink) {
  if (!sink_fits(cx, sink)) check_budget(cx, sink.size());
}

int pool_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// The born-sorted build every path primitive shares. The output is
/// built one frontier vertex w of `range` at a time, in ascending w:
/// `body(w, sink)` emits the rows whose frontier is w into a thread-local
/// scratch, which is then sorted and deduplicated locally (exact u64 run
/// sums) and appended with its bucket offset. The table arrives sealed
/// kByV1 with no global sort; vertices below the range get empty buckets.
/// Threads build contiguous vertex ranges that concatenate in order, so
/// the table is the same at every thread count; `work` (the input rows
/// the phase reads) decides whether threads pay. Rows pack in the data
/// graph's key layout. The budget bounds the deduplicated rows.
template <typename Body>
ProjTable build_buckets(const ExecContext& cx, int arity, std::size_t work,
                        Body&& body, VertexRange range) {
  ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
  const VertexId lo = range.begin;
  const VertexId hi = std::min(range.end, cx.g.num_vertices());
  const VertexId n = hi > lo ? hi - lo : 0;
  int parts = 1;
#ifdef _OPENMP
  if (pool_threads() > 1 && work > 4096 && n > 1) {
    parts = static_cast<int>(
        std::min<VertexId>(n, static_cast<VertexId>(8 * pool_threads())));
  }
#else
  (void)work;
#endif
  const KeyLayout layout = cx.key_layout();
  std::vector<SortedBuckets> built;
  built.reserve(parts);
  // Output tables run at about twice their input's rows.
  for (int p = 0; p < parts; ++p) built.emplace_back(layout, 2 * work / parts);
  built[0].skip(lo);
  std::atomic<bool> budget_hit{false};
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) if (parts > 1)
#endif
  for (int p = 0; p < parts; ++p) {
    thread_local FlatRows scratch(layout);
    SortedBuckets& part = built[p];
    const auto plo = lo + static_cast<VertexId>(std::uint64_t{n} * p / parts);
    const auto phi =
        lo + static_cast<VertexId>(std::uint64_t{n} * (p + 1) / parts);
    for (VertexId w = plo; w < phi; ++w) {
      if (budget_hit.load(std::memory_order_relaxed)) break;
      scratch.reset(layout);
      body(w, scratch);
      part.close(scratch);
      if (part.size() > cx.opts.max_table_entries) {
        budget_hit.store(true, std::memory_order_relaxed);
      }
    }
  }
  if (budget_hit.load()) check_budget(cx, cx.opts.max_table_entries + 1);
  SortedBuckets out = std::move(built[0]);
  for (int p = 1; p < parts; ++p) out.absorb(std::move(built[p]));
  check_budget(cx, out.size());
  if (cx.accum != nullptr) {
    cx.accum->rows += out.emitted_rows();
    cx.accum->emit_bytes += out.emitted_bytes();
  }
  if (range.closes_phase) detail::close_build_phase(cx);
  return ProjTable::from_buckets(arity, std::move(out));
}

/// Run `body(v, sink, t)` for every end vertex v of [lo, hi): the one
/// end-bucket loop of merge_halves and extend_and_merge. End buckets are
/// independent, so once the phase reads more than 4096 rows (`work`)
/// threads own whole buckets and add into private sinks, `t` being
/// the thread's index below pool_threads(); each thread sums its own
/// sink, and the sinks are concatenated onto `sink`. Serially t is 0.
/// The budget bounds every sink (bound_sink), and the loop ends by
/// summing `sink`, so it holds one row per key.
template <typename Body>
void for_each_end_bucket(const ExecContext& cx, VertexId lo, VertexId hi,
                         std::size_t work, FlatRows& sink, Body&& body) {
#ifdef _OPENMP
  if (pool_threads() > 1 && hi > lo + 1 && work > 4096) {
    const int threads = pool_threads();
    std::vector<FlatRows> parts(threads, FlatRows(sink.layout()));
    std::atomic<bool> budget_hit{false};
#pragma omp parallel num_threads(threads)
    {
      const int t = omp_get_thread_num();
#pragma omp for schedule(dynamic, 256)
      for (VertexId v = lo; v < hi; ++v) {
        if (budget_hit.load(std::memory_order_relaxed)) continue;
        body(v, parts[t], t);
        if (!sink_fits(cx, parts[t])) {
          budget_hit.store(true, std::memory_order_relaxed);
        }
      }
      parts[t].sum_duplicates();
    }
    if (budget_hit.load()) check_budget(cx, cx.opts.max_table_entries + 1);
    for (FlatRows& part : parts) {
      sink.absorb(std::move(part));
      bound_sink(cx, sink);
    }
    sink.sum_duplicates();
    return;
  }
#else
  (void)work;
#endif
  for (VertexId v = lo; v < hi; ++v) {
    body(v, sink, 0);
    bound_sink(cx, sink);
  }
  sink.sum_duplicates();
}

/// One thread's working set for extend_and_merge, kept across calls.
struct FuseScratch {
  /// Plus group of anchor u in the current end bucket: rows [lo, hi) of
  /// the bucket, the group's ordinal, valid while stamp is the bucket's
  /// epoch. Epochs never repeat (the array is wiped on wrap), so an entry
  /// left by an earlier bucket — of this call or of any earlier one — is
  /// never read.
  struct Anchor {
    std::uint32_t stamp = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::uint32_t group = 0;
  };
  std::vector<Anchor> anchors;
  std::uint32_t epoch = 0;
  // Distinct minus keys per plus group, for the merge charges: a bitset
  // over the 8-bit signatures of untracked keys, the others listed.
  std::vector<std::array<std::uint64_t, 4>> seen;
  std::vector<std::pair<std::uint32_t, TableKey>> seen_wide;

  std::uint32_t next_epoch(VertexId n) {
    if (anchors.size() < n) anchors.resize(n);
    if (++epoch == 0) {
      for (Anchor& a : anchors) a.stamp = 0;
      epoch = 1;
    }
    return epoch;
  }
};

/// extend_and_merge's per-end-bucket body over the row views of the plus
/// table and of the prefix table.
template <typename PlusRows, typename PrefixRows>
class FusedSplit {
 public:
  FusedSplit(const ExecContext& cx, const ProjTable& prefix,
             const PrefixRows& prefix_rows, const ProjTable* child,
             const ExtendOpts& o, const ProjTable& plus,
             const PlusRows& plus_rows, const MergeSpec& spec)
      : cx_(cx), prefix_(prefix), prefix_rows_(prefix_rows), child_(child),
        o_(o), plus_(plus), plus_rows_(plus_rows), spec_(spec) {}

  /// End bucket v into `sink`; merge charges into `held` when non-null
  /// (a load model is attached).
  void bucket(VertexId v, FlatRows& sink, LoadModel::Held* held) const {
    thread_local FuseScratch ts;
    // A local copy the row loops can keep in registers.
    const PrefixRows prefix = prefix_rows_;
    const PlusRows pu = plus_.group(plus_rows_, 1, v);
    // Without a load model an end with no plus rows has nothing to do; with
    // one, its extend charges still stream.
    if (pu.empty() && held == nullptr) return;
    const std::uint32_t ep = ts.next_epoch(cx_.g.num_vertices());
    std::uint32_t groups = 0;
    for (std::size_t i = 0; i < pu.size();) {
      const VertexId u = pu.anchor(pu[i]);
      std::size_t j = i + 1;
      while (j < pu.size() && pu.anchor(pu[j]) == u) ++j;
      ts.anchors[u] = {ep, static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j), groups++};
      i = j;
    }
    if (held != nullptr) {
      ts.seen.assign(groups, {});
      ts.seen_wide.clear();
    }
    const Signature vbit = cx_.chi.bit(v);

    // One surviving minus row (mk, mcnt) against its anchor's plus group a.
    const auto absorb = [&](const FuseScratch::Anchor& a, const TableKey& mk,
                            Count mcnt) {
      const Signature uv = cx_.chi.bit(mk.v[0]) | vbit;
      for (std::uint32_t p = a.lo; p < a.hi; ++p) {
        const auto& pr = pu[p];
        if ((pu.sig(pr) & mk.sig) != uv) continue;
        const Count c = pu.count(pr) * mcnt;
        if (c != 0) sink.add(out_key(pu, pr, mk), c);
      }
      if (held == nullptr) return;
      if (mk.v[2] == kNoVertex && mk.v[3] == kNoVertex && mk.sig <= 0xFF) {
        std::uint64_t& word = ts.seen[a.group][mk.sig >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (mk.sig & 63);
        if ((word & bit) == 0) {
          word |= bit;
          merge_charges(v, pu, a, mk, *held);
        }
      } else {
        ts.seen_wide.emplace_back(a.group, mk);
      }
    };

    // A row whose anchor has no plus group in this bucket adds nothing to
    // the sink: without a load model it is dropped before the extend's
    // filters. With one, every row still runs them, so the sends the
    // extend charges per (x, v) stay exact.
    if (child_ == nullptr) {
      // extend_with_graph: bucket x of every neighbour x of v.
      for (const VertexId x : cx_.g.neighbors(v)) {
        const PrefixRows rows = prefix_.group(prefix, 1, x);
        if (rows.empty()) continue;
        cx_.charge(x, rows.size());
        std::uint64_t sent = 0;
        for (const auto& r : rows) {
          const FuseScratch::Anchor& a = ts.anchors[prefix.anchor(r)];
          const bool hit = a.stamp == ep;
          if (!hit && cx_.load == nullptr) continue;
          const Count c = prefix.count(r);
          if (c == 0) continue;
          if (o_.anchor_higher && !cx_.order.higher(prefix.anchor(r), v)) {
            continue;
          }
          const Signature sig = prefix.sig(r);
          if ((sig & vbit) != 0) continue;
          ++sent;
          if (hit) {
            absorb(a, moved_key(prefix.key(r), v, o_.track_slot, sig | vbit),
                   c);
          }
        }
        if (sent != 0) cx_.send(x, v, sent);
      }
    } else {
      // extend_with_child: bucket x of every child row (v, x).
      child_->visit([&](const auto& crows) {
        for (const auto& ce : child_->group(crows, 0, v)) {
          const VertexId x = crows.slot(ce, 1);
          const Signature csig = crows.sig(ce);
          const PrefixRows rows = prefix_.group(prefix, 1, x);
          cx_.charge(x, rows.size());
          const Signature xbit = cx_.chi.bit(x);
          std::uint64_t sent = 0;
          for (const auto& r : rows) {
            const FuseScratch::Anchor& a = ts.anchors[prefix.anchor(r)];
            const bool hit = a.stamp == ep;
            if (!hit && cx_.load == nullptr) continue;
            const Signature sig = prefix.sig(r);
            // xbit is one bit: the halves share exactly the colour of x.
            if ((sig & csig) != xbit) continue;
            if (o_.anchor_higher && !cx_.order.higher(prefix.anchor(r), v)) {
              continue;
            }
            const Count c = prefix.count(r) * crows.count(ce);
            if (c == 0) continue;
            ++sent;
            if (hit) {
              absorb(a,
                     moved_key(prefix.key(r), v, o_.track_slot, sig | csig),
                     c);
            }
          }
          if (sent != 0) cx_.send(x, v, sent);
        }
      });
    }

    if (held == nullptr || ts.seen_wide.empty()) return;
    auto& wide = ts.seen_wide;
    const auto less = [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      const TableKey& x = a.second;
      const TableKey& y = b.second;
      if (x.v[2] != y.v[2]) return x.v[2] < y.v[2];
      if (x.v[3] != y.v[3]) return x.v[3] < y.v[3];
      return x.sig < y.sig;
    };
    std::sort(wide.begin(), wide.end(), less);
    for (std::size_t i = 0; i < wide.size(); ++i) {
      if (i > 0 && wide[i].second == wide[i - 1].second) continue;
      const TableKey& mk = wide[i].second;
      merge_charges(v, pu, ts.anchors[mk.v[0]], mk, *held);
    }
  }

 private:
  /// The merge's output key of plus row `pr` and minus key `mk`.
  TableKey out_key(const PlusRows& pu, const typename PlusRows::Row& pr,
                   const TableKey& mk) const {
    TableKey key;
    for (int s = 0; s < spec_.out_arity; ++s) {
      const MergeOut& src = spec_.out[s];
      key.v[s] = src.side == 0 ? pu.slot(pr, src.slot) : mk.v[src.slot];
    }
    key.sig = pu.sig(pr) | mk.sig;
    return key;
  }

  /// merge_halves' charges for one distinct minus key `mk` of the group
  /// `a` of end v: |P_uv| at v, and one send per compatible plus row
  /// whose count is not 0.
  void merge_charges(VertexId v, const PlusRows& pu,
                     const FuseScratch::Anchor& a, const TableKey& mk,
                     LoadModel::Held& held) const {
    const std::uint32_t at = cx_.owner(v);
    held.add_ops(at, a.hi - a.lo);
    if (spec_.out_arity < 2) return;
    const Signature uv = cx_.chi.bit(mk.v[0]) | cx_.chi.bit(v);
    for (std::uint32_t p = a.lo; p < a.hi; ++p) {
      const auto& pr = pu[p];
      if ((pu.sig(pr) & mk.sig) != uv || pu.count(pr) == 0) continue;
      held.add_comm(at, cx_.owner(out_key(pu, pr, mk).v[1]), 1);
    }
  }

  const ExecContext& cx_;
  const ProjTable& prefix_;
  const PrefixRows prefix_rows_;
  const ProjTable* child_;
  const ExtendOpts& o_;
  const ProjTable& plus_;
  const PlusRows plus_rows_;
  const MergeSpec& spec_;
};

}  // namespace

LoadModel::Held extend_and_merge(const ExecContext& cx,
                                 const ProjTable& prefix,
                                 const ProjTable* child, const ExtendOpts& o,
                                 const ProjTable& plus, const MergeSpec& spec,
                                 FlatRows& sink, VertexRange range) {
  const VertexId n = cx.g.num_vertices();
  assert(prefix.order() == SortOrder::kByV1);
  assert(plus.order() == SortOrder::kByV1);
  cx.note_lanes(prefix.layout());
  cx.note_lanes(plus.layout());
  const std::uint32_t ranks = cx.load == nullptr ? 0 : cx.load->num_ranks();
  LoadModel::Held held(ranks);
  {
    ScopedStage timed(cx.stage_slot(&StageWall::merge));
    // One merge-charge tally per thread of the end-bucket loop.
    std::vector<LoadModel::Held> tallies(
        cx.load == nullptr ? 0 : pool_threads(), held);
    plus.visit([&](const auto& plus_rows) {
      prefix.visit([&](const auto& prefix_rows) {
        const FusedSplit split(cx, prefix, prefix_rows, child, o, plus,
                               plus_rows, spec);
        for_each_end_bucket(
            cx, range.begin, std::min(range.end, n),
            prefix.size() + plus.size(), sink,
            [&](VertexId v, FlatRows& out, int t) {
              split.bucket(v, out, tallies.empty() ? nullptr : &tallies[t]);
            });
      });
    });
    for (const LoadModel::Held& t : tallies) held.add(t);
  }
  if (!range.closes_phase) return held;
  // The extend's phase, then the merge's.
  detail::close_build_phase(cx);
  if (cx.load != nullptr) held.apply(*cx.load);
  cx.end_phase();
  return LoadModel::Held(ranks);
}

// ------------------------------------------------------------- primitives

ProjTable init_path_from_graph(const ExecContext& cx, const ExtendOpts& o,
                               VertexRange range) {
  // Bucket w pulls the edges (u, w) over u ∈ N(w); charging 1 per
  // adjacency sums to deg(u) per u.
  return build_buckets(
      cx, 2, cx.g.num_edges(),
      [&](VertexId w, FlatRows& sink) {
        const std::uint8_t w_color = cx.chi.color(w);
        for (VertexId u : cx.g.neighbors(w)) {
          cx.charge(u, 1);
          if (o.anchor_higher && !cx.order.higher(u, w)) continue;
          if (cx.chi.color(u) == w_color) continue;
          TableKey key;
          key.v[0] = u;
          key.v[1] = w;
          if (o.track_slot >= 0) key.v[o.track_slot] = w;
          key.sig = cx.chi.bit(u) | cx.chi.bit(w);
          sink.append(key, 1);
          cx.send(u, w, 1);
        }
      },
      range);
}

ProjTable init_path_from_child(const ExecContext& cx, const ProjTable& child,
                               const ExtendOpts& o, VertexRange range) {
  return child.visit([&](const auto& crows) {
    return build_buckets(
        cx, 2, child.size(),
        [&](VertexId w, FlatRows& sink) {
          // The child row (w, a) is the path row (a, w).
          for (const auto& ce : child.group(crows, 0, w)) {
            const VertexId a = crows.slot(ce, 1);
            cx.charge(w, 1);
            if (o.anchor_higher && !cx.order.higher(a, w)) continue;
            TableKey key;
            key.v[0] = a;
            key.v[1] = w;
            if (o.track_slot >= 0) key.v[o.track_slot] = w;
            key.sig = crows.sig(ce);
            sink.append(key, crows.count(ce));
          }
        },
        range);
  });
}

ProjTable extend_with_graph(const ExecContext& cx, const ProjTable& path,
                            const ExtendOpts& o, VertexRange range) {
  const CsrGraph& g = cx.g;
  assert(path.order() == SortOrder::kByV1);
  cx.note_lanes(path.layout());
  return path.visit([&](const auto& rows) {
    // Every bucket is read once per neighbour of its vertex, so the
    // anchors' degree ranks are looked up once up front.
    std::vector<std::uint32_t> anchor_rank;
    if (o.anchor_higher) {
      anchor_rank.resize(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        anchor_rank[i] = cx.order.rank(rows.anchor(rows[i]));
      }
    }
    return build_buckets(
        cx, path.arity(), path.size(),
        [&](VertexId w, FlatRows& sink) {
          const Signature w_bit = cx.chi.bit(w);
          const std::uint32_t wrank = cx.order.rank(w);
          const auto move = rows.mover(sink.layout(), w, o.track_slot);
          for (VertexId x : g.neighbors(w)) {
            const auto [lo, hi] = path.group_span(1, x);
            if (lo == hi) continue;
            cx.charge(x, hi - lo);
            for (std::size_t i = lo; i < hi; ++i) {
              if (o.anchor_higher && anchor_rank[i] <= wrank) continue;
              const auto& r = rows[i];
              const Count c = rows.count(r);
              const Signature sig = rows.sig(r);
              if (c == 0 || (sig & w_bit) != 0) continue;
              move(sink, r, sig | w_bit, c);
              cx.send(x, w, 1);
            }
          }
        },
        range);
  });
}

ProjTable extend_with_child(const ExecContext& cx, const ProjTable& path,
                            const ProjTable& child, const ExtendOpts& o,
                            VertexRange range) {
  assert(path.order() == SortOrder::kByV1);
  cx.note_lanes(path.layout());
  return path.visit([&](const auto& rows) {
    return child.visit([&](const auto& crows) {
      return build_buckets(
          cx, path.arity(), path.size(),
          [&](VertexId w, FlatRows& sink) {
            const auto move = rows.mover(sink.layout(), w, o.track_slot);
            // EdgeJoin of path bucket x with the child row (w, x): the
            // matches must share exactly the joint x's color.
            for (const auto& ce : child.group(crows, 0, w)) {
              const VertexId x = crows.slot(ce, 1);
              const Signature csig = crows.sig(ce);
              const Signature xbit = cx.chi.bit(x);
              const auto [lo, hi] = path.group_span(1, x);
              cx.charge(x, hi - lo);
              for (std::size_t i = lo; i < hi; ++i) {
                const auto& r = rows[i];
                const Signature sig = rows.sig(r);
                if ((sig & csig) != xbit) continue;
                if (o.anchor_higher && !cx.order.higher(rows.anchor(r), w)) {
                  continue;
                }
                const Count c = rows.count(r) * crows.count(ce);
                if (c == 0) continue;
                move(sink, r, sig | csig, c);
                cx.send(x, w, 1);
              }
            }
          },
          range);
    });
  });
}

ProjTable node_join(const ExecContext& cx, const ProjTable& path,
                    const ProjTable& child, int slot, VertexRange range) {
  assert(path.order() == SortOrder::kByV1);
  return path.visit([&](const auto& rows) {
    return child.visit([&](const auto& crows) {
      return build_buckets(
          cx, path.arity(), path.size(),
          [&](VertexId w, FlatRows& sink) {
            // Each row keeps its keys and takes the child's colors.
            const auto move = rows.mover(sink.layout(), w, -1);
            for (const auto& r : path.group(rows, 1, w)) {
              const VertexId x = rows.slot(r, slot);
              const auto group = child.group(crows, 0, x);
              cx.charge(x, group.size());
              const Signature x_bit = cx.chi.bit(x);
              const Signature sig = rows.sig(r);
              for (const auto& ce : group) {
                if (!node_join_compatible(sig, crows.sig(ce), x_bit)) continue;
                move(sink, r, sig | crows.sig(ce),
                     rows.count(r) * crows.count(ce));
              }
            }
          },
          range);
    });
  });
}

void merge_halves(const ExecContext& cx, const ProjTable& plus,
                  const ProjTable& minus, const MergeSpec& spec,
                  FlatRows& sink) {
  const VertexId n = cx.g.num_vertices();
  assert(plus.order() == SortOrder::kByV1);
  assert(minus.order() == SortOrder::kByV1);
  cx.note_lanes(plus.layout());
  cx.note_lanes(minus.layout());
  ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));
  for_each_end_bucket(
      cx, 0, n, plus.size() + minus.size(), sink,
      [&](VertexId x, FlatRows& out, int) {
        detail::merge_end_bucket(
            cx, plus, minus, x, spec,
            [&](const TableKey& k, Count c) { out.add(k, c); });
      });
  cx.end_phase();
}

ProjTable aggregate(const ExecContext& cx, const ProjTable& t, int new_arity) {
  FlatRows sink(cx.key_layout());
  sink.reserve(t.size());
  t.for_each_entry([&](const TableEntry& e) {
    kernel_aggregate(cx, e, new_arity, [&](const TableKey& k, Count c) {
      sink.add(k, c);
      bound_sink(cx, sink);
    });
  });
  sink.sum_duplicates();
  cx.end_phase();
  ScopedStage timed(cx.stage_slot(&StageWall::seal));
  return ProjTable::from_sink(new_arity, std::move(sink), cx.g.num_vertices());
}

}  // namespace ccbt
