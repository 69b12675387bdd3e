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
/// the phase reads) decides whether threads pay. The budget bounds the
/// deduplicated rows.
template <typename Body>
ProjTable build_buckets(const ExecContext& cx, int arity, std::size_t work,
                        Body&& body, VertexRange range) {
  using Mode = FlatRows::Mode;
  ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
  const VertexId lo = range.begin;
  const VertexId hi = std::min(range.end, cx.g.num_vertices());
  const VertexId n = hi > lo ? hi - lo : 0;
  // Narrow rows off keeps every row in the dense layout.
  const bool wide = !cx.opts.lane_compress;
  int parts = 1;
#ifdef _OPENMP
  if (cx.opts.use_threads && pool_threads() > 1 && work > 4096 && n > 1) {
    parts = static_cast<int>(
        std::min<VertexId>(n, static_cast<VertexId>(8 * pool_threads())));
  }
#else
  (void)work;
#endif
  std::vector<SortedBuckets> built;
  built.reserve(parts);
  // Output tables run at about twice their input's rows.
  for (int p = 0; p < parts; ++p) built.emplace_back(wide, 2 * work / parts);
  built[0].skip(lo);
  std::atomic<bool> budget_hit{false};
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) if (parts > 1)
#endif
  for (int p = 0; p < parts; ++p) {
    thread_local FlatRows scratch;
    SortedBuckets& part = built[p];
    const auto plo = lo + static_cast<VertexId>(std::uint64_t{n} * p / parts);
    const auto phi =
        lo + static_cast<VertexId>(std::uint64_t{n} * (p + 1) / parts);
    for (VertexId w = plo; w < phi; ++w) {
      if (budget_hit.load(std::memory_order_relaxed)) break;
      scratch.reset(wide ? Mode::kWide : Mode::kU16);
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

/// The same rows with key slots 0 and 1 swapped, sealed kByV0: a child
/// table grouped by its other endpoint (tables are stored kByV0).
ProjTable transposed_by_v0(const ExecContext& cx, const ProjTable& t) {
  ScopedStage timed(cx.stage_slot(&StageWall::seal));
  ProjTable out = t.transposed();
  out.seal(SortOrder::kByV0, cx.g.num_vertices());
  return out;
}

/// Seal a path input in its born order (a relabel for a born-sorted
/// table) so its frontier buckets can be pulled.
void seal_by_frontier(const ExecContext& cx, ProjTable& path) {
  ScopedStage timed(cx.stage_slot(&StageWall::seal));
  path.seal(SortOrder::kByV1, cx.g.num_vertices());
}

/// EdgeJoin of one path row `e`, whose frontier is `joint`, with one
/// child row `ce` running from `joint` to `w`: the matches must share
/// exactly the joint's color.
void join_edge(const ExecContext& cx, const TableEntry& e,
               const TableEntry& ce, VertexId joint, VertexId w,
               const ExtendOpts& o, FlatRows& sink) {
  if ((e.key.sig & ce.key.sig) != cx.chi.bit(joint)) return;
  if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) return;
  const Count cnt = e.cnt * ce.cnt;
  if (cnt == 0) return;
  TableKey key = e.key;
  key.v[1] = w;
  if (o.track_slot >= 0) key.v[o.track_slot] = w;
  key.sig = e.key.sig | ce.key.sig;
  sink.append(key, cnt);
  cx.send(joint, w, 1);
}

/// Run `body(v, sink, t)` for every end vertex v of [lo, hi): the one
/// end-bucket loop of merge_halves and extend_and_merge. End buckets are
/// independent, so once the phase reads more than 4096 rows (`work`)
/// threads own whole buckets and add into private sinks, `t` being the
/// thread's index below pool_threads(); the sinks reduce into `sink`
/// afterwards. Serially t is 0. The budget bounds every sink.
template <typename Body>
void for_each_end_bucket(const ExecContext& cx, VertexId lo, VertexId hi,
                         std::size_t work, AccumMap& sink, Body&& body) {
#ifdef _OPENMP
  if (cx.opts.use_threads && pool_threads() > 1 && hi > lo + 1 &&
      work > 4096) {
    const int threads = pool_threads();
    std::vector<AccumMap> maps;
    maps.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      maps.emplace_back(16, cx.opts.compact_accum);
    }
    std::atomic<bool> budget_hit{false};
#pragma omp parallel num_threads(threads)
    {
      const int t = omp_get_thread_num();
#pragma omp for schedule(dynamic, 256)
      for (VertexId v = lo; v < hi; ++v) {
        if (budget_hit.load(std::memory_order_relaxed)) continue;
        body(v, maps[t], t);
        if (maps[t].size() > cx.opts.max_table_entries) {
          budget_hit.store(true, std::memory_order_relaxed);
        }
      }
    }
    if (budget_hit.load()) check_budget(cx, cx.opts.max_table_entries + 1);
    std::size_t total = sink.size();
    for (const AccumMap& m : maps) total += m.size();
    sink.reserve(total);
    for (AccumMap& m : maps) {
      m.for_each([&](const TableKey& k, Count c) { sink.add(k, c); });
      check_budget(cx, sink.size());
    }
    return;
  }
#else
  (void)work;
#endif
  for (VertexId v = lo; v < hi; ++v) {
    body(v, sink, 0);
    check_budget(cx, sink.size());
  }
}

/// A prefix table's narrow u16 rows, read in place.
struct PackedPrefix {
  const ProjTable& t;
  const std::vector<FlatRows::Row16>& rows;

  using Row = FlatRows::Row16;
  std::span<const Row> bucket(VertexId x,
                              std::vector<TableEntry>& /*scratch*/) const {
    const auto [lo, hi] = t.group_span(1, x);
    return {rows.data() + lo, hi - lo};
  }
  static VertexId anchor(const Row& r) {
    return static_cast<VertexId>(r.k >> 36);
  }
  static Signature sig(const Row& r) {
    return static_cast<Signature>(r.k & 0xFF);
  }
  static Count count(const Row& r) { return r.c; }
  static TableKey key(const Row& r) {
    TableKey k;
    k.v[0] = anchor(r);
    return k;
  }
};

/// Any other prefix table, bucket by bucket as dense entries.
struct DensePrefix {
  const ProjTable& t;

  using Row = TableEntry;
  std::span<const Row> bucket(VertexId x,
                              std::vector<TableEntry>& scratch) const {
    return t.group_expanded(1, x, scratch);
  }
  static VertexId anchor(const Row& e) { return e.key.v[0]; }
  static Signature sig(const Row& e) { return e.key.sig; }
  static Count count(const Row& e) { return e.cnt; }
  static const TableKey& key(const Row& e) { return e.key; }
};

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
  std::vector<TableEntry> plus_rows, prefix_rows;
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

/// extend_and_merge's per-end-bucket body over one prefix representation.
template <typename Prefix>
class FusedSplit {
 public:
  FusedSplit(const ExecContext& cx, const Prefix& prefix,
             const ProjTable* child, const ExtendOpts& o,
             const ProjTable& plus, const MergeSpec& spec)
      : cx_(cx), prefix_(prefix), child_(child), o_(o), plus_(plus),
        spec_(spec) {}

  /// End bucket v into `sink`; merge charges into `held` when non-null
  /// (a load model is attached).
  void bucket(VertexId v, AccumMap& sink, LoadModel::Held* held) const {
    thread_local FuseScratch ts;
    const auto pu = plus_.group_expanded(1, v, ts.plus_rows);
    // Without a load model an end with no plus rows has nothing to do; with
    // one, its extend charges still stream.
    if (pu.empty() && held == nullptr) return;
    const std::uint32_t ep = ts.next_epoch(cx_.g.num_vertices());
    std::uint32_t groups = 0;
    for (std::size_t i = 0; i < pu.size();) {
      const VertexId u = pu[i].key.v[0];
      std::size_t j = i + 1;
      while (j < pu.size() && pu[j].key.v[0] == u) ++j;
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
        const TableEntry& pe = pu[p];
        if ((pe.key.sig & mk.sig) != uv) continue;
        sink.add(out_key(pe.key, mk), pe.cnt * mcnt);
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

    const auto minus_key = [&](const typename Prefix::Row& r, Signature sig) {
      TableKey k = Prefix::key(r);
      k.v[1] = v;
      if (o_.track_slot >= 0) k.v[o_.track_slot] = v;
      k.sig = sig;
      return k;
    };
    // A row whose anchor has no plus group in this bucket adds nothing to
    // the sink: without a load model it is dropped before the extend's
    // filters. With one, every row still runs them, so the sends the
    // extend charges per (x, v) stay exact.
    if (child_ == nullptr) {
      // extend_with_graph: bucket x of every neighbour x of v.
      for (const VertexId x : cx_.g.neighbors(v)) {
        const auto rows = prefix_.bucket(x, ts.prefix_rows);
        if (rows.empty()) continue;
        cx_.charge(x, rows.size());
        std::uint64_t sent = 0;
        for (const auto& r : rows) {
          const FuseScratch::Anchor& a = ts.anchors[Prefix::anchor(r)];
          const bool hit = a.stamp == ep;
          if (!hit && cx_.load == nullptr) continue;
          const Count c = Prefix::count(r);
          if (c == 0) continue;
          if (o_.anchor_higher && !cx_.order.higher(Prefix::anchor(r), v)) {
            continue;
          }
          const Signature sig = Prefix::sig(r);
          if ((sig & vbit) != 0) continue;
          ++sent;
          if (hit) absorb(a, minus_key(r, sig | vbit), c);
        }
        if (sent != 0) cx_.send(x, v, sent);
      }
    } else {
      // extend_with_child: bucket x of every child row (v, x).
      for (const TableEntry& ce : child_->group(0, v)) {
        const VertexId x = ce.key.v[1];
        const auto rows = prefix_.bucket(x, ts.prefix_rows);
        cx_.charge(x, rows.size());
        const Signature xbit = cx_.chi.bit(x);
        std::uint64_t sent = 0;
        for (const auto& r : rows) {
          const FuseScratch::Anchor& a = ts.anchors[Prefix::anchor(r)];
          const bool hit = a.stamp == ep;
          if (!hit && cx_.load == nullptr) continue;
          const Signature sig = Prefix::sig(r);
          // xbit is one bit: the halves share exactly the colour of x.
          if ((sig & ce.key.sig) != xbit) continue;
          if (o_.anchor_higher && !cx_.order.higher(Prefix::anchor(r), v)) {
            continue;
          }
          const Count c = Prefix::count(r) * ce.cnt;
          if (c == 0) continue;
          ++sent;
          if (hit) absorb(a, minus_key(r, sig | ce.key.sig), c);
        }
        if (sent != 0) cx_.send(x, v, sent);
      }
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
  TableKey out_key(const TableKey& pk, const TableKey& mk) const {
    TableKey key;
    for (int s = 0; s < spec_.out_arity; ++s) {
      const MergeOut& src = spec_.out[s];
      key.v[s] = (src.side == 0 ? pk : mk).v[src.slot];
    }
    key.sig = pk.sig | mk.sig;
    return key;
  }

  /// merge_halves' charges for one distinct minus key `mk` of the group
  /// `a` of end v: |P_uv| at v, and one send per compatible plus row.
  void merge_charges(VertexId v, std::span<const TableEntry> pu,
                     const FuseScratch::Anchor& a, const TableKey& mk,
                     LoadModel::Held& held) const {
    const std::uint32_t at = cx_.owner(v);
    held.add_ops(at, a.hi - a.lo);
    if (spec_.out_arity < 2) return;
    const Signature uv = cx_.chi.bit(mk.v[0]) | cx_.chi.bit(v);
    for (std::uint32_t p = a.lo; p < a.hi; ++p) {
      if ((pu[p].key.sig & mk.sig) != uv) continue;
      held.add_comm(at, cx_.owner(out_key(pu[p].key, mk).v[1]), 1);
    }
  }

  const ExecContext& cx_;
  const Prefix& prefix_;
  const ProjTable* child_;
  const ExtendOpts& o_;
  const ProjTable& plus_;
  const MergeSpec& spec_;
};

}  // namespace

LoadModel::Held extend_and_merge(const ExecContext& cx, ProjTable& prefix,
                                 const ProjTable* child, const ExtendOpts& o,
                                 ProjTable& plus, const MergeSpec& spec,
                                 AccumMap& sink, VertexRange range) {
  const VertexId n = cx.g.num_vertices();
  seal_by_frontier(cx, prefix);
  seal_by_frontier(cx, plus);
  cx.note_lanes(prefix.layout());
  cx.note_lanes(plus.layout());
  const std::uint32_t ranks = cx.load == nullptr ? 0 : cx.load->num_ranks();
  LoadModel::Held held(ranks);
  {
    ScopedStage timed(cx.stage_slot(&StageWall::merge));
    // One merge-charge tally per thread of the end-bucket loop.
    std::vector<LoadModel::Held> tallies(
        cx.load == nullptr ? 0 : pool_threads(), held);
    const auto run = [&](const auto& rows) {
      const FusedSplit split(cx, rows, child, o, plus, spec);
      for_each_end_bucket(
          cx, range.begin, std::min(range.end, n), prefix.size() + plus.size(),
          sink, [&](VertexId v, AccumMap& out, int t) {
            split.bucket(v, out, tallies.empty() ? nullptr : &tallies[t]);
          });
    };
    const FlatRows* const flat = prefix.flat_storage();
    if (flat != nullptr && flat->mode() == FlatRows::Mode::kU16) {
      run(PackedPrefix{prefix, flat->rows_u16()});
    } else {
      run(DensePrefix{prefix});
    }
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
                               bool flip, const ExtendOpts& o,
                               VertexRange range) {
  if (!flip) {
    return init_path_from_child(cx, transposed_by_v0(cx, child),
                                /*flip=*/true, o, range);
  }
  return build_buckets(
      cx, 2, child.size(),
      [&](VertexId w, FlatRows& sink) {
        for (const TableEntry& ce : child.group(0, w)) {
          kernel_init_from_child(
              cx, ce, /*flip=*/true, o,
              [&](const TableKey& k, Count c) { sink.append(k, c); });
        }
      },
      range);
}

ProjTable extend_with_graph(const ExecContext& cx, ProjTable& path,
                            const ExtendOpts& o, VertexRange range) {
  const CsrGraph& g = cx.g;
  seal_by_frontier(cx, path);
  cx.note_lanes(path.layout());
  const FlatRows* const flat = path.flat_storage();
  // The packed key holds the new frontier w in 28 bits, so a graph whose
  // ids reach kPacked28NoVertex takes the generic loop.
  const bool fast16 = flat != nullptr &&
                      flat->mode() == FlatRows::Mode::kU16 &&
                      (o.track_slot == -1 || o.track_slot == 1) &&
                      g.num_vertices() <= kPacked28NoVertex;
  if (!fast16) {
    return build_buckets(
        cx, path.arity(), path.size(),
        [&](VertexId w, FlatRows& sink) {
          thread_local std::vector<TableEntry> scratch;
          const Signature w_bit = cx.chi.bit(w);
          for (VertexId x : g.neighbors(w)) {
            const auto bucket = path.group_expanded(1, x, scratch);
            if (bucket.empty()) continue;
            cx.charge(x, bucket.size());
            for (const TableEntry& e : bucket) {
              if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) {
                continue;
              }
              if (e.cnt == 0 || (e.key.sig & w_bit) != 0) continue;
              TableKey key = e.key;
              key.v[1] = w;
              if (o.track_slot >= 0) key.v[o.track_slot] = w;
              key.sig = e.key.sig | w_bit;
              sink.append(key, e.cnt);
              cx.send(x, w, 1);
            }
          }
        },
        range);
  }

  // All-16-bit path: each emission is a u16 row copy with the packed key
  // rewritten in registers. Every bucket is read once per neighbour of
  // its vertex, so the anchors' degree ranks are looked up once up front.
  using Row16 = FlatRows::Row16;
  const std::vector<Row16>& rows = flat->rows_u16();
  std::vector<std::uint32_t> anchor_rank;
  if (o.anchor_higher) {
    anchor_rank.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      anchor_rank[i] = cx.order.rank(static_cast<VertexId>(rows[i].k >> 36));
    }
  }
  constexpr std::uint64_t kV0Bits = std::uint64_t{kPacked28NoVertex} << 36;
  return build_buckets(
      cx, path.arity(), path.size(),
      [&](VertexId w, FlatRows& sink) {
        const Signature w_bit = cx.chi.bit(w);
        const std::uint32_t wrank = cx.order.rank(w);
        const std::uint64_t wfield = std::uint64_t{w} << 8;
        for (VertexId x : g.neighbors(w)) {
          const auto [lo, hi] = path.group_span(1, x);
          if (lo == hi) continue;
          cx.charge(x, hi - lo);
          for (std::size_t i = lo; i < hi; ++i) {
            if (o.anchor_higher && anchor_rank[i] <= wrank) continue;
            const Row16& r = rows[i];
            const auto esig = static_cast<Signature>(r.k & 0xFF);
            if (r.c == 0 || (esig & w_bit) != 0) continue;
            const Signature sig = esig | w_bit;
            if (sig <= 0xFF) [[likely]] {
              sink.append_u16((r.k & kV0Bits) | wfield | sig, r.c);
            } else {
              // Color >= 8: the signature no longer fits the packed
              // key's 8-bit field.
              TableKey key;
              key.v[0] = static_cast<VertexId>(r.k >> 36);
              key.v[1] = w;
              key.sig = sig;
              sink.append(key, r.c);
            }
            cx.send(x, w, 1);
          }
        }
      },
      range);
}

ProjTable extend_with_graph(const ExecContext& cx, const ProjTable& path,
                            const ExtendOpts& o, VertexRange range) {
  ProjTable copy = path;
  return extend_with_graph(cx, copy, o, range);
}

ProjTable extend_with_child(const ExecContext& cx, ProjTable& path,
                            const ProjTable& child, const ExtendOpts& o,
                            bool flip, VertexRange range) {
  if (!flip) {
    return extend_with_child(cx, path, transposed_by_v0(cx, child), o,
                             /*flip=*/true, range);
  }
  seal_by_frontier(cx, path);
  cx.note_lanes(path.layout());
  return build_buckets(
      cx, path.arity(), path.size(),
      [&](VertexId w, FlatRows& sink) {
        thread_local std::vector<TableEntry> scratch;
        for (const TableEntry& ce : child.group(0, w)) {
          const VertexId x = ce.key.v[1];
          const auto bucket = path.group_expanded(1, x, scratch);
          cx.charge(x, bucket.size());
          for (const TableEntry& e : bucket) {
            join_edge(cx, e, ce, x, w, o, sink);
          }
        }
      },
      range);
}

ProjTable node_join(const ExecContext& cx, ProjTable& path,
                    const ProjTable& child, int slot, VertexRange range) {
  seal_by_frontier(cx, path);
  return build_buckets(
      cx, path.arity(), path.size(),
      [&](VertexId w, FlatRows& sink) {
        const auto [lo, hi] = path.group_span(1, w);
        TableEntry tmp;
        for (std::size_t i = lo; i < hi; ++i) {
          const TableEntry& e = path.row_at(i, tmp);
          kernel_node_join(
              cx, e, child.group(0, e.key.v[slot]), slot,
              [&](const TableKey& k, Count c) { sink.append(k, c); });
        }
      },
      range);
}

void merge_halves(const ExecContext& cx, ProjTable& plus, ProjTable& minus,
                  const MergeSpec& spec, AccumMap& sink) {
  const VertexId n = cx.g.num_vertices();
  {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    plus.seal(SortOrder::kByV1, n);
    minus.seal(SortOrder::kByV1, n);
  }
  cx.note_lanes(plus.layout());
  cx.note_lanes(minus.layout());
  ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));
  for_each_end_bucket(
      cx, 0, n, plus.size() + minus.size(), sink,
      [&](VertexId x, AccumMap& out, int) {
        thread_local std::vector<TableEntry> pscratch, mscratch;
        detail::merge_end_bucket(
            cx, plus, minus, x, spec,
            [&](const TableKey& k, Count c) { out.add(k, c); }, pscratch,
            mscratch);
      });
  cx.end_phase();
}

ProjTable aggregate(const ExecContext& cx, const ProjTable& t, int new_arity) {
  AccumMap map(t.size(), cx.opts.compact_accum);
  t.for_each_entry([&](const TableEntry& e) {
    kernel_aggregate(cx, e, new_arity,
                     [&](const TableKey& k, Count c) { map.add(k, c); });
  });
  check_budget(cx, map.size());
  cx.end_phase();
  return ProjTable::from_map(new_arity, std::move(map));
}

}  // namespace ccbt
