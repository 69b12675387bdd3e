#include "ccbt/engine/primitives.hpp"

#include <cstdint>

namespace ccbt {

namespace {

/// A prefix table's narrow u16 rows, read in place.
struct PackedPrefix {
  const ProjTable& t;
  const std::vector<FlatRowsT<1>::Row16>& rows;

  using Row = FlatRowsT<1>::Row16;
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
  static Count count(const Row& r) { return r.c[0]; }
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
  detail::seal_by_frontier(cx, prefix);
  detail::seal_by_frontier(cx, plus);
  cx.note_lanes(prefix.layout());
  cx.note_lanes(plus.layout());
  const std::uint32_t ranks = cx.load == nullptr ? 0 : cx.load->num_ranks();
  LoadModel::Held held(ranks);
  {
    ScopedStage timed(cx.stage_slot(&StageWall::merge));
    // One merge-charge tally per thread of the end-bucket loop.
    std::vector<LoadModel::Held> tallies(
        cx.load == nullptr ? 0 : detail::pool_threads(), held);
    const auto run = [&](const auto& rows) {
      const FusedSplit split(cx, rows, child, o, plus, spec);
      detail::for_each_end_bucket<1>(
          cx, range.begin, std::min(range.end, n), prefix.size() + plus.size(),
          sink, [&](VertexId v, AccumMap& out, int t) {
            split.bucket(v, out, tallies.empty() ? nullptr : &tallies[t]);
          });
    };
    const FlatRowsT<1>* const flat = prefix.flat_storage();
    if (flat != nullptr && flat->mode() == FlatRowsT<1>::Mode::kU16) {
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

// Compile every supported batch width of the table-producing primitives
// once; TUs that only call through these signatures reuse them.
#define CCBT_INSTANTIATE_PRIMITIVES(B)                                       \
  template ProjTableT<B> init_path_from_graph<B>(                            \
      const ExecContext&, const ExtendOpts&, VertexRange);                   \
  template ProjTableT<B> init_path_from_child<B>(                            \
      const ExecContext&, const ProjTableT<B>&, bool, const ExtendOpts&,     \
      VertexRange);                                                          \
  template ProjTableT<B> extend_with_graph<B>(                               \
      const ExecContext&, ProjTableT<B>&, const ExtendOpts&, VertexRange);   \
  template ProjTableT<B> extend_with_graph<B>(                               \
      const ExecContext&, const ProjTableT<B>&, const ExtendOpts&,           \
      VertexRange);                                                          \
  template ProjTableT<B> extend_with_child<B>(                              \
      const ExecContext&, ProjTableT<B>&, const ProjTableT<B>&,              \
      const ExtendOpts&, bool, VertexRange);                                 \
  template ProjTableT<B> node_join<B>(const ExecContext&, ProjTableT<B>&,    \
                                      const ProjTableT<B>&, int,             \
                                      VertexRange);                          \
  template void merge_halves<B>(const ExecContext&, ProjTableT<B>&,          \
                                ProjTableT<B>&, const MergeSpec&,            \
                                AccumMapT<B>&);                              \
  template ProjTableT<B> aggregate<B>(const ExecContext&,                    \
                                      const ProjTableT<B>&, int);

CCBT_INSTANTIATE_PRIMITIVES(1)
CCBT_INSTANTIATE_PRIMITIVES(2)
CCBT_INSTANTIATE_PRIMITIVES(4)
CCBT_INSTANTIATE_PRIMITIVES(8)

#undef CCBT_INSTANTIATE_PRIMITIVES

}  // namespace ccbt
