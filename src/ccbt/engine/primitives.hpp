#pragma once
// The engine's join primitives (Section 7, third layer).
//
// Path tables are keyed (slot0 = anchor image, slot1 = frontier image,
// slots 2-3 = tracked boundary images, signature). Each primitive is one
// bulk-synchronous phase of the virtual-rank load model:
//   * init/extend with graph edges      — Procedure 1 of Figs 4 and 6;
//   * init/extend with a child table    — EdgeJoin of Fig 7;
//   * node_join with a unary child      — NodeJoin of Fig 7;
//   * merge_halves                      — Procedure 2 of Figs 4 and 6;
//   * extend_and_merge                  — a cycle split's last minus
//     extend and its merge_halves in one pass (two phases).
//
// Every primitive counts under one coloring, cx.chi's lane 0: the
// engines run a batch of colorings as one single-coloring pass per
// coloring (executor.hpp), as the paper's DP is defined. The
// compatibility tests of Figs 6 and 7 ("shares exactly the joint
// colors") therefore compare signatures with the colour bits of the
// joint vertices directly. This header declares the primitives, whose
// bodies live in primitives.cpp, and holds the aggregate's row kernel and
// the merge-join kernel that the distributed engine and the tests share.
//
// A table's rows are packed while their keys pack and wide otherwise
// (flat_rows.hpp). Every join reads its inputs through the row views
// ProjTable::visit hands it and is written once, as a template over
// them, so a packed table is read in place and a wide one is never
// converted.
//
// One build path for both engines: each path table is built born sorted.
// One frontier vertex w at a time, in ascending w, a primitive pulls the
// rows that land on w — from the input's bucket of each neighbour x of w,
// or from the child rows ending at w — then sorts and deduplicates that
// bucket locally. The table arrives sealed kByV1, the home-slot-1 layout
// of Section 7, in packed flat rows and with no global sort; merge_halves
// joins two such halves end bucket by end bucket. The one table read only
// once — the minus half of a cycle split, which the merge joins and drops
// — is not built at all: extend_and_merge streams each end bucket's rows
// straight into the merge against the plus bucket, with no sort. A cycle
// block's walk schedule (cycle_solver.hpp) may feed one table to several
// later primitives: each only reads it, in the order it was born in.
// Every primitive takes the frontier vertices it builds as a
// VertexRange: all of them in the shared engine, one rank's block when
// the virtual-MPI engine in ccbt/dist runs it over the rank's shard and
// halo.
//
// The pull loops charge the load model per (bucket, neighbour) instead of
// per entry; the per-rank sums per phase are the Section 7 model's, which
// tests/test_born_sorted.cpp checks against per-entry push kernels and
// tests/test_extend_and_merge.cpp checks for the fused step against
// extend plus merge_halves.

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ccbt/engine/exec_context.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/table/signature.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

struct ExtendOpts {
  /// Also record the new frontier into this key slot (2 or 3); -1 = none.
  int track_slot = -1;

  /// DB constraint: the anchor must be strictly higher (u ≻ w) than the
  /// newly matched cycle vertex.
  bool anchor_higher = false;

  auto operator<=>(const ExtendOpts&) const = default;
};

/// The frontier vertices [begin, end) one path build covers. The default
/// is every vertex, and the build closes its load-model phase itself. A
/// virtual-MPI rank builds only its own block (rank()); the engine closes
/// the phase once, after every rank has built.
struct VertexRange {
  VertexId begin = 0;
  VertexId end = kNoVertex;  // clamped to the vertex count
  bool closes_phase = true;

  static VertexRange rank(const BlockPartition& part, std::uint32_t r) {
    return {part.begin(r), part.end(r), false};
  }
};

namespace detail {

/// End one path primitive's phase: one load-model phase and one
/// accumulation phase.
inline void close_build_phase(const ExecContext& cx) {
  if (cx.accum != nullptr) ++cx.accum->phases;
  cx.end_phase();
}

}  // namespace detail

// ---------------------------------------------------------------- kernels

/// Project one entry onto its first new_arity slots.
template <typename Emit>
void kernel_aggregate(const ExecContext& cx, const TableEntry& e,
                      int new_arity, Emit&& emit) {
  TableKey key;
  for (int s = 0; s < new_arity; ++s) key.v[s] = e.key.v[s];
  key.sig = e.key.sig;
  if (new_arity >= 1) cx.charge(key.v[0], 1);
  emit(key, e.cnt);
}

// ------------------------------------------------------------- primitives

/// Initial path table over all data-graph edges: one entry per ordered
/// pair (u, w) of adjacent, differently colored vertices (u ≻ w when
/// anchor_higher).
ProjTable init_path_from_graph(const ExecContext& cx, const ExtendOpts& o,
                               VertexRange range = {});

/// Initial path table from a child block's binary table, sealed kByV0 and
/// oriented opposite to the walk: a child row (w, a) is the path row
/// (a, w), so bucket w is built from the child's group(0, w). build_path
/// hands it the pool's opposite orientation for exactly that.
ProjTable init_path_from_child(const ExecContext& cx, const ProjTable& child,
                               const ExtendOpts& o, VertexRange range = {});

/// Extend every path entry by one data-graph edge out of the frontier.
/// Bucket w gathers, for every neighbour x of w, the rows of path bucket
/// x whose signature lacks w's color, and charges |bucket x| once per
/// (w, x) adjacency — deg(x)·|bucket x| in all. Like every path input,
/// `path` must be born sorted (kByV1).
ProjTable extend_with_graph(const ExecContext& cx, const ProjTable& path,
                            const ExtendOpts& o, VertexRange range = {});

/// Extend through a child block's binary table (EdgeJoin): path frontier x
/// joins the child's matches of the edge (x, w). `child` must be sealed
/// kByV0 and oriented opposite to the walk, holding that edge as the row
/// (w, x, sig2) — the orientation build_path hands it (TablePool::oriented).
/// Bucket w is built from the child rows (w, x) and path bucket x; the
/// pull charges |bucket x| per child row (w, x): |group(x)|·|bucket x| in
/// all.
ProjTable extend_with_child(const ExecContext& cx, const ProjTable& path,
                            const ProjTable& child, const ExtendOpts& o,
                            VertexRange range = {});

/// NodeJoin: multiply in a unary child at key slot `slot` (0 = anchor,
/// 1 = frontier). `child` must be sealed kByV0. A join keeps every key's
/// frontier, so bucket w of the result comes from bucket w of the
/// (born-sorted) path alone.
ProjTable node_join(const ExecContext& cx, const ProjTable& path,
                    const ProjTable& child, int slot, VertexRange range = {});

/// Where each output key slot of a merge comes from.
struct MergeOut {
  int side = 0;  // 0 = plus path, 1 = minus path
  int slot = 0;  // key slot within that path's table
};

struct MergeSpec {
  int out_arity = 0;  // 0, 1, or 2 boundary images in the output key
  std::array<MergeOut, 2> out{};
};

/// The merge-join kernel shared by merge_halves and the distributed
/// engine: join the matching (u, v) subgroups of one end bucket pair —
/// both row views (flat_rows.hpp, either format) hold one value of key
/// slot 1 (the end v) and are sorted by the anchor slot 0 — with a
/// two-pointer sweep over the anchor, charging the load model per group
/// at v and calling `emit(key, count)` for every compatible pair.
/// Products wrap mod 2^64; as in the extends, a zero count emits nothing
/// and charges no send.
template <typename P, typename M, typename Sink>
void merge_bucket(const ExecContext& cx, const P& pu, const M& mu,
                  const MergeSpec& spec, Sink&& emit) {
  std::size_t pi = 0, mi = 0;
  while (pi < pu.size() && mi < mu.size()) {
    const VertexId pv = pu.anchor(pu[pi]);
    const VertexId mv = mu.anchor(mu[mi]);
    if (pv < mv) {
      ++pi;
      continue;
    }
    if (mv < pv) {
      ++mi;
      continue;
    }
    // Same (u, v) group in both tables.
    const VertexId u = pv;
    const VertexId v = pu.slot(pu[pi], 1);
    std::size_t pj = pi, mj = mi;
    while (pj < pu.size() && pu.anchor(pu[pj]) == u) ++pj;
    while (mj < mu.size() && mu.anchor(mu[mj]) == u) ++mj;
    cx.charge(v, (pj - pi) * (mj - mi));
    const Signature uv_bits = cx.chi.bit(u) | cx.chi.bit(v);
    // The signature compatibility tests are a branchless AND/compare:
    // run them as a simd-hinted prefilter pass over the minus subgroup
    // (most pairs fail), then walk only the survivors.
    thread_local std::vector<std::uint8_t> compat;
    const std::size_t mcount = mj - mi;
    if (compat.size() < mcount) compat.resize(mcount);
    std::uint8_t* const ok = compat.data();
    const auto* const mb = &mu[mi];
    for (std::size_t a = pi; a < pj; ++a) {
      const auto& pa = pu[a];
      const Signature asig = pu.sig(pa);
      const Count acnt = pu.count(pa);
      CCBT_SIMD
      for (std::size_t t = 0; t < mcount; ++t) {
        ok[t] = (asig & mu.sig(mb[t])) == uv_bits;
      }
      for (std::size_t t = 0; t < mcount; ++t) {
        if (!ok[t]) continue;
        const Count c = acnt * mu.count(mb[t]);
        if (c == 0) continue;
        TableKey key;
        for (int s = 0; s < spec.out_arity; ++s) {
          const MergeOut& src = spec.out[s];
          key.v[s] = src.side == 0 ? pu.slot(pa, src.slot)
                                   : mu.slot(mb[t], src.slot);
        }
        key.sig = asig | mu.sig(mb[t]);
        emit(key, c);
        if (spec.out_arity >= 2) cx.send(v, key.v[1], 1);
      }
    }
    pi = pj;
    mi = mj;
  }
}

namespace detail {

/// Join end bucket x of two half-cycle tables sealed kByV1 (group_span
/// finds it through their bucket index) through merge_bucket, each read
/// in its own format. The one bucket router of merge_halves and the
/// distributed engine's per-rank merge.
template <typename Sink>
void merge_end_bucket(const ExecContext& cx, const ProjTable& plus,
                      const ProjTable& minus, VertexId x,
                      const MergeSpec& spec, Sink&& emit) {
  plus.visit([&](const auto& prows) {
    const auto pu = plus.group(prows, 1, x);
    if (pu.empty()) return;
    minus.visit([&](const auto& mrows) {
      const auto mu = minus.group(mrows, 1, x);
      if (!mu.empty()) merge_bucket(cx, pu, mu, spec, emit);
    });
  });
}

}  // namespace detail

/// Join the two half-cycle tables on their shared (anchor, end) pair with
/// the signature-compatibility test of Fig 6 Procedure 2, adding to
/// `sink` (FlatRows::add; so the DB solver can sum over all anchor
/// choices, Eq. 1). The sink may hold earlier splits' rows; it ends
/// summed, one row per key (FlatRows::sum_duplicates), and is summed
/// early whenever it passes max_table_entries. Threads that own end
/// buckets add into private sinks, each summed and then concatenated
/// onto `sink`. The halves are born sorted by their end vertex (kByV1),
/// so they join end bucket by end bucket. The cycle
/// solvers call it only for a split whose minus half is a single edge
/// (PS); every other split ends in extend_and_merge, which never builds
/// the minus table. The phase charges |P_uv| × |M_uv| per (anchor u, end
/// v) group at v and, at out_arity >= 2, one send per compatible pair
/// whose product is not 0.
void merge_halves(const ExecContext& cx, const ProjTable& plus,
                  const ProjTable& minus, const MergeSpec& spec,
                  FlatRows& sink);

/// The last extend of a cycle split's minus walk (a graph edge, or the
/// edge child `child` in the pulling orientation extend_with_child takes)
/// fused with its merge_halves against `plus`. `prefix` is the
/// minus walk one extend short of its end (the walk schedule's fused op);
/// it may be the very table `plus` is, which both only read.
///
/// For each end vertex v of `range`, plus bucket v is indexed by anchor in
/// a per-thread, epoch-stamped u -> [lo, hi) array. The prefix rows of
/// each neighbour bucket x (or of child row (v, x)) stream through that
/// index first, then the extend's count, anchor and colour filters, and
/// each survivor multiplies into the plus rows of its anchor that pass
/// the Fig 6 test, adding straight to `sink`. A row whose anchor has no
/// plus group adds nothing, so without a load model it is dropped before
/// the filters and before its minus key is built. No minus table is built
/// and no bucket is sorted; the counts equal extend plus merge_halves
/// exactly, since the sink is bilinear in the minus rows. Both tables are
/// read in place, in their formats. `sink` is the
/// only thing it bounds with max_table_entries, and it ends summed, as
/// merge_halves leaves it.
///
/// Load model: the extend's phase is charged exactly as
/// extend_with_graph/_with_child charge it, while the rows stream: every
/// row runs the filters, hit or miss, and the sends are charged once per
/// (x, v) with the survivor count (comm charges sum). The merge phase's
/// charges — |P_uv| × (distinct minus keys of group (u, v)) at v, and at
/// out_arity >= 2 one send per compatible pair of a plus row whose count
/// is not 0 and a distinct minus key — are counted only when a load
/// model is attached and are held until the extend's phase closes. The
/// minus keys are charged as they first stream in, before their counts
/// are summed, so where merge_bucket skips a pair whose product is 0 this
/// charges it whenever the plus row's count is not 0. The two differ only
/// when counts wrap mod 2^64: a minus key whose summed count wraps to 0,
/// or a product that does. Likewise each survivor's product enters the
/// sink on its own, so a sum that wraps to 0 leaves a zero-count row
/// where merge_halves adds none; the counts are equal mod 2^64. With
/// `range.closes_phase` the primitive closes both phases itself (one
/// accumulation phase, no rows sorted) and returns nothing held; a rank's
/// range returns the held merge charges, which the caller applies after
/// it closes the extend's phase over all ranks.
LoadModel::Held extend_and_merge(const ExecContext& cx,
                                 const ProjTable& prefix,
                                 const ProjTable* child, const ExtendOpts& o,
                                 const ProjTable& plus, const MergeSpec& spec,
                                 FlatRows& sink, VertexRange range = {});

/// Sum out all slots beyond the first new_arity (with phase accounting):
/// the projected rows go to a FlatRows sink, summed at the end and
/// whenever they pass max_table_entries, which the table adopts sealed
/// kByV0 (ProjTable::from_sink).
ProjTable aggregate(const ExecContext& cx, const ProjTable& t, int new_arity);

}  // namespace ccbt
