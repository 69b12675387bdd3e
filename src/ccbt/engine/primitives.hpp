#pragma once
// The engine's join primitives (Section 7, third layer).
//
// Path tables are keyed (slot0 = anchor image, slot1 = frontier image,
// slots 2-3 = tracked boundary images, signature). Each primitive is one
// bulk-synchronous phase of the virtual-rank load model:
//   * init/extend with graph edges      — Procedure 1 of Figs 4 and 6;
//   * init/extend with a child table    — EdgeJoin of Fig 7;
//   * node_join with a unary child      — NodeJoin of Fig 7;
//   * merge_halves                      — Procedure 2 of Figs 4 and 6.
//
// Everything is parameterized on the batch width B: one execution carries
// B colorings ("lanes"), counts are per-lane vectors, and entries are
// signature-blocked — lanes whose colorings give a partial match the same
// signature share one table entry and therefore one probe. Per-lane logic
// only appears where a coloring is consulted:
//   * graph-driven steps group a new vertex's lanes by the signature they
//     produce (SigGroups) and emit one entry per distinct signature;
//   * join compatibility ("shares exactly the joint colors") splits into
//     a lane-independent half — the signature intersection must be the
//     right size — and a per-lane half — the intersection must equal the
//     joint vertex's lane colors (ColoringBatch::mask_bit_eq/mask_pair_eq).
// B = 1 takes the original scalar code paths via if constexpr.
//
// Two accumulation strategies, one per width:
//   * B = 1 pushes rows from each input entry and hashes them through
//     per-thread AccumMaps (the per-entry kernels below).
//   * B > 1 builds every path table born sorted: one frontier vertex w at
//     a time, in ascending w, it pulls the rows that land on w — from the
//     input's bucket of each neighbour x of w, or from the child rows
//     ending at w — then sorts and deduplicates that bucket locally
//     (build_buckets). The table arrives sealed kByV1, the home-slot-1
//     layout of Section 7, with no global sort.
//
// The per-entry kernels (emit-callback form) are also what the
// virtual-MPI engine in ccbt/dist runs. The pull loops charge the load
// model per (bucket, neighbour) instead of per entry; the per-rank sums
// per phase are the same, which tests/test_dist_engine.cpp checks.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/engine/exec_context.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/lane_simd.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/table/signature.hpp"
#include "ccbt/util/error.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ccbt {

struct ExtendOpts {
  /// Also record the new frontier into this key slot (2 or 3); -1 = none.
  int track_slot = -1;

  /// DB constraint: the anchor must be strictly higher (u ≻ w) than the
  /// newly matched cycle vertex.
  bool anchor_higher = false;
};

namespace detail {

inline void check_budget(const ExecContext& cx, std::size_t size) {
  if (size > cx.opts.max_table_entries) {
    throw BudgetExceeded("projection table exceeded " +
                         std::to_string(cx.opts.max_table_entries) +
                         " entries");
  }
}

#ifdef _OPENMP
inline int pool_threads() { return omp_get_max_threads(); }
#endif

/// Lanes of one (entry, new vertex) step grouped by the signature their
/// coloring produces: at most B distinct signatures, found by linear scan
/// (B <= 8).
template <int B>
struct SigGroups {
  std::array<Signature, B> sig;
  std::array<LaneMask, B> mask;
  int n = 0;

  void add(Signature s, int lane) {
    for (int i = 0; i < n; ++i) {
      if (sig[i] == s) {
        mask[i] |= LaneMask{1} << lane;
        return;
      }
    }
    sig[n] = s;
    mask[n] = LaneMask{1} << lane;
    ++n;
  }
};

/// Reduce per-thread accumulation maps into one, pre-sized so the merge
/// runs without intermediate rehashes. Single-producer case moves instead.
template <int B>
AccumMapT<B> reduce_maps(const ExecContext& cx,
                         std::vector<AccumMapT<B>>& maps) {
  std::size_t total = 0;
  AccumMapT<B>* only = nullptr;
  int producers = 0;
  for (AccumMapT<B>& m : maps) {
    if (m.empty()) continue;
    total += m.size();
    only = &m;
    ++producers;
  }
  if (producers == 1) {
    check_budget(cx, only->size());
    return std::move(*only);
  }
  AccumMapT<B> merged(16, cx.opts.compact_accum);
  merged.reserve(total);
  for (AccumMapT<B>& m : maps) {
    m.for_each([&](const TableKey& k, const typename LaneOps<B>::Vec& c) {
      merged.add(k, c);
    });
    check_budget(cx, merged.size());
  }
  return merged;
}

/// Run `emit(index, map)` for every index in [0, n), accumulating into
/// per-thread maps that are merged afterwards by a pre-sized two-pass
/// reduction. Load accounting is thread-affine (LoadModel buffers charges
/// per OpenMP thread), so simulated runs parallelize like real ones.
template <int B, typename Emit>
AccumMapT<B> accumulate_over(const ExecContext& cx, std::size_t n,
                             Emit&& emit) {
  ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
#ifdef _OPENMP
  if (cx.opts.use_threads && pool_threads() > 1 && n > 4096) {
    const int threads = pool_threads();
    std::vector<AccumMapT<B>> maps;
    maps.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      maps.emplace_back(16, cx.opts.compact_accum);
    }
    std::atomic<bool> budget_hit{false};
#pragma omp parallel num_threads(threads)
    {
      AccumMapT<B>& local = maps[omp_get_thread_num()];
#pragma omp for schedule(dynamic, 512)
      for (std::size_t i = 0; i < n; ++i) {
        if (budget_hit.load(std::memory_order_relaxed)) continue;
        emit(i, local);
        if (local.size() > cx.opts.max_table_entries) {
          budget_hit.store(true, std::memory_order_relaxed);
        }
      }
    }
    if (budget_hit.load()) check_budget(cx, cx.opts.max_table_entries + 1);
    return reduce_maps(cx, maps);
  }
#endif
  AccumMapT<B> map(16, cx.opts.compact_accum);
  for (std::size_t i = 0; i < n; ++i) {
    emit(i, map);
    if ((i & 0xFFF) == 0) check_budget(cx, map.size());
  }
  check_budget(cx, map.size());
  return map;
}

/// The B = 1 accumulation: `body(i, emit)` emits the rows of input item i
/// through `emit(key, count)`, hashed through per-thread AccumMaps (exact
/// pre-merge); the merged map becomes the table.
template <typename Body>
ProjTableT<1> accumulate_map(const ExecContext& cx, int arity, std::size_t n,
                             Body&& body) {
  AccumMapT<1> map =
      accumulate_over<1>(cx, n, [&](std::size_t i, AccumMapT<1>& sink) {
        body(i, [&](const TableKey& k, Count c) { sink.add(k, c); });
      });
  // emit_bytes is what the accumulation phase materialized: the deduped
  // hash rows here, the rows fed to the bucket sorts at B > 1.
  if (cx.accum != nullptr) {
    ++cx.accum->phases;
    cx.accum->rows += map.size();
    cx.accum->emit_bytes += map.byte_size();
  }
  cx.end_phase();
  return ProjTableT<1>::from_map(arity, std::move(map));
}

/// The push kernels' `emit(key, counts)`, appending to a bucket scratch.
template <int B>
auto append_to(FlatRowsT<B>& sink) {
  return [&sink](const TableKey& k, const typename LaneOps<B>::Vec& c) {
    sink.append(k, c);
  };
}

/// The born-sorted build every B > 1 path primitive shares. The output is
/// built one frontier vertex w at a time, in ascending w: `body(w, sink)`
/// emits the rows whose frontier is w into a thread-local scratch, which
/// is then sorted and deduplicated locally (exact u64 run sums) and
/// appended with its bucket offset. The table arrives sealed kByV1 with
/// no global sort. Threads build contiguous vertex ranges that
/// concatenate in order, so the table is the same at every thread count;
/// `work` (the input rows the phase reads) decides whether threads pay.
/// The budget bounds the deduplicated rows.
template <int B, typename Body>
ProjTableT<B> build_buckets(const ExecContext& cx, int arity,
                            std::size_t work, Body&& body) {
  using Mode = typename FlatRowsT<B>::Mode;
  ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
  const VertexId n = cx.g.num_vertices();
  // Lane compression off keeps every row in the dense u64[B] layout.
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
  std::vector<SortedBucketsT<B>> built;
  built.reserve(parts);
  // Output tables run at about twice their input's rows.
  for (int p = 0; p < parts; ++p) built.emplace_back(wide, 2 * work / parts);
  std::atomic<bool> budget_hit{false};
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) if (parts > 1)
#endif
  for (int p = 0; p < parts; ++p) {
    thread_local FlatRowsT<B> scratch;
    SortedBucketsT<B>& part = built[p];
    const auto lo = static_cast<VertexId>(std::uint64_t{n} * p / parts);
    const auto hi = static_cast<VertexId>(std::uint64_t{n} * (p + 1) / parts);
    for (VertexId w = lo; w < hi; ++w) {
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
  SortedBucketsT<B> out = std::move(built[0]);
  for (int p = 1; p < parts; ++p) out.absorb(std::move(built[p]));
  check_budget(cx, out.size());
  if (cx.accum != nullptr) {
    ++cx.accum->phases;
    cx.accum->rows += out.emitted_rows();
    cx.accum->emit_bytes += out.emitted_bytes();
  }
  cx.end_phase();
  return ProjTableT<B>::from_buckets(arity, std::move(out));
}

/// Probe-side view of a stored child table. Joins probe the child once
/// per path row, so a compressed or narrow child must not be decoded per
/// probe — this expands it to dense rows ONCE up front and serves every
/// group probe as a raw subspan through the bucket index. Dense children
/// pay nothing (the view aliases their rows).
template <int B>
class ChildProbe {
 public:
  explicit ChildProbe(const ProjTableT<B>& t) : t_(t) {
    rows_ = t.expand_rows(0, t.size(), scratch_);
  }
  ChildProbe(const ChildProbe&) = delete;
  ChildProbe& operator=(const ChildProbe&) = delete;

  std::span<const TableEntryT<B>> group(int slot, VertexId v) const {
    const auto [lo, hi] = t_.group_span(slot, v);
    return rows_.subspan(lo, hi - lo);
  }

 private:
  const ProjTableT<B>& t_;
  std::vector<TableEntryT<B>> scratch_;
  std::span<const TableEntryT<B>> rows_;
};

/// The same rows with key slots 0 and 1 swapped, sealed kByV0: a child
/// table grouped by its other endpoint (tables are stored kByV0).
template <int B>
ProjTableT<B> transposed_by_v0(const ExecContext& cx, const ProjTableT<B>& t) {
  ScopedStage timed(cx.stage_slot(&StageWall::seal));
  ProjTableT<B> out = t.transposed();
  out.seal(SortOrder::kByV0, cx.g.num_vertices(), LaneSealHint::kStream);
  return out;
}

/// Seal a B > 1 path input in its born order (a relabel for a born-sorted
/// table) so its frontier buckets can be pulled.
template <int B>
void seal_by_frontier(const ExecContext& cx, ProjTableT<B>& path) {
  ScopedStage timed(cx.stage_slot(&StageWall::seal));
  path.seal(SortOrder::kByV1, cx.g.num_vertices(), LaneSealHint::kStream);
}

/// The `alive` lanes of a row with signature `sig` grouped by the
/// signature the row gets when it adds a vertex whose lane colors are
/// `cw` (ColoringBatch::colors_word); lanes already using that color drop
/// out.
template <int B>
SigGroups<B> extend_groups(Signature sig, LaneMask alive, std::uint64_t cw) {
  SigGroups<B> groups;
  for (LaneMask a = alive; a != 0; a &= (a - 1)) {
    const int l = std::countr_zero(static_cast<unsigned>(a));
    const Signature w_bit = Signature{1} << ((cw >> (8 * l)) & 0xFF);
    if ((sig & w_bit) != 0) continue;
    groups.add(sig | w_bit, l);
  }
  return groups;
}

/// Emit the initial path rows of edge (u, w) at B > 1: one row per
/// distinct two-color signature, lanes coloring u and w alike dropped.
template <int B, typename Emit>
void emit_edge(const ExecContext& cx, VertexId u, VertexId w,
               const ExtendOpts& o, Emit&& emit) {
  SigGroups<B> groups;
  std::uint64_t cu = cx.chi.colors_word(u);
  std::uint64_t cw = cx.chi.colors_word(w);
  for (int l = 0; l < B; ++l, cu >>= 8, cw >>= 8) {
    if ((cu & 0xFF) == (cw & 0xFF)) continue;
    groups.add((Signature{1} << (cu & 0xFF)) | (Signature{1} << (cw & 0xFF)),
               l);
  }
  if (groups.n == 0) return;
  TableKey key;
  key.v[0] = u;
  key.v[1] = w;
  if (o.track_slot >= 0) key.v[o.track_slot] = w;
  for (int i = 0; i < groups.n; ++i) {
    key.sig = groups.sig[i];
    emit(key, LaneOps<B>::ones(groups.mask[i]));
  }
  cx.send(u, w, 1);
}

/// EdgeJoin of one path row `e`, whose frontier is `joint`, with one
/// child row `ce` running from `joint` to `w` (B > 1): the matches may
/// share exactly one color, and it must be the joint's color in a lane.
template <int B, typename Emit>
void join_edge(const ExecContext& cx, const TableEntryT<B>& e,
               const TableEntryT<B>& ce, VertexId joint, VertexId w,
               const ExtendOpts& o, Emit&& emit) {
  // Lane-independent half of the compatibility test.
  const Signature inter = e.key.sig & ce.key.sig;
  if (std::popcount(inter) != 1) return;
  if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) return;
  // Per-lane half.
  const LaneMask m = cx.chi.mask_bit_eq(joint, inter);
  if (m == 0) return;
  const auto cnt = LaneSimdT<B>::mul_masked(e.cnt, ce.cnt, m);
  if (LaneSimdT<B>::is_zero(cnt)) return;
  TableKey key = e.key;
  key.v[1] = w;
  if (o.track_slot >= 0) key.v[o.track_slot] = w;
  key.sig = e.key.sig | ce.key.sig;
  emit(key, cnt);
  cx.send(joint, w, 1);
}

}  // namespace detail

// ---------------------------------------------------------------- kernels
// Per-item loop bodies of the push form: the B = 1 primitives and the
// distributed engine run them. Each kernel performs the load-model charges
// itself and hands finished rows to `emit(key, lane-counts)`; the caller
// only chooses where rows go (a hash-map sink or a transport).

/// Initial path entries out of one data vertex u (Procedure 1 init).
template <int B, typename Emit>
void kernel_init_from_graph(const ExecContext& cx, VertexId u,
                            const ExtendOpts& o, Emit&& emit) {
  const CsrGraph& g = cx.g;
  cx.charge(u, g.degree(u));
  for (VertexId w : g.neighbors(u)) {
    if (o.anchor_higher && !cx.order.higher(u, w)) continue;
    if constexpr (B == 1) {
      if (cx.chi.color(u) == cx.chi.color(w)) continue;
      TableKey key;
      key.v[0] = u;
      key.v[1] = w;
      if (o.track_slot >= 0) key.v[o.track_slot] = w;
      key.sig = cx.chi.bit(u) | cx.chi.bit(w);
      emit(key, Count{1});
      cx.send(u, w, 1);
    } else {
      detail::emit_edge<B>(cx, u, w, o, emit);
    }
  }
}

/// Re-key one child-table entry as an initial path entry. Signatures are
/// per-entry at every width, so no lane logic is needed.
template <int B, typename Emit>
void kernel_init_from_child(const ExecContext& cx, const TableEntryT<B>& e,
                            bool flip, const ExtendOpts& o, Emit&& emit) {
  const VertexId a = e.key.v[flip ? 1 : 0];
  const VertexId b = e.key.v[flip ? 0 : 1];
  cx.charge(b, 1);
  if (o.anchor_higher && !cx.order.higher(a, b)) return;
  TableKey key;
  key.v[0] = a;
  key.v[1] = b;
  if (o.track_slot >= 0) key.v[o.track_slot] = b;
  key.sig = e.key.sig;
  emit(key, e.cnt);
}

/// Extend one path entry by every data-graph edge out of its frontier.
template <int B, typename Emit>
void kernel_extend_with_graph(const ExecContext& cx, const TableEntryT<B>& e,
                              const ExtendOpts& o, Emit&& emit) {
  const CsrGraph& g = cx.g;
  const VertexId v = e.key.v[1];
  cx.charge(v, g.degree(v));
  [[maybe_unused]] LaneMask alive = 0;
  if constexpr (B > 1) {
    alive = LaneSimdT<B>::nonzero_mask(e.cnt);
    if (alive == 0) return;
  }
  for (VertexId w : g.neighbors(v)) {
    if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) continue;
    if constexpr (B == 1) {
      const Signature w_bit = cx.chi.bit(w);
      if ((e.key.sig & w_bit) != 0) continue;
      TableKey key = e.key;
      key.v[1] = w;
      if (o.track_slot >= 0) key.v[o.track_slot] = w;
      key.sig = e.key.sig | w_bit;
      emit(key, e.cnt);
      cx.send(v, w, 1);
    } else {
      const detail::SigGroups<B> groups =
          detail::extend_groups<B>(e.key.sig, alive, cx.chi.colors_word(w));
      if (groups.n == 0) continue;
      TableKey key = e.key;
      key.v[1] = w;
      if (o.track_slot >= 0) key.v[o.track_slot] = w;
      for (int i = 0; i < groups.n; ++i) {
        key.sig = groups.sig[i];
        emit(key, LaneSimdT<B>::masked(e.cnt, groups.mask[i]));
      }
      cx.send(v, w, 1);
    }
  }
}

/// EdgeJoin: extend one path entry through its frontier's group of a
/// child block's binary table.
template <int B, typename Emit>
void kernel_extend_with_child(const ExecContext& cx, const TableEntryT<B>& e,
                              std::span<const TableEntryT<B>> group,
                              const ExtendOpts& o, Emit&& emit) {
  const VertexId v = e.key.v[1];
  cx.charge(v, group.size());
  if constexpr (B == 1) {
    const Signature v_bit = cx.chi.bit(v);
    for (const TableEntryT<B>& ce : group) {
      if (!node_join_compatible(e.key.sig, ce.key.sig, v_bit)) continue;
      const VertexId w = ce.key.v[1];
      if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) continue;
      TableKey key = e.key;
      key.v[1] = w;
      if (o.track_slot >= 0) key.v[o.track_slot] = w;
      key.sig = e.key.sig | ce.key.sig;
      emit(key, e.cnt * ce.cnt);
      cx.send(v, w, 1);
    }
  } else {
    for (const TableEntryT<B>& ce : group) {
      detail::join_edge<B>(cx, e, ce, v, ce.key.v[1], o, emit);
    }
  }
}

/// NodeJoin: multiply one path entry against the unary child group of its
/// key slot `slot` vertex.
template <int B, typename Emit>
void kernel_node_join(const ExecContext& cx, const TableEntryT<B>& e,
                      std::span<const TableEntryT<B>> group, int slot,
                      Emit&& emit) {
  const VertexId x = e.key.v[slot];
  cx.charge(x, group.size());
  if constexpr (B == 1) {
    const Signature x_bit = cx.chi.bit(x);
    for (const TableEntryT<B>& ce : group) {
      if (!node_join_compatible(e.key.sig, ce.key.sig, x_bit)) continue;
      TableKey key = e.key;
      key.sig = e.key.sig | ce.key.sig;
      emit(key, e.cnt * ce.cnt);
    }
  } else {
    for (const TableEntryT<B>& ce : group) {
      const Signature inter = e.key.sig & ce.key.sig;
      if (std::popcount(inter) != 1) continue;
      const LaneMask m = cx.chi.mask_bit_eq(x, inter);
      if (m == 0) continue;
      const auto cnt = LaneSimdT<B>::mul_masked(e.cnt, ce.cnt, m);
      if (LaneSimdT<B>::is_zero(cnt)) continue;
      TableKey key = e.key;
      key.sig = e.key.sig | ce.key.sig;
      emit(key, cnt);
    }
  }
}

/// Project one entry onto its first new_arity slots.
template <int B, typename Emit>
void kernel_aggregate(const ExecContext& cx, const TableEntryT<B>& e,
                      int new_arity, Emit&& emit) {
  TableKey key;
  for (int s = 0; s < new_arity; ++s) key.v[s] = e.key.v[s];
  key.sig = e.key.sig;
  if (new_arity >= 1) cx.charge(key.v[0], 1);
  emit(key, e.cnt);
}

// ------------------------------------------------------------- primitives

/// Initial path table over all data-graph edges: one entry per ordered
/// pair (u, w) of adjacent vertices, per distinct lane signature (u ≻ w
/// when anchor_higher; lanes coloring u and w alike contribute nothing).
template <int B = 1>
ProjTableT<B> init_path_from_graph(const ExecContext& cx,
                                   const ExtendOpts& o) {
  if constexpr (B == 1) {
    return detail::accumulate_map(
        cx, 2, cx.g.num_vertices(), [&](std::size_t ui, auto&& emit) {
          kernel_init_from_graph<1>(cx, static_cast<VertexId>(ui), o, emit);
        });
  } else {
    // Bucket w pulls the edges (u, w) over u ∈ N(w); charging 1 per
    // adjacency sums to the push kernel's deg(u) per u.
    return detail::build_buckets<B>(
        cx, 2, cx.g.num_edges(),
        [&](VertexId w, FlatRowsT<B>& sink) {
          for (VertexId u : cx.g.neighbors(w)) {
            cx.charge(u, 1);
            if (o.anchor_higher && !cx.order.higher(u, w)) continue;
            detail::emit_edge<B>(cx, u, w, o, detail::append_to(sink));
          }
        });
  }
}

/// Initial path table from a child block's binary table, sealed kByV0.
/// Slot 0 of the result is the walk's starting node: the child's slot 0,
/// or its slot 1 when `flip`. B > 1 builds bucket w from the child rows
/// whose walk end is w, which is the child's kByV0 group when `flip` —
/// build_path hands it the pool's opposite orientation for exactly that;
/// an unflipped child is transposed first.
template <int B>
ProjTableT<B> init_path_from_child(const ExecContext& cx,
                                   const ProjTableT<B>& child, bool flip,
                                   const ExtendOpts& o) {
  if constexpr (B == 1) {
    // Stored child tables may be compressed: row_at expands each row into
    // a dense entry on the stack (a plain reference when dense).
    return detail::accumulate_map(
        cx, 2, child.size(), [&](std::size_t i, auto&& emit) {
          TableEntryT<1> tmp;
          kernel_init_from_child<1>(cx, child.row_at(i, tmp), flip, o, emit);
        });
  } else {
    if (!flip) {
      return init_path_from_child<B>(
          cx, detail::transposed_by_v0(cx, child), /*flip=*/true, o);
    }
    return detail::build_buckets<B>(
        cx, 2, child.size(), [&](VertexId w, FlatRowsT<B>& sink) {
          const auto [lo, hi] = child.group_span(0, w);
          TableEntryT<B> tmp;
          for (std::size_t i = lo; i < hi; ++i) {
            kernel_init_from_child<B>(cx, child.row_at(i, tmp), /*flip=*/true,
                                      o, detail::append_to(sink));
          }
        });
  }
}

namespace detail {

/// Entry-scan extension: one kernel call per path entry.
template <int B>
ProjTableT<B> extend_with_graph_scan(const ExecContext& cx,
                                     const ProjTableT<B>& path,
                                     const ExtendOpts& o) {
  return accumulate_map(
      cx, path.arity(), path.size(), [&](std::size_t i, auto&& emit) {
        TableEntryT<B> tmp;
        kernel_extend_with_graph<B>(cx, path.row_at(i, tmp), o, emit);
      });
}

/// Pull extension (B > 1): bucket w gathers, for every neighbour x of w,
/// the live lanes of path bucket x whose color at w is new, and charges
/// |bucket x| once per (w, x) adjacency — deg(x)·|bucket x| in all, the
/// push kernel's charge. Only the set bits of each entry's live-lane mask
/// are visited (at batch densities most rows carry one or two live lanes).
template <int B>
ProjTableT<B> extend_with_graph_pull(const ExecContext& cx,
                                     ProjTableT<B>& path,
                                     const ExtendOpts& o) {
  const CsrGraph& g = cx.g;
  seal_by_frontier(cx, path);
  cx.note_lanes(path.layout());
  const FlatRowsT<B>* const flat = path.flat_storage();
  const bool fast16 = flat != nullptr &&
                      flat->mode() == FlatRowsT<B>::Mode::kU16 &&
                      (o.track_slot == -1 || o.track_slot == 1);
  if (!fast16) {
    return build_buckets<B>(
        cx, path.arity(), path.size(),
        [&](VertexId w, FlatRowsT<B>& sink) {
          thread_local std::vector<TableEntryT<B>> scratch;
          const std::uint64_t cw = cx.chi.colors_word(w);
          for (VertexId x : g.neighbors(w)) {
            const auto bucket = path.group_expanded(1, x, scratch);
            if (bucket.empty()) continue;
            cx.charge(x, bucket.size());
            for (const TableEntryT<B>& e : bucket) {
              if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) {
                continue;
              }
              const SigGroups<B> groups = extend_groups<B>(
                  e.key.sig, LaneSimdT<B>::nonzero_mask(e.cnt), cw);
              if (groups.n == 0) continue;
              Count ehi = 0;
              for (int l = 0; l < B; ++l) ehi |= LaneOps<B>::lane(e.cnt, l);
              TableKey key = e.key;
              key.v[1] = w;
              if (o.track_slot >= 0) key.v[o.track_slot] = w;
              for (int gi = 0; gi < groups.n; ++gi) {
                key.sig = groups.sig[gi];
                sink.append_masked(key, e.cnt, groups.mask[gi], ehi);
              }
              cx.send(x, w, 1);
            }
          }
        });
  }

  // All-16-bit path: each emission is a masked u16 row copy with the
  // packed key rewritten in registers. Every bucket is read once per
  // neighbour of its vertex, so the per-row side word — anchor rank
  // above the live-lane mask — is computed once up front.
  using Row16 = typename FlatRowsT<B>::Row16;
  const std::vector<Row16>& rows = flat->rows_u16();
  std::vector<std::uint64_t> side(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    LaneMask a = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      a |= static_cast<LaneMask>(rows[i].c[l] != 0) << l;
    }
    const std::uint64_t rank =
        cx.order.rank(static_cast<VertexId>(rows[i].k >> 36));
    side[i] = (rank << 8) | a;
  }
  constexpr std::uint64_t kV0Bits = std::uint64_t{kPacked28NoVertex} << 36;
  return build_buckets<B>(
      cx, path.arity(), path.size(),
      [&](VertexId w, FlatRowsT<B>& sink) {
        const std::uint64_t cw = cx.chi.colors_word(w);
        const std::uint64_t wrank = cx.order.rank(w);
        const std::uint64_t wfield = std::uint64_t{w} << 8;
        for (VertexId x : g.neighbors(w)) {
          const auto [lo, hi] = path.group_span(1, x);
          if (lo == hi) continue;
          cx.charge(x, hi - lo);
          for (std::size_t i = lo; i < hi; ++i) {
            const std::uint64_t s = side[i];
            const auto a0 = static_cast<LaneMask>(s & 0xFF);
            if (a0 == 0) continue;
            if (o.anchor_higher && (s >> 8) <= wrank) continue;
            const Row16& r = rows[i];
            const auto esig = static_cast<Signature>(r.k & 0xFF);
            const std::uint64_t kbase = (r.k & kV0Bits) | wfield;
            auto emit = [&](Signature sig, LaneMask m) {
              if (sig <= 0xFF) [[likely]] {
                sink.append_masked_u16(kbase | sig, r, m);
                return;
              }
              // Color >= 8: the signature no longer fits the packed
              // key's 8-bit field.
              TableKey key;
              key.v[0] = static_cast<VertexId>(r.k >> 36);
              key.v[1] = w;
              key.sig = sig;
              sink.append_masked(key, FlatRowsT<B>::expand_counts(r), m,
                                 std::uint64_t{0xFFFF});
            };
            if ((a0 & (a0 - 1)) == 0) {
              // One live lane (the common case at batch densities): one
              // signature, one mask — skip the grouping pass.
              const int l = std::countr_zero(static_cast<unsigned>(a0));
              const Signature w_bit = Signature{1}
                                      << ((cw >> (8 * l)) & 0xFF);
              if ((esig & w_bit) != 0) continue;
              emit(esig | w_bit, a0);
              cx.send(x, w, 1);
              continue;
            }
            const SigGroups<B> groups = extend_groups<B>(esig, a0, cw);
            if (groups.n == 0) continue;
            for (int gi = 0; gi < groups.n; ++gi) {
              emit(groups.sig[gi], groups.mask[gi]);
            }
            cx.send(x, w, 1);
          }
        }
      });
}

}  // namespace detail

/// Extend every path entry by one data-graph edge out of the frontier.
/// At B > 1 the mutable overload seals the path by frontier first (a
/// relabel for the born-sorted tables the primitives produce).
template <int B>
ProjTableT<B> extend_with_graph(const ExecContext& cx, ProjTableT<B>& path,
                                const ExtendOpts& o) {
  if constexpr (B == 1) {
    return detail::extend_with_graph_scan<B>(cx, path, o);
  } else {
    return detail::extend_with_graph_pull<B>(cx, path, o);
  }
}

template <int B>
ProjTableT<B> extend_with_graph(const ExecContext& cx,
                                const ProjTableT<B>& path,
                                const ExtendOpts& o) {
  if constexpr (B == 1) {
    return detail::extend_with_graph_scan<B>(cx, path, o);
  } else {
    ProjTableT<B> copy = path;
    return detail::extend_with_graph_pull<B>(cx, copy, o);
  }
}

/// Extend through a child block's binary table (EdgeJoin): path frontier v
/// joins child entries (v, w, sig2). `child` must be sealed kByV0 and
/// oriented (use TablePool::oriented); `flip` says it is stored the other
/// way round, (w, v, sig2). B > 1 builds bucket w from the child rows
/// (w, x) and path bucket x — the flipped orientation, which build_path
/// hands it; an unflipped child is transposed first. The pull charges
/// |bucket x| per child row (x, w): |group(x)|·|bucket x| in all, the
/// push kernel's charge.
template <int B>
ProjTableT<B> extend_with_child(const ExecContext& cx, ProjTableT<B>& path,
                                const ProjTableT<B>& child,
                                const ExtendOpts& o, bool flip = false) {
  if (flip != (B > 1)) {
    return extend_with_child<B>(cx, path, detail::transposed_by_v0(cx, child),
                                o, !flip);
  }
  if constexpr (B == 1) {
    // The stored child is probed once per path row, so a compressed child
    // is expanded once up front.
    const detail::ChildProbe<1> probe(child);
    return detail::accumulate_map(
        cx, path.arity(), path.size(), [&](std::size_t i, auto&& emit) {
          TableEntryT<1> tmp;
          const TableEntryT<1>& e = path.row_at(i, tmp);
          kernel_extend_with_child<1>(cx, e, probe.group(0, e.key.v[1]), o,
                                      emit);
        });
  } else {
    detail::seal_by_frontier(cx, path);
    cx.note_lanes(path.layout());
    return detail::build_buckets<B>(
        cx, path.arity(), path.size(),
        [&](VertexId w, FlatRowsT<B>& sink) {
          thread_local std::vector<TableEntryT<B>> scratch;
          const auto [clo, chi] = child.group_span(0, w);
          TableEntryT<B> ctmp;
          for (std::size_t c = clo; c < chi; ++c) {
            const TableEntryT<B>& ce = child.row_at(c, ctmp);
            const VertexId x = ce.key.v[1];
            const auto bucket = path.group_expanded(1, x, scratch);
            cx.charge(x, bucket.size());
            for (const TableEntryT<B>& e : bucket) {
              detail::join_edge<B>(cx, e, ce, x, w, o,
                                   detail::append_to(sink));
            }
          }
        });
  }
}

/// NodeJoin: multiply in a unary child at key slot `slot` (0 = anchor,
/// 1 = frontier). `child` must be sealed kByV0. A join keeps every key's
/// frontier, so at B > 1 bucket w of the result comes from bucket w of
/// the (born-sorted) path alone.
template <int B>
ProjTableT<B> node_join(const ExecContext& cx, ProjTableT<B>& path,
                        const ProjTableT<B>& child, int slot) {
  const detail::ChildProbe<B> probe(child);
  if constexpr (B == 1) {
    return detail::accumulate_map(
        cx, path.arity(), path.size(), [&](std::size_t i, auto&& emit) {
          TableEntryT<1> tmp;
          const TableEntryT<1>& e = path.row_at(i, tmp);
          kernel_node_join<1>(cx, e, probe.group(0, e.key.v[slot]), slot,
                              emit);
        });
  } else {
    detail::seal_by_frontier(cx, path);
    return detail::build_buckets<B>(
        cx, path.arity(), path.size(),
        [&](VertexId w, FlatRowsT<B>& sink) {
          const auto [lo, hi] = path.group_span(1, w);
          TableEntryT<B> tmp;
          for (std::size_t i = lo; i < hi; ++i) {
            const TableEntryT<B>& e = path.row_at(i, tmp);
            kernel_node_join<B>(cx, e, probe.group(0, e.key.v[slot]), slot,
                                detail::append_to(sink));
          }
        });
  }
}

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
/// engine: join the matching (u, v) subgroups of one bucket pair — both
/// ranges hold one value of key slot `Outer` and are sorted by the other
/// endpoint slot — with a two-pointer sweep over that inner slot,
/// charging the load model per group at v and calling `emit(key,
/// counts)` for every compatible pair. The shared engine joins its
/// born-sorted halves end bucket by end bucket (outer 1), the distributed
/// engine its kByV0V1 shards anchor bucket by anchor bucket (outer 0);
/// either way the (u, v) groups, charges and sends are the same.
template <int B, int Outer, typename Sink>
void merge_bucket(const ExecContext& cx, std::span<const TableEntryT<B>> pu,
                  std::span<const TableEntryT<B>> mu, const MergeSpec& spec,
                  Sink&& emit) {
  constexpr int inner = 1 - Outer;
  std::size_t pi = 0, mi = 0;
  while (pi < pu.size() && mi < mu.size()) {
    const VertexId pv = pu[pi].key.v[inner];
    const VertexId mv = mu[mi].key.v[inner];
    if (pv < mv) {
      ++pi;
      continue;
    }
    if (mv < pv) {
      ++mi;
      continue;
    }
    // Same (u, v) group in both tables.
    const VertexId u = pu[pi].key.v[0];
    const VertexId v = pu[pi].key.v[1];
    std::size_t pj = pi, mj = mi;
    while (pj < pu.size() && pu[pj].key.v[inner] == pv) ++pj;
    while (mj < mu.size() && mu[mj].key.v[inner] == pv) ++mj;
    cx.charge(v, (pj - pi) * (mj - mi));
    if constexpr (B == 1) {
      const Signature uv_bits = cx.chi.bit(u) | cx.chi.bit(v);
      // The signature compatibility tests are a branchless AND/compare:
      // run them as a simd-hinted prefilter pass over the minus subgroup
      // (most pairs fail), then walk only the survivors.
      thread_local std::vector<std::uint8_t> compat;
      const std::size_t mcount = mj - mi;
      if (compat.size() < mcount) compat.resize(mcount);
      std::uint8_t* const ok = compat.data();
      const TableEntryT<B>* const mb = mu.data() + mi;
      for (std::size_t a = pi; a < pj; ++a) {
        const Signature asig = pu[a].key.sig;
        const Count acnt = pu[a].cnt;
        CCBT_SIMD
        for (std::size_t t = 0; t < mcount; ++t) {
          ok[t] = (asig & mb[t].key.sig) == uv_bits;
        }
        for (std::size_t t = 0; t < mcount; ++t) {
          if (!ok[t]) continue;
          const std::size_t b = mi + t;
          TableKey key;
          for (int s = 0; s < spec.out_arity; ++s) {
            const MergeOut& src = spec.out[s];
            key.v[s] = (src.side == 0 ? pu[a] : mu[b]).key.v[src.slot];
          }
          key.sig = asig | mu[b].key.sig;
          emit(key, acnt * mu[b].cnt);
          if (spec.out_arity >= 2) cx.send(v, key.v[1], 1);
        }
      }
    } else {
      // Same prefilter shape as B = 1, plus a live-lane intersection:
      // the union table holds every coloring's keys, so most pairs that
      // pass the signature half (halves may share exactly the two
      // endpoint colors) live in disjoint lanes and can never multiply
      // to a nonzero row. Both halves are branchless, so run them
      // simd-hinted over the minus subgroup and walk only survivors.
      thread_local std::vector<std::uint8_t> compat;
      thread_local std::vector<LaneMask> malive;
      const std::size_t mcount = mj - mi;
      if (compat.size() < mcount) compat.resize(mcount);
      if (malive.size() < mcount) malive.resize(mcount);
      std::uint8_t* const ok = compat.data();
      LaneMask* const ma = malive.data();
      const TableEntryT<B>* const mb = mu.data() + mi;
      for (std::size_t t = 0; t < mcount; ++t) {
        ma[t] = LaneSimdT<B>::nonzero_mask(mb[t].cnt);
      }
      for (std::size_t a = pi; a < pj; ++a) {
        const TableEntryT<B>& pa = pu[a];
        const Signature asig = pa.key.sig;
        const LaneMask palive = LaneSimdT<B>::nonzero_mask(pa.cnt);
        if (palive == 0) continue;
        CCBT_SIMD
        for (std::size_t t = 0; t < mcount; ++t) {
          ok[t] = static_cast<std::uint8_t>(
              (std::popcount(asig & mb[t].key.sig) == 2) &
              ((ma[t] & palive) != 0));
        }
        for (std::size_t t = 0; t < mcount; ++t) {
          if (!ok[t]) continue;
          const std::size_t b = mi + t;
          const Signature inter = asig & mu[b].key.sig;
          // Per-lane half: those colors must be {χ_l(u), χ_l(v)}.
          const LaneMask m =
              cx.chi.mask_pair_eq(u, v, inter) & (ma[t] & palive);
          if (m == 0) continue;
          const auto cnt = LaneSimdT<B>::mul_masked(pa.cnt, mu[b].cnt, m);
          if (LaneSimdT<B>::is_zero(cnt)) continue;
          TableKey key;
          for (int s = 0; s < spec.out_arity; ++s) {
            const MergeOut& src = spec.out[s];
            key.v[s] = (src.side == 0 ? pa : mu[b]).key.v[src.slot];
          }
          key.sig = asig | mu[b].key.sig;
          emit(key, cnt);
          if (spec.out_arity >= 2) cx.send(v, key.v[1], 1);
        }
      }
    }
    pi = pj;
    mi = mj;
  }
}

/// Packed-row variant of the B > 1 merge_bucket: both bucket ranges stay
/// in their narrow flat rows (packed u64 key + u16/u32 counts) — the
/// live-lane prefilter, the pair-compatibility test and the multiply-add
/// all run on the packed payloads, with no dense expansion of either
/// bucket. Mixed widths join through the two width template parameters;
/// only a table that left the narrow layout altogether falls back to the
/// dense kernel. Narrow lane products always fit u64 exactly (even
/// u32 x u32 < 2^64), so the emitted counts are bit-identical to
/// mul_masked over the expanded rows; charges and sends match the dense
/// kernel row for row. Inside a bucket the raw packed key orders rows by
/// (v0, v1, sig), i.e. by the inner slot, for either outer slot.
template <int B, int Outer, typename WP, typename WM, typename Sink>
void merge_bucket_packed(const ExecContext& cx,
                         std::span<const PackedFlatRowT<B, WP>> pu,
                         std::span<const PackedFlatRowT<B, WM>> mu,
                         const MergeSpec& spec, Sink&& emit) {
  static_assert(B > 1, "packed rows exist only in batched executions");
  constexpr int shift = Outer == 0 ? 8 : 36;  // the inner slot's bit field
  const auto inner_of = [](std::uint64_t k) {
    return static_cast<VertexId>((k >> shift) & kPacked28NoVertex);
  };
  std::size_t pi = 0, mi = 0;
  while (pi < pu.size() && mi < mu.size()) {
    const VertexId pv = inner_of(pu[pi].k);
    const VertexId mv = inner_of(mu[mi].k);
    if (pv < mv) {
      ++pi;
      continue;
    }
    if (mv < pv) {
      ++mi;
      continue;
    }
    // Same (u, v) group in both tables.
    const auto u = static_cast<VertexId>(pu[pi].k >> 36);
    const auto v = static_cast<VertexId>((pu[pi].k >> 8) & kPacked28NoVertex);
    std::size_t pj = pi, mj = mi;
    while (pj < pu.size() && inner_of(pu[pj].k) == pv) ++pj;
    while (mj < mu.size() && inner_of(mu[mj].k) == pv) ++mj;
    cx.charge(v, (pj - pi) * (mj - mi));
    thread_local std::vector<std::uint8_t> compat;
    thread_local std::vector<LaneMask> malive;
    const std::size_t mcount = mj - mi;
    if (compat.size() < mcount) compat.resize(mcount);
    if (malive.size() < mcount) malive.resize(mcount);
    std::uint8_t* const ok = compat.data();
    LaneMask* const ma = malive.data();
    const PackedFlatRowT<B, WM>* const mb = mu.data() + mi;
    for (std::size_t t = 0; t < mcount; ++t) {
      LaneMask a = 0;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) {
        a |= static_cast<LaneMask>(mb[t].c[l] != 0) << l;
      }
      ma[t] = a;
    }
    for (std::size_t ai = pi; ai < pj; ++ai) {
      const PackedFlatRowT<B, WP>& pa = pu[ai];
      const auto asig = static_cast<Signature>(pa.k & 0xFF);
      LaneMask palive = 0;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) {
        palive |= static_cast<LaneMask>(pa.c[l] != 0) << l;
      }
      if (palive == 0) continue;
      CCBT_SIMD
      for (std::size_t t = 0; t < mcount; ++t) {
        ok[t] = static_cast<std::uint8_t>(
            (std::popcount(static_cast<Signature>(
                 asig & static_cast<Signature>(mb[t].k & 0xFF))) == 2) &
            ((ma[t] & palive) != 0));
      }
      const TableKey pk = unpack_key(pa.k);
      for (std::size_t t = 0; t < mcount; ++t) {
        if (!ok[t]) continue;
        const auto msig = static_cast<Signature>(mb[t].k & 0xFF);
        const Signature inter = asig & msig;
        // Per-lane half: those colors must be {χ_l(u), χ_l(v)}.
        const LaneMask m =
            cx.chi.mask_pair_eq(u, v, inter) & (ma[t] & palive);
        if (m == 0) continue;
        // Lanes of m have both factors nonzero by construction, so the
        // product row is never all-zero (no wrap: narrow x narrow < 2^64).
        auto cnt = LaneOps<B>::zero();
        for (LaneMask mm = m; mm != 0; mm &= (mm - 1)) {
          const int l = std::countr_zero(static_cast<unsigned>(mm));
          LaneOps<B>::set_lane(cnt, l,
                               static_cast<Count>(pa.c[l]) *
                                   static_cast<Count>(mb[t].c[l]));
        }
        TableKey key;
        if (spec.out_arity > 0) {
          const TableKey mk = unpack_key(mb[t].k);
          for (int s = 0; s < spec.out_arity; ++s) {
            const MergeOut& src = spec.out[s];
            key.v[s] = (src.side == 0 ? pk : mk).v[src.slot];
          }
        }
        key.sig = asig | msig;
        emit(key, cnt);
        if (spec.out_arity >= 2) cx.send(v, key.v[1], 1);
      }
    }
    pi = pj;
    mi = mj;
  }
}

/// Join the two half-cycle tables on their shared (anchor, end) pair with
/// the signature-compatibility test of Fig 6 Procedure 2, accumulating
/// into `sink` (so the DB solver can sum over all anchor choices, Eq. 1).
/// B = 1 seals the hashed halves kByV0V1 and joins anchor bucket by
/// anchor bucket; B > 1 halves are born sorted by their end vertex, so
/// they join end bucket by end bucket with no seal at all.
template <int B>
void merge_halves(const ExecContext& cx, ProjTableT<B>& plus,
                  ProjTableT<B>& minus, const MergeSpec& spec,
                  AccumMapT<B>& sink) {
  using Vec = typename LaneOps<B>::Vec;
  constexpr SortOrder kOrder = B == 1 ? SortOrder::kByV0V1 : SortOrder::kByV1;
  constexpr int kOuter = group_slot(kOrder);
  const VertexId n = cx.g.num_vertices();
  // Both halves are consumed by this one merge: stay dense (kStream).
  {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    plus.seal(kOrder, n, LaneSealHint::kStream);
    minus.seal(kOrder, n, LaneSealHint::kStream);
  }
  cx.note_lanes(plus.layout());
  cx.note_lanes(minus.layout());
  ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));

  if (plus.has_bucket_index() && minus.has_bucket_index()) {
    // Bucket router shared by the parallel and serial sweeps: when both
    // halves kept their narrow flat rows, the bucket pair joins through
    // merge_bucket_packed with no dense expansion (dispatching on each
    // side's payload width); otherwise each bucket is decoded through
    // group_expanded into a scratch (a raw subspan when dense, so B = 1
    // and dense tables pay nothing).
    const FlatRowsT<B>* const pflat = plus.flat_storage();
    const FlatRowsT<B>* const mflat = minus.flat_storage();
    auto merge_at = [&](VertexId x, auto&& add,
                        std::vector<TableEntryT<B>>& pscratch,
                        std::vector<TableEntryT<B>>& mscratch) {
      if constexpr (B > 1) {
        if (pflat != nullptr && mflat != nullptr) {
          const auto [plo, phi] = plus.group_span(kOuter, x);
          if (plo == phi) return;
          const auto [mlo, mhi] = minus.group_span(kOuter, x);
          if (mlo == mhi) return;
          const auto with_plus = [&](auto pspan) {
            if (mflat->mode() == FlatRowsT<B>::Mode::kU16) {
              merge_bucket_packed<B, kOuter>(
                  cx, pspan,
                  std::span(mflat->rows_u16()).subspan(mlo, mhi - mlo),
                  spec, add);
            } else {
              merge_bucket_packed<B, kOuter>(
                  cx, pspan,
                  std::span(mflat->rows_u32()).subspan(mlo, mhi - mlo),
                  spec, add);
            }
          };
          if (pflat->mode() == FlatRowsT<B>::Mode::kU16) {
            with_plus(std::span(pflat->rows_u16()).subspan(plo, phi - plo));
          } else {
            with_plus(std::span(pflat->rows_u32()).subspan(plo, phi - plo));
          }
          return;
        }
      }
      const auto pu = plus.group_expanded(kOuter, x, pscratch);
      if (pu.empty()) return;
      const auto mu = minus.group_expanded(kOuter, x, mscratch);
      if (mu.empty()) return;
      merge_bucket<B, kOuter>(cx, pu, mu, spec, add);
    };
#ifdef _OPENMP
    if (cx.opts.use_threads && detail::pool_threads() > 1 &&
        plus.size() + minus.size() > 4096) {
      // Buckets are independent: each thread merges whole buckets into a
      // private sink; the sinks reduce into `sink` afterwards.
      const int threads = detail::pool_threads();
      std::vector<AccumMapT<B>> maps;
      maps.reserve(threads);
      for (int t = 0; t < threads; ++t) {
        maps.emplace_back(16, cx.opts.compact_accum);
      }
      std::atomic<bool> budget_hit{false};
#pragma omp parallel num_threads(threads)
      {
        AccumMapT<B>& local = maps[omp_get_thread_num()];
#pragma omp for schedule(dynamic, 256)
        for (VertexId x = 0; x < n; ++x) {
          if (budget_hit.load(std::memory_order_relaxed)) continue;
          thread_local std::vector<TableEntryT<B>> pscratch, mscratch;
          merge_at(
              x, [&](const TableKey& k, const Vec& c) { local.add(k, c); },
              pscratch, mscratch);
          if (local.size() > cx.opts.max_table_entries) {
            budget_hit.store(true, std::memory_order_relaxed);
          }
        }
      }
      if (budget_hit.load()) {
        detail::check_budget(cx, cx.opts.max_table_entries + 1);
      }
      std::size_t total = sink.size();
      for (const AccumMapT<B>& m : maps) total += m.size();
      sink.reserve(total);
      for (AccumMapT<B>& m : maps) {
        m.for_each(
            [&](const TableKey& k, const Vec& c) { sink.add(k, c); });
        detail::check_budget(cx, sink.size());
      }
      cx.end_phase();
      return;
    }
#endif
    std::vector<TableEntryT<B>> pscratch, mscratch;
    for (VertexId x = 0; x < n; ++x) {
      merge_at(
          x, [&](const TableKey& k, const Vec& c) { sink.add(k, c); },
          pscratch, mscratch);
      detail::check_budget(cx, sink.size());
    }
    cx.end_phase();
    return;
  }

  // No bucket index (out-of-domain keys): whole-table two-pointer merge
  // over the outer slot's groups. An index-less seal always leaves the
  // rows dense (the narrow layout keeps its index), so the raw spans are
  // valid here.
  const auto pe = plus.entries();
  const auto me = minus.entries();
  std::size_t pi = 0, mi = 0;
  while (pi < pe.size() && mi < me.size()) {
    const VertexId px = pe[pi].key.v[kOuter];
    const VertexId mx = me[mi].key.v[kOuter];
    if (px < mx) {
      ++pi;
      continue;
    }
    if (mx < px) {
      ++mi;
      continue;
    }
    std::size_t pj = pi, mj = mi;
    while (pj < pe.size() && pe[pj].key.v[kOuter] == px) ++pj;
    while (mj < me.size() && me[mj].key.v[kOuter] == px) ++mj;
    merge_bucket<B, kOuter>(
        cx, pe.subspan(pi, pj - pi), me.subspan(mi, mj - mi), spec,
        [&](const TableKey& k, const Vec& c) { sink.add(k, c); });
    detail::check_budget(cx, sink.size());
    pi = pj;
    mi = mj;
  }
  cx.end_phase();
}

/// Sum out all slots beyond the first new_arity (with phase accounting).
template <int B>
ProjTableT<B> aggregate(const ExecContext& cx, const ProjTableT<B>& t,
                        int new_arity) {
  AccumMapT<B> map(t.size(), cx.opts.compact_accum);
  t.for_each_entry([&](const TableEntryT<B>& e) {
    kernel_aggregate<B>(cx, e, new_arity,
                        [&](const TableKey& k,
                            const typename LaneOps<B>::Vec& c) {
                          map.add(k, c);
                        });
  });
  detail::check_budget(cx, map.size());
  cx.end_phase();
  return ProjTableT<B>::from_map(new_arity, std::move(map));
}

}  // namespace ccbt
