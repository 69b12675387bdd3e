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
// The per-entry loop bodies are exposed as kernels (emit-callback form):
// the shared-memory primitives here and the virtual-MPI engine in
// ccbt/dist run the same kernels, which is what guarantees their exact
// load-model parity at every batch width.

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

/// Flat variant of accumulate_over for the batched (B > 1) graph-driven
/// primitives: rows are appended without hashing — duplicate keys are
/// summed later by the table's sorting seal (sort-merge consolidation),
/// which is far cheaper than a hash probe per emitted lane-vector row.
/// The sink keeps rows in the narrow packed layout (flat_rows.hpp), so
/// both the append traffic and the seal's sort move 24-byte rows rather
/// than dense entries. The budget bounds pre-merge rows at B > 1.
template <int B, typename Emit>
FlatRowsT<B> accumulate_flat(const ExecContext& cx, std::size_t n,
                             Emit&& emit) {
  ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
  // Every sink is bound to its emission path up front: the per-row
  // appends then never test or allocate their caches, and the run-bulk
  // extend path can be entered for the whole phase. The graph's vertex
  // count is the shard-cut domain — emitted v1 values are vertices or
  // kNoVertex — so every fresh sink here shards.
  const VertexId shard_domain = cx.g.num_vertices();
#ifdef _OPENMP
  if (cx.opts.use_threads && pool_threads() > 1 && n > 4096) {
    const int threads = pool_threads();
    std::vector<FlatRowsT<B>> rows(threads);
    std::atomic<bool> budget_hit{false};
#pragma omp parallel num_threads(threads)
    {
      FlatRowsT<B>& local = rows[omp_get_thread_num()];
      local.prepare_emit(shard_domain);
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
    std::size_t total = 0;
    for (const auto& r : rows) total += r.size();
    check_budget(cx, total);
    FlatRowsT<B>* biggest = &rows[0];
    for (auto& r : rows) {
      if (r.size() > biggest->size()) biggest = &r;
    }
    FlatRowsT<B> out = std::move(*biggest);
    for (auto& r : rows) {
      if (&r == biggest) continue;
      out.absorb(std::move(r));
    }
    if (cx.accum != nullptr) out.collect_telemetry(*cx.accum);
    return out;
  }
#endif
  FlatRowsT<B> out;
  out.prepare_emit(shard_domain);
  for (std::size_t i = 0; i < n; ++i) {
    emit(i, out);
    if ((i & 0xFFF) == 0) check_budget(cx, out.size());
  }
  check_budget(cx, out.size());
  if (cx.accum != nullptr) out.collect_telemetry(*cx.accum);
  return out;
}

/// The one dispatch point for the per-width accumulation strategy every
/// row-producing primitive shares: `body(i, emit)` emits the rows of
/// item i through `emit(key, lane-counts)`. B = 1 hashes rows through
/// per-thread AccumMaps (exact pre-merge, the original scalar path);
/// B > 1 appends narrow packed rows that the table's sorting seal
/// consolidates.
template <int B, typename Body>
ProjTableT<B> accumulate_rows(const ExecContext& cx, int arity,
                              std::size_t n, Body&& body) {
  if constexpr (B == 1) {
    AccumMapT<1> map =
        accumulate_over<1>(cx, n, [&](std::size_t i, AccumMapT<1>& sink) {
          body(i, [&](const TableKey& k, Count c) { sink.add(k, c); });
        });
    // emit_bytes is what the accumulation phase materialized before the
    // seal: the deduped hash rows here, the (cache-folded) flat rows at
    // B > 1 — the per-trial byte-traffic comparison the bench reports.
    if (cx.accum != nullptr) {
      ++cx.accum->phases;
      cx.accum->rows += map.size();
      cx.accum->emit_bytes += map.byte_size();
    }
    cx.end_phase();
    return ProjTableT<1>::from_map(arity, std::move(map));
  } else {
    FlatRowsT<B> rows =
        accumulate_flat<B>(cx, n, [&](std::size_t i, FlatRowsT<B>& sink) {
          body(i, [&](const TableKey& k, const typename LaneOps<B>::Vec& c) {
            sink.append(k, c);
          });
        });
    cx.end_phase();
    if (!cx.opts.lane_compress) {
      // Ablation: lane_compress off forces the dense u64[B] layout
      // through the whole pipeline, narrow accumulation included.
      return ProjTableT<B>::from_flat(arity, rows.take_wide());
    }
    return ProjTableT<B>::from_packed(arity, std::move(rows));
  }
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

}  // namespace detail

// ---------------------------------------------------------------- kernels
// Per-item loop bodies shared verbatim by the shared-memory primitives and
// the distributed engine. Each kernel performs the load-model charges
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
      detail::SigGroups<B> groups;
      std::uint64_t cu = cx.chi.colors_word(u);
      std::uint64_t cw = cx.chi.colors_word(w);
      for (int l = 0; l < B; ++l, cu >>= 8, cw >>= 8) {
        if ((cu & 0xFF) == (cw & 0xFF)) continue;
        groups.add((Signature{1} << (cu & 0xFF)) |
                       (Signature{1} << (cw & 0xFF)),
                   l);
      }
      if (groups.n == 0) continue;
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
      detail::SigGroups<B> groups;
      const std::uint64_t cw = cx.chi.colors_word(w);
      for (LaneMask a = alive; a != 0; a &= (a - 1)) {
        const int l = std::countr_zero(static_cast<unsigned>(a));
        const Signature w_bit = Signature{1} << ((cw >> (8 * l)) & 0xFF);
        if ((e.key.sig & w_bit) != 0) continue;
        groups.add(e.key.sig | w_bit, l);
      }
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
      // Lane-independent half of the compatibility test: the matches may
      // share exactly one color (the joint vertex's).
      const Signature inter = e.key.sig & ce.key.sig;
      if (std::popcount(inter) != 1) continue;
      const VertexId w = ce.key.v[1];
      if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) continue;
      // Per-lane half: that color must be the joint vertex's lane color.
      const LaneMask m = cx.chi.mask_bit_eq(v, inter);
      if (m == 0) continue;
      const auto cnt = LaneSimdT<B>::mul_masked(e.cnt, ce.cnt, m);
      if (LaneSimdT<B>::is_zero(cnt)) continue;
      TableKey key = e.key;
      key.v[1] = w;
      if (o.track_slot >= 0) key.v[o.track_slot] = w;
      key.sig = e.key.sig | ce.key.sig;
      emit(key, cnt);
      cx.send(v, w, 1);
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
  return detail::accumulate_rows<B>(
      cx, 2, cx.g.num_vertices(), [&](std::size_t ui, auto&& emit) {
        kernel_init_from_graph<B>(cx, static_cast<VertexId>(ui), o, emit);
      });
}

/// Initial path table from a child block's binary table. `flip` swaps the
/// child's boundary orientation so slot 0 is the walk's starting node.
template <int B>
ProjTableT<B> init_path_from_child(const ExecContext& cx,
                                   const ProjTableT<B>& child, bool flip,
                                   const ExtendOpts& o) {
  // Stored child tables may be compressed or narrow: row_at expands each
  // row into a dense entry on the stack (a plain reference when dense).
  return detail::accumulate_rows<B>(
      cx, 2, child.size(), [&](std::size_t i, auto&& emit) {
        TableEntryT<B> tmp;
        kernel_init_from_child<B>(cx, child.row_at(i, tmp), flip, o, emit);
      });
}

namespace detail {

/// Entry-scan extension: one kernel call per path entry.
template <int B>
ProjTableT<B> extend_with_graph_scan(const ExecContext& cx,
                                     const ProjTableT<B>& path,
                                     const ExtendOpts& o) {
  return detail::accumulate_rows<B>(
      cx, path.arity(), path.size(), [&](std::size_t i, auto&& emit) {
        TableEntryT<B> tmp;
        kernel_extend_with_graph<B>(cx, path.row_at(i, tmp), o, emit);
      });
}

/// Frontier-grouped extension (B > 1): seal the path by frontier, then
/// walk each frontier vertex's adjacency list ONCE for its whole bucket
/// of entries, iterating only the set bits of each entry's live-lane
/// mask (at batch densities most rows carry one or two live lanes, so
/// this replaces a B-wide loop per (entry, neighbor) with ~popcount
/// iterations). Emits exactly the entry-scan kernel's rows and
/// load-model charges — only the loop nesting (and therefore the
/// constant factor) differs.
template <int B>
ProjTableT<B> extend_with_graph_grouped(const ExecContext& cx,
                                        ProjTableT<B>& path,
                                        const ExtendOpts& o) {
  const CsrGraph& g = cx.g;
  const VertexId n = g.num_vertices();
  // The sealed path is consumed once right below: stay dense (kStream).
  {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    path.seal(SortOrder::kByV1, n, LaneSealHint::kStream);
    // DB probes only accept anchors strictly above the new vertex:
    // rank-partition each frontier bucket (anchor rank descending) so
    // every neighbor scan below stops at a partition point instead of
    // testing the whole bucket. Emission sets, charges and sends are
    // unchanged — only the scan order and its cutoff differ, and the
    // sink's sorting seal restores a canonical order.
    if (o.anchor_higher) path.rank_partition_buckets(cx.order.ranks());
  }
  cx.note_lanes(path.layout());
  if (!path.has_bucket_index()) {
    return extend_with_graph_scan<B>(cx, path, o);
  }
  const bool rank_cut = path.rank_partitioned();
  // All-16-bit streaming path: when the sealed path kept u16 narrow rows
  // and the output key stays packable, each emission is a masked u16 row
  // copy with the packed key rewritten in registers — no dense expansion
  // on either side. (A signature outgrowing the packed key's 8-bit field
  // falls back per emission; a tracked slot >= 2 disables the path.)
  const FlatRowsT<B>* const flat = path.flat_storage();
  const bool fast16 = flat != nullptr &&
                      flat->mode() == FlatRowsT<B>::Mode::kU16 &&
                      (o.track_slot == -1 || o.track_slot == 1);

  const std::size_t hint = path.size();
  auto rows = detail::accumulate_flat<B>(
      cx, n, [&](std::size_t vi, FlatRowsT<B>& sink) {
        const auto v = static_cast<VertexId>(vi);
        if (sink.empty()) sink.reserve_hint(hint);
        if (fast16) {
          const auto& rows16 = flat->rows_u16();
          const auto [lo, hi] = path.group_span(1, v);
          if (lo == hi) return;
          cx.charge(v, std::uint64_t{g.degree(v)} * (hi - lo));

          // One fused side-word per row: anchor rank in the high bits,
          // live-lane mask in the low byte — a single sequential load in
          // the neighbor loop instead of two.
          thread_local std::vector<std::uint64_t> side16;
          side16.clear();
          side16.reserve(hi - lo);
          for (std::size_t i = lo; i < hi; ++i) {
            const auto& r = rows16[i];
            LaneMask a = 0;
            CCBT_SIMD
            for (int l = 0; l < B; ++l) {
              a |= static_cast<LaneMask>(r.c[l] != 0) << l;
            }
            const std::uint64_t rank =
                cx.order.rank(static_cast<VertexId>(r.k >> 36));
            side16.push_back((rank << 8) | a);
          }

          // Probe path: pipeline the combining-cache probes a tile
          // ahead — prefetch each slot at enqueue, append on flush, so
          // the dependent slot load is in flight across a tile of
          // emissions instead of stalling every append. (Emission
          // order within a sink never changes sealed counts: every
          // fold is an exact u64 sum.) Idle when the sink is sharded.
          constexpr int kTile = 16;
          struct Pending {
            std::uint64_t k;
            std::uint32_t row;
            LaneMask m;
          };
          std::array<Pending, kTile> tile;
          int tn = 0;
          auto flush_tile = [&] {
            for (int t = 0; t < tn; ++t) {
              sink.append_masked_u16(tile[t].k, rows16[tile[t].row],
                                     tile[t].m);
            }
            tn = 0;
          };
          auto emit_probe = [&](std::uint64_t k, std::size_t row,
                                LaneMask m) {
            sink.prefetch_combine(k);
            tile[tn++] = {k, static_cast<std::uint32_t>(row), m};
            if (tn == kTile) flush_tile();
          };

          // Frontier-side dedup (sparse emission records only, so a
          // dense phase emits exactly the rows it always did): the
          // bucket is sorted by (v0, sig), so emissions for one (v, w)
          // burst repeat keys back to back — sibling rows whose
          // signatures close over the same color set. A one-row pending
          // register folds those bursts before they reach a shard or
          // probe slot: fewer records pushed, fewer cache probes. Every
          // fold is an exact u16-checked sum, flushed on key change,
          // overflow, or burst end, so sealed counts are unchanged.
          const bool dedup = sink.sparse();
          using Row16 = PackedFlatRowT<B, std::uint16_t>;
          std::uint64_t pend_k = ~std::uint64_t{0};
          Row16 pend;
          LaneMask pend_m = 0;
          std::uint64_t folds = 0;

          for (VertexId w : g.neighbors(v)) {
            const std::uint64_t cw = cx.chi.colors_word(w);
            const std::uint64_t wrank = cx.order.rank(w);
            // Rank-partitioned bucket: the compatible anchors (rank >
            // rank(w)) are exactly the leading prefix — cut the scan
            // there and drop the per-row order test.
            std::size_t end = hi;
            if (rank_cut) {
              end = lo + static_cast<std::size_t>(
                            std::partition_point(
                                side16.begin(), side16.end(),
                                [wrank](std::uint64_t s) {
                                  return (s >> 8) > wrank;
                                }) -
                            side16.begin());
            }
            // Sharded sink: the whole (v, w) burst shares v1 == w,
            // so it lands in one shard — resolve the shard and its
            // cache slice once and emit through the run handle (one
            // L1 probe + push per row). Invalid on the probe path,
            // and re-acquired after any generic fallback, which can
            // escalate the sink and tear the shards down.
            auto run = sink.run_u16(w, end - lo);
            auto flush_pend = [&] {
              if (pend_k == ~std::uint64_t{0}) return;
              if (run.valid()) {
                sink.run_append_u16(run, pend_k, pend, pend_m);
              } else {
                sink.append_masked_u16(pend_k, pend, pend_m);
              }
              pend_k = ~std::uint64_t{0};
            };
            auto emit_fold = [&](std::uint64_t k, const Row16& r2,
                                 LaneMask m) {
              if (k == pend_k) {
                std::array<std::uint32_t, B> sum;
                std::uint32_t hi = 0;
                CCBT_SIMD
                for (int l = 0; l < B; ++l) {
                  sum[l] = static_cast<std::uint32_t>(pend.c[l]) +
                           (((m >> l) & 1) != 0 ? r2.c[l]
                                                : std::uint16_t{0});
                  hi |= sum[l];
                }
                if (hi <= 0xFFFFu) {
                  CCBT_SIMD
                  for (int l = 0; l < B; ++l) {
                    pend.c[l] = static_cast<std::uint16_t>(sum[l]);
                  }
                  pend_m |= m;
                  ++folds;
                  return;
                }
              }
              flush_pend();
              pend_k = k;
              pend.k = k;
              pend_m = m;
              CCBT_SIMD
              for (int l = 0; l < B; ++l) {
                pend.c[l] = ((m >> l) & 1) != 0 ? r2.c[l]
                                                : std::uint16_t{0};
              }
              // Probe path: the slot load is in flight while the
              // burst keeps folding into the register.
              sink.prefetch_combine(k);
            };
            for (std::size_t i = lo; i < end; ++i) {
              const std::uint64_t side = side16[i - lo];
              const auto a0 = static_cast<LaneMask>(side & 0xFF);
              if (a0 == 0) continue;
              if (o.anchor_higher && !rank_cut && (side >> 8) <= wrank) {
                continue;
              }
              const auto& r = rows16[i];
              const auto esig = static_cast<Signature>(r.k & 0xFF);
              const std::uint64_t kbase =
                  (r.k & (std::uint64_t{kPacked28NoVertex} << 36)) |
                  (std::uint64_t{w} << 8);
              if ((a0 & (a0 - 1)) == 0) {
                // One live lane (the common case at batch densities):
                // one signature, one mask — skip the grouping pass.
                const int l = std::countr_zero(static_cast<unsigned>(a0));
                const Signature w_bit = Signature{1}
                                        << ((cw >> (8 * l)) & 0xFF);
                if ((esig & w_bit) != 0) continue;
                const Signature sig = esig | w_bit;
                if (sig <= 0xFF) [[likely]] {
                  if (dedup) {
                    emit_fold(kbase | sig, r, a0);
                  } else if (run.valid()) {
                    sink.run_append_u16(run, kbase | sig, r, a0);
                  } else {
                    emit_probe(kbase | sig, i, a0);
                  }
                } else {
                  flush_pend();
                  TableKey key;
                  key.v[0] = static_cast<VertexId>(r.k >> 36);
                  key.v[1] = w;
                  key.sig = sig;
                  sink.append_masked(key, flat->expand(i), a0,
                                     std::uint64_t{0xFFFF});
                  run = sink.run_u16(w, 0);
                }
                cx.send(v, w, 1);
                continue;
              }
              detail::SigGroups<B> groups;
              for (LaneMask a = a0; a != 0; a &= (a - 1)) {
                const int l = std::countr_zero(static_cast<unsigned>(a));
                const Signature w_bit = Signature{1}
                                        << ((cw >> (8 * l)) & 0xFF);
                if ((esig & w_bit) != 0) continue;
                groups.add(esig | w_bit, l);
              }
              if (groups.n == 0) continue;
              for (int gi = 0; gi < groups.n; ++gi) {
                if (groups.sig[gi] <= 0xFF) [[likely]] {
                  if (dedup) {
                    emit_fold(kbase | groups.sig[gi], r, groups.mask[gi]);
                  } else if (run.valid()) {
                    sink.run_append_u16(run, kbase | groups.sig[gi], r,
                                        groups.mask[gi]);
                  } else {
                    emit_probe(kbase | groups.sig[gi], i, groups.mask[gi]);
                  }
                } else {
                  // Color >= 8: the signature no longer fits the packed
                  // key's 8-bit field.
                  flush_pend();
                  TableKey key;
                  key.v[0] = static_cast<VertexId>(r.k >> 36);
                  key.v[1] = w;
                  key.sig = groups.sig[gi];
                  sink.append_masked(key, flat->expand(i), groups.mask[gi],
                                     std::uint64_t{0xFFFF});
                  run = sink.run_u16(w, 0);
                }
              }
              cx.send(v, w, 1);
            }
            flush_pend();
          }
          flush_tile();
          if (folds != 0) sink.note_frontier_folds(folds);
          return;
        }
        thread_local std::vector<TableEntryT<B>> bscratch;
        const auto bucket = path.group_expanded(1, v, bscratch);
        if (bucket.empty()) return;
        cx.charge(v, std::uint64_t{g.degree(v)} * bucket.size());

        // Live-lane masks, count OR-bounds, and anchor ranks, one pass
        // per bucket; neighbors then reuse them. Neighbors are the
        // outer loop so each neighbor's packed color word and rank are
        // fetched once per bucket, not once per entry.
        thread_local std::vector<LaneMask> alive;
        thread_local std::vector<Count> ehi;
        thread_local std::vector<std::uint32_t> erank;
        alive.clear();
        ehi.clear();
        erank.clear();
        alive.reserve(bucket.size());
        ehi.reserve(bucket.size());
        erank.reserve(bucket.size());
        for (const TableEntryT<B>& e : bucket) {
          alive.push_back(LaneSimdT<B>::nonzero_mask(e.cnt));
          Count h = 0;
          CCBT_SIMD
          for (int l = 0; l < B; ++l) h |= LaneOps<B>::lane(e.cnt, l);
          ehi.push_back(h);
          erank.push_back(cx.order.rank(e.key.v[0]));
        }

        for (VertexId w : g.neighbors(v)) {
          const std::uint64_t cw = cx.chi.colors_word(w);
          const std::uint32_t wrank = cx.order.rank(w);
          // Same partition-point cut as the fast16 path: erank is
          // descending when the bucket is rank-partitioned.
          std::size_t end = bucket.size();
          if (rank_cut) {
            end = static_cast<std::size_t>(
                std::partition_point(
                    erank.begin(), erank.end(),
                    [wrank](std::uint32_t r) { return r > wrank; }) -
                erank.begin());
          }
          for (std::size_t i = 0; i < end; ++i) {
            if (alive[i] == 0) continue;
            const TableEntryT<B>& e = bucket[i];
            if (o.anchor_higher && !rank_cut && erank[i] <= wrank) continue;
            detail::SigGroups<B> groups;
            for (LaneMask a = alive[i]; a != 0; a &= (a - 1)) {
              const int l = std::countr_zero(static_cast<unsigned>(a));
              const Signature w_bit = Signature{1}
                                      << ((cw >> (8 * l)) & 0xFF);
              if ((e.key.sig & w_bit) != 0) continue;
              groups.add(e.key.sig | w_bit, l);
            }
            if (groups.n == 0) continue;
            TableKey key = e.key;
            key.v[1] = w;
            if (o.track_slot >= 0) key.v[o.track_slot] = w;
            for (int gi = 0; gi < groups.n; ++gi) {
              key.sig = groups.sig[gi];
              sink.append_masked(key, e.cnt, groups.mask[gi], ehi[i]);
            }
            cx.send(v, w, 1);
          }
        }
      });
  cx.end_phase();
  if (!cx.opts.lane_compress) {
    return ProjTableT<B>::from_flat(path.arity(), rows.take_wide());
  }
  return ProjTableT<B>::from_packed(path.arity(), std::move(rows));
}

}  // namespace detail

/// Extend every path entry by one data-graph edge out of the frontier.
/// The mutable overload may reseal the path (frontier-grouped traversal
/// at B > 1); results are identical either way.
template <int B>
ProjTableT<B> extend_with_graph(const ExecContext& cx, ProjTableT<B>& path,
                                const ExtendOpts& o) {
  if constexpr (B == 1) {
    return detail::extend_with_graph_scan<B>(cx, path, o);
  } else {
    return detail::extend_with_graph_grouped<B>(cx, path, o);
  }
}

template <int B>
ProjTableT<B> extend_with_graph(const ExecContext& cx,
                                const ProjTableT<B>& path,
                                const ExtendOpts& o) {
  return detail::extend_with_graph_scan<B>(cx, path, o);
}

/// Extend through a child block's binary table (EdgeJoin): path frontier v
/// joins child entries (v, w, sig2). `child` must be sealed kByV0 and
/// already oriented (use TablePool::oriented).
template <int B>
ProjTableT<B> extend_with_child(const ExecContext& cx, ProjTableT<B>& path,
                                const ProjTableT<B>& child,
                                const ExtendOpts& o) {
  {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    path.seal(SortOrder::kByV1, cx.g.num_vertices(), LaneSealHint::kStream);
  }
  cx.note_lanes(path.layout());
  // The sealed path at B > 1 may be narrow: row_at decodes on read
  // (no-op when dense). The stored child is probed once per path row, so
  // a compressed child is expanded once up front instead.
  const detail::ChildProbe<B> probe(child);
  return detail::accumulate_rows<B>(
      cx, path.arity(), path.size(), [&](std::size_t i, auto&& emit) {
        TableEntryT<B> tmp;
        const TableEntryT<B>& e = path.row_at(i, tmp);
        kernel_extend_with_child<B>(cx, e, probe.group(0, e.key.v[1]), o,
                                    emit);
      });
}

/// NodeJoin: multiply in a unary child at key slot `slot` (0 = anchor,
/// 1 = frontier). `child` must be sealed kByV0. `path` may be unsealed;
/// it is consumed row by row (flattened first when its accumulation
/// left it sharded — the one primitive that indexes an unsealed table).
template <int B>
ProjTableT<B> node_join(const ExecContext& cx, ProjTableT<B>& path,
                        const ProjTableT<B>& child, int slot) {
  path.ensure_row_access();
  const detail::ChildProbe<B> probe(child);
  return detail::accumulate_rows<B>(
      cx, path.arity(), path.size(), [&](std::size_t i, auto&& emit) {
        TableEntryT<B> tmp;
        const TableEntryT<B>& e = path.row_at(i, tmp);
        kernel_node_join<B>(cx, e, probe.group(0, e.key.v[slot]), slot,
                            emit);
      });
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
/// engine: join the matching (u, v) subgroups of one slot-0 bucket pair
/// (both ranges sorted kByV0V1) with a two-pointer sweep over the
/// v-sorted subranges, charging the load model per group and calling
/// `emit(key, counts)` for every compatible pair. Keeping the shared and
/// distributed engines on one kernel is what guarantees their exact
/// load-model parity.
template <int B, typename Sink>
void merge_bucket(const ExecContext& cx, std::span<const TableEntryT<B>> pu,
                  std::span<const TableEntryT<B>> mu, const MergeSpec& spec,
                  Sink&& emit) {
  std::size_t pi = 0, mi = 0;
  while (pi < pu.size() && mi < mu.size()) {
    const VertexId pv = pu[pi].key.v[1];
    const VertexId mv = mu[mi].key.v[1];
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
    const VertexId v = pv;
    std::size_t pj = pi, mj = mi;
    while (pj < pu.size() && pu[pj].key.v[1] == v) ++pj;
    while (mj < mu.size() && mu[mj].key.v[1] == v) ++mj;
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
/// kernel row for row.
template <int B, typename WP, typename WM, typename Sink>
void merge_bucket_packed(const ExecContext& cx,
                         std::span<const PackedFlatRowT<B, WP>> pu,
                         std::span<const PackedFlatRowT<B, WM>> mu,
                         const MergeSpec& spec, Sink&& emit) {
  static_assert(B > 1, "packed rows exist only in batched executions");
  const auto v1_of = [](std::uint64_t k) {
    return static_cast<VertexId>((k >> 8) & kPacked28NoVertex);
  };
  std::size_t pi = 0, mi = 0;
  while (pi < pu.size() && mi < mu.size()) {
    const VertexId pv = v1_of(pu[pi].k);
    const VertexId mv = v1_of(mu[mi].k);
    if (pv < mv) {
      ++pi;
      continue;
    }
    if (mv < pv) {
      ++mi;
      continue;
    }
    // Same (u, v) group in both tables (the ranges are slot-0 buckets,
    // sorted by raw packed key = (v1, sig) within the bucket).
    const auto u = static_cast<VertexId>(pu[pi].k >> 36);
    const VertexId v = pv;
    std::size_t pj = pi, mj = mi;
    while (pj < pu.size() && v1_of(pu[pj].k) == v) ++pj;
    while (mj < mu.size() && v1_of(mu[mj].k) == v) ++mj;
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
template <int B>
void merge_halves(const ExecContext& cx, ProjTableT<B>& plus,
                  ProjTableT<B>& minus, const MergeSpec& spec,
                  AccumMapT<B>& sink) {
  using Vec = typename LaneOps<B>::Vec;
  const VertexId n = cx.g.num_vertices();
  // Both halves are consumed by this one merge: stay dense (kStream).
  {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    plus.seal(SortOrder::kByV0V1, n, LaneSealHint::kStream);
    minus.seal(SortOrder::kByV0V1, n, LaneSealHint::kStream);
  }
  cx.note_lanes(plus.layout());
  cx.note_lanes(minus.layout());
  ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));

  if (plus.has_bucket_index() && minus.has_bucket_index()) {
    // Bucket router shared by the parallel and serial sweeps: when both
    // sealed halves kept their narrow flat rows, the bucket pair joins
    // through merge_bucket_packed with no dense expansion (dispatching
    // on each side's payload width); otherwise each slot-0 bucket is
    // decoded through group_expanded into a scratch (a raw subspan when
    // dense, so B = 1 and dense tables pay nothing).
    const FlatRowsT<B>* const pflat = plus.flat_storage();
    const FlatRowsT<B>* const mflat = minus.flat_storage();
    auto merge_u = [&](VertexId u, auto&& add,
                       std::vector<TableEntryT<B>>& pscratch,
                       std::vector<TableEntryT<B>>& mscratch) {
      if constexpr (B > 1) {
        if (pflat != nullptr && mflat != nullptr) {
          const auto [plo, phi] = plus.group_span(0, u);
          if (plo == phi) return;
          const auto [mlo, mhi] = minus.group_span(0, u);
          if (mlo == mhi) return;
          const auto with_plus = [&](auto pspan) {
            if (mflat->mode() == FlatRowsT<B>::Mode::kU16) {
              merge_bucket_packed<B>(
                  cx, pspan,
                  std::span(mflat->rows_u16()).subspan(mlo, mhi - mlo),
                  spec, add);
            } else {
              merge_bucket_packed<B>(
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
      const auto pu = plus.group_expanded(0, u, pscratch);
      if (pu.empty()) return;
      const auto mu = minus.group_expanded(0, u, mscratch);
      if (mu.empty()) return;
      merge_bucket<B>(cx, pu, mu, spec, add);
    };
#ifdef _OPENMP
    if (cx.opts.use_threads && detail::pool_threads() > 1 &&
        plus.size() + minus.size() > 4096) {
      // Slot-0 buckets are independent: each thread merges whole buckets
      // into a private sink; the sinks reduce into `sink` afterwards.
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
        for (VertexId u = 0; u < n; ++u) {
          if (budget_hit.load(std::memory_order_relaxed)) continue;
          thread_local std::vector<TableEntryT<B>> pscratch, mscratch;
          merge_u(
              u, [&](const TableKey& k, const Vec& c) { local.add(k, c); },
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
    for (VertexId u = 0; u < n; ++u) {
      merge_u(
          u, [&](const TableKey& k, const Vec& c) { sink.add(k, c); },
          pscratch, mscratch);
      detail::check_budget(cx, sink.size());
    }
    cx.end_phase();
    return;
  }

  // No bucket index (out-of-domain keys): whole-table two-pointer merge.
  // An index-less seal always leaves the rows dense (the narrow seal
  // falls back), so the raw spans are valid here.
  const auto pe = plus.entries();
  const auto me = minus.entries();
  auto uv_less = [](const TableEntryT<B>& a, const TableEntryT<B>& b) {
    return a.key.v[0] != b.key.v[0] ? a.key.v[0] < b.key.v[0]
                                    : a.key.v[1] < b.key.v[1];
  };
  std::size_t pi = 0, mi = 0;
  while (pi < pe.size() && mi < me.size()) {
    if (uv_less(pe[pi], me[mi])) {
      ++pi;
      continue;
    }
    if (uv_less(me[mi], pe[pi])) {
      ++mi;
      continue;
    }
    const VertexId u = pe[pi].key.v[0];
    std::size_t pj = pi, mj = mi;
    while (pj < pe.size() && pe[pj].key.v[0] == u) ++pj;
    while (mj < me.size() && me[mj].key.v[0] == u) ++mj;
    merge_bucket<B>(cx, pe.subspan(pi, pj - pi), me.subspan(mi, mj - mi),
                    spec,
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
