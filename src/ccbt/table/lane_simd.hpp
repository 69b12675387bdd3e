#pragma once
// Runtime-dispatched lane kernels for the masked multiply-add hot path.
//
// LaneOps' B-wide loops are `omp simd` hinted, which gets them
// vectorized *if* the build's baseline ISA has usable integer SIMD — a
// portable default that leaves AVX2's 4x64-bit lanes on the table. This
// shim adds explicit AVX2 kernels for the mask-parameterized ops the
// join kernels spend their time in (mul_masked / masked / add /
// is_zero), selected once per process:
//
//   * compiled with per-function `target("avx2")` attributes, so the
//     build itself stays baseline-ISA portable;
//   * taken only when __builtin_cpu_supports("avx2") says the CPU has
//     them AND the CCBT_FORCE_SCALAR_LANES environment variable is
//     unset/0 (the sanitizer jobs force the scalar path so both sides
//     stay exercised);
//   * fall back to LaneOps (scalar / omp simd) everywhere else — B = 1
//     and B = 2 always use it, as does any non-x86 or non-GNU build.
//
// AVX2 has no 64-bit low multiply (that is AVX-512DQ), so mul_masked
// assembles it from three 32x32 partial products; the mask expands to a
// per-lane all-ones/zero vector via variable shifts. The AVX2 results
// are bit-identical to LaneOps' (same wrapping u64 arithmetic), which
// the lane-compress property tests assert.

#include <cstdint>
#include <cstdlib>

#include "ccbt/table/table_key.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
#define CCBT_LANE_SIMD_X86 1
#include <immintrin.h>
#else
#define CCBT_LANE_SIMD_X86 0
#endif

namespace ccbt {

/// Whether the AVX2 lane kernels were compiled in at all (the CPU check
/// is separate — see lane_simd_avx2_active).
inline constexpr bool lane_simd_avx2_compiled() {
  return CCBT_LANE_SIMD_X86 != 0;
}

/// Whether this CPU supports the AVX2 kernels (ignores the env override;
/// the parity tests use it to decide if both paths are comparable).
inline bool lane_simd_avx2_supported() {
#if CCBT_LANE_SIMD_X86
  return __builtin_cpu_supports("avx2") > 0;
#else
  return false;
#endif
}

/// Whether dispatch takes the AVX2 path: compiled in, supported, and not
/// disabled via CCBT_FORCE_SCALAR_LANES=1. Cached after the first call.
inline bool lane_simd_avx2_active() {
#if CCBT_LANE_SIMD_X86
  static const bool active = [] {
    const char* env = std::getenv("CCBT_FORCE_SCALAR_LANES");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') return false;
    return lane_simd_avx2_supported();
  }();
  return active;
#else
  return false;
#endif
}

namespace detail_simd {

#if CCBT_LANE_SIMD_X86

// The __m256i values never cross into un-attributed code: every function
// below takes and returns u64 pointers, so the baseline-ISA callers pass
// plain arrays and the AVX2 ABI stays confined to these bodies (GCC and
// Clang keep the calls outlined across mismatched target attributes).

/// 64-bit low product per lane from 32x32 partials:
/// lo(a)lo(b) + ((lo(a)hi(b) + hi(a)lo(b)) << 32).
__attribute__((target("avx2"))) inline __m256i mullo64(__m256i a,
                                                       __m256i b) {
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                          _mm256_slli_epi64(cross, 32));
}

/// All-ones in lane l when bit l of m is set, zero elsewhere.
__attribute__((target("avx2"))) inline __m256i mask4(unsigned m) {
  const __m256i bits = _mm256_srlv_epi64(_mm256_set1_epi64x(m),
                                         _mm256_set_epi64x(3, 2, 1, 0));
  const __m256i one = _mm256_set1_epi64x(1);
  return _mm256_cmpeq_epi64(_mm256_and_si256(bits, one), one);
}

/// out[l] = a[l] * b[l] for lanes of m, 0 elsewhere; blocks of 4 lanes.
__attribute__((target("avx2"))) inline void mul_masked_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
    unsigned m, int blocks) {
  for (int q = 0; q < blocks; ++q, a += 4, b += 4, out += 4, m >>= 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_and_si256(mullo64(va, vb), mask4(m)));
  }
}

/// out[l] = a[l] for lanes of m, 0 elsewhere.
__attribute__((target("avx2"))) inline void masked_avx2(
    const std::uint64_t* a, std::uint64_t* out, unsigned m, int blocks) {
  for (int q = 0; q < blocks; ++q, a += 4, out += 4, m >>= 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_and_si256(va, mask4(m)));
  }
}

/// d[l] += s[l].
__attribute__((target("avx2"))) inline void add_avx2(std::uint64_t* d,
                                                     const std::uint64_t* s,
                                                     int blocks) {
  for (int q = 0; q < blocks; ++q, d += 4, s += 4) {
    const __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d));
    const __m256i vs = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d),
                        _mm256_add_epi64(vd, vs));
  }
}

/// Every lane zero?
__attribute__((target("avx2"))) inline bool is_zero_avx2(
    const std::uint64_t* v, int blocks) {
  __m256i acc = _mm256_setzero_si256();
  for (int q = 0; q < blocks; ++q, v += 4) {
    acc = _mm256_or_si256(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v)));
  }
  return _mm256_testz_si256(acc, acc) != 0;
}

/// Bit l set when lane l is nonzero.
__attribute__((target("avx2"))) inline unsigned nonzero_mask_avx2(
    const std::uint64_t* v, int blocks) {
  const __m256i zero = _mm256_setzero_si256();
  unsigned m = 0;
  for (int q = 0; q < blocks; ++q, v += 4) {
    const __m256i vv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
    const int z = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(vv, zero)));
    m |= (~static_cast<unsigned>(z) & 0xFu) << (4 * q);
  }
  return m;
}

#endif  // CCBT_LANE_SIMD_X86

}  // namespace detail_simd

/// Drop-in front end for the LaneOps calls on the join hot path: AVX2
/// when active and B >= 4, LaneOps otherwise. Results are bit-identical
/// either way.
template <int B>
struct LaneSimdT {
  using Vec = typename LaneOps<B>::Vec;

  static Vec mul_masked(const Vec& a, const Vec& b, LaneMask m) {
#if CCBT_LANE_SIMD_X86
    if constexpr (B >= 4) {
      if (lane_simd_avx2_active()) {
        Vec out;
        detail_simd::mul_masked_avx2(a.data(), b.data(), out.data(), m,
                                     B / 4);
        return out;
      }
    }
#endif
    return LaneOps<B>::mul_masked(a, b, m);
  }

  static Vec masked(const Vec& a, LaneMask m) {
#if CCBT_LANE_SIMD_X86
    if constexpr (B >= 4) {
      if (lane_simd_avx2_active()) {
        Vec out;
        detail_simd::masked_avx2(a.data(), out.data(), m, B / 4);
        return out;
      }
    }
#endif
    return LaneOps<B>::masked(a, m);
  }

  static void add(Vec& d, const Vec& s) {
#if CCBT_LANE_SIMD_X86
    if constexpr (B >= 4) {
      if (lane_simd_avx2_active()) {
        detail_simd::add_avx2(d.data(), s.data(), B / 4);
        return;
      }
    }
#endif
    LaneOps<B>::add(d, s);
  }

  static bool is_zero(const Vec& v) {
#if CCBT_LANE_SIMD_X86
    if constexpr (B >= 4) {
      if (lane_simd_avx2_active()) {
        return detail_simd::is_zero_avx2(v.data(), B / 4);
      }
    }
#endif
    return LaneOps<B>::is_zero(v);
  }

  /// Occupancy mask: bit l set when lane l is nonzero. The join kernels
  /// iterate the set bits (ctz) instead of all B lanes — at the sparse
  /// densities batching produces, that is the difference between ~1 and
  /// B iterations per row.
  static LaneMask nonzero_mask(const Vec& v) {
#if CCBT_LANE_SIMD_X86
    if constexpr (B >= 4) {
      if (lane_simd_avx2_active()) {
        return static_cast<LaneMask>(
            detail_simd::nonzero_mask_avx2(v.data(), B / 4));
      }
    }
#endif
    LaneMask m = 0;
    for (int l = 0; l < B; ++l) {
      m |= static_cast<LaneMask>(LaneOps<B>::lane(v, l) != 0) << l;
    }
    return m;
  }
};

/// B = 1 stays on the scalar ops verbatim.
template <>
struct LaneSimdT<1> : LaneOps<1> {
  static LaneMask nonzero_mask(Count v) { return v != 0 ? 1u : 0u; }
};

}  // namespace ccbt
