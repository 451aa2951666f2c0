#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "rl/mlp_kernel_table.hpp"

// Generic MLP kernels over GCC/Clang vector extensions, included ONLY by the
// backend TUs (mlp_kernels.cpp at base flags, mlp_kernels_avx2.cpp,
// mlp_kernels_avx512.cpp). One source, instantiated per TU at that TU's
// register width: the compiler lowers Lanes<L> to xmm/NEON, ymm, or zmm.
// Everything sits in an anonymous namespace for the reason given in
// sim/kernels/kernels_impl.hpp: code compiled with ISA flags must not be
// merged across TUs, so it is reached only through the kernel tables.
//
// Exactness: each output element is computed by the same sequence of
// separately rounded IEEE operations as the scalar reference (rl::Mlp's
// per-sample loops and tanh_fdlibm). Vectors run across independent elements
// only, and the including TUs pin -ffp-contract=off so no multiply-add fuses.

namespace deterrent::rl::kernels {
namespace {

/// Vector types of L float lanes and their same-width integer views. Spelled
/// out per width: GCC drops a vector_size attribute whose size depends on a
/// template parameter. Casts between these types are bit reinterpretations.
template <std::size_t L>
struct VectorTypes;
template <>
struct VectorTypes<4> {
  typedef float F __attribute__((vector_size(16)));
  typedef std::int32_t I __attribute__((vector_size(16)));
  typedef std::uint32_t U __attribute__((vector_size(16)));
};
template <>
struct VectorTypes<8> {
  typedef float F __attribute__((vector_size(32)));
  typedef std::int32_t I __attribute__((vector_size(32)));
  typedef std::uint32_t U __attribute__((vector_size(32)));
};
template <>
struct VectorTypes<16> {
  typedef float F __attribute__((vector_size(64)));
  typedef std::int32_t I __attribute__((vector_size(64)));
  typedef std::uint32_t U __attribute__((vector_size(64)));
};

template <std::size_t L>
struct Lanes {
  static constexpr std::size_t kWidth = L;
  using F = typename VectorTypes<L>::F;
  using I = typename VectorTypes<L>::I;
  using U = typename VectorTypes<L>::U;

  static F load(const float* p) {
    F v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(float* p, F v) { std::memcpy(p, &v, sizeof v); }
  static F splat(float s) {
    F v{};
    for (std::size_t k = 0; k < L; ++k) v[k] = s;
    return v;
  }
  /// Lane-wise m ? a : b for an all-ones/all-zeros comparison mask m.
  static F select(I m, F a, F b) { return (F)(((U)a & (U)m) | ((U)b & ~(U)m)); }
  static I select(I m, I a, I b) { return (a & m) | (b & ~m); }

  /// In-place transpose of an L×L block held as L row vectors: log2(L)
  /// rounds of pairing row i with row i + L/2 and interleaving their low
  /// and high halves (a perfect shuffle; log2(L) of them transpose).
  static void transpose(F (&v)[L]) {
    for (std::size_t round = 1; round < L; round *= 2) {
      F t[L];
      for (std::size_t i = 0; i < L / 2; ++i) {
        t[2 * i] = interleave<0>(v[i], v[i + L / 2], std::make_index_sequence<L>{});
        t[2 * i + 1] =
            interleave<L / 2>(v[i], v[i + L / 2], std::make_index_sequence<L>{});
      }
      for (std::size_t i = 0; i < L; ++i) v[i] = t[i];
    }
  }

 private:
  /// a[h], b[h], a[h+1], b[h+1], … for L lanes.
  template <std::size_t kHalf, std::size_t... K>
  static F interleave(F a, F b, std::index_sequence<K...>) {
    return __builtin_shufflevector(a, b,
                                   (K % 2 == 0 ? kHalf + K / 2 : L + kHalf + K / 2)...);
  }
};

// ------------------------------------------------------------------ tanh --

/// tanh_fdlibm (mlp_tanh.cpp) on L lanes: every branch of fdlibm's tanhf and
/// of the expm1f paths it reaches is evaluated and the lanes blended, each
/// with the original operation sequence. Lanes outside the main range
/// 2^-55 <= |x| < 22 feed a placeholder of 1 to the expm1 part, so no lane
/// ever converts an out-of-range float to int.
template <class V>
typename V::F tanh_lanes(typename V::F x) {
  using F = typename V::F;
  using I = typename V::I;
  using U = typename V::U;
  constexpr float kLn2Hi = 6.9313812256e-01f;
  constexpr float kLn2Lo = 9.0580006145e-06f;
  constexpr float kInvLn2 = 1.4426950216e+00f;
  constexpr float kQ1 = -3.3333335072e-02f;
  constexpr float kQ2 = 1.5873016091e-03f;
  constexpr float kQ3 = -7.9365076090e-05f;
  constexpr float kQ4 = 4.0082177293e-06f;
  constexpr float kQ5 = -2.0109921195e-07f;

  const I jx = (I)x;
  const I ix = jx & 0x7fffffff;
  const I negative = jx < 0;
  const I main = (ix >= 0x24000000) & (ix < 0x41b00000);
  const I big = ix >= 0x3f800000;  // |x| >= 1
  const I nonfinite = ix >= 0x7f800000;

  // expm1(arg) with arg = 2|x| for |x| >= 1, else -2|x|. The argument lies
  // in [2, 44) or (-2, -2^-54], so of expm1f's reductions only these occur:
  // |arg| <= ln2/2 (k = 0, or |arg| < 2^-25: arg itself), a negative arg
  // below 1.5 ln2 (k = -1), and k = trunc(arg/ln2 ± 1/2) in [-3, 64].
  const F ax = V::select(main, (F)ix, V::splat(1.0f));
  const F arg = V::select(big, 2.0f * ax, -2.0f * ax);
  const I hx = (I)arg & 0x7fffffff;
  const I k_one = (hx > 0x3eb17218) & (hx < 0x3f851592);
  const I k_zero = hx <= 0x3eb17218;
  const I arg_tiny = hx < 0x33000000;

  const F kf = kInvLn2 * arg + V::select(big, V::splat(0.5f), V::splat(-0.5f));
  I k = __builtin_convertvector(kf, I);
  const F tk = __builtin_convertvector(k, F);
  F hi = arg - tk * kLn2Hi;
  F lo = tk * kLn2Lo;
  hi = V::select(k_one, arg + kLn2Hi, hi);
  lo = V::select(k_one, V::splat(-kLn2Lo), lo);
  k = V::select(k_one, I{} - 1, k);
  hi = V::select(k_zero, arg, hi);  // hi - 0 = arg, so xr = arg exactly
  lo = V::select(k_zero, F{}, lo);
  k = V::select(k_zero, I{}, k);

  const F xr = hi - lo;
  const F c = (hi - xr) - lo;
  const F hfx = 0.5f * xr;
  const F hxs = xr * hfx;
  const F r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F t3 = 3.0f - r1 * hfx;
  F e = hxs * ((r1 - t3) / (6.0f - xr * t3));
  const F res_k0 = xr - (xr * e - hxs);
  e = (xr * (e - c) - c);
  e -= hxs;
  const F res_km1 = 0.5f * (xr - e) - 0.5f;
  const U exp_k = (U)k << 23;
  const F one_minus = 1.0f - (e - xr);
  const F res_far = (F)((U)one_minus + exp_k) - 1.0f;
  const F two_neg_k = (F)((U)(0x7f - k) << 23);  // 2^-k
  // 1 - 2^-k is exact for k <= 24, so this is fdlibm's bit-built constant.
  const F mid_y = (1.0f - two_neg_k) - (e - xr);
  const F res_mid = (F)((U)mid_y + exp_k);
  const F high_y = (xr - (e + two_neg_k)) + 1.0f;

  F em1 = (F)((U)high_y + exp_k);  // 23 <= k <= 56
  em1 = V::select((k >= 2) & (k < 23), res_mid, em1);
  em1 = V::select((k <= -2) | (k > 56), res_far, em1);
  em1 = V::select(k == -1, res_km1, em1);
  em1 = V::select(k == 0, res_k0, em1);
  em1 = V::select(arg_tiny, arg, em1);

  // tanh from expm1: 1 - 2/(t+2) for |x| >= 1, else -t/(t+2); the non-finite
  // branch's 1/x shares the one division.
  const F num = V::select(nonfinite, V::splat(1.0f), V::select(big, V::splat(2.0f), -em1));
  const F den = V::select(nonfinite, x, em1 + 2.0f);
  const F q = num / den;
  const F z = V::select(big, 1.0f - q, q);
  const F sign_one = V::select(negative, V::splat(-1.0f), V::splat(1.0f));
  F r = V::select(negative, -z, z);
  r = V::select(ix < 0x24000000, x * (1.0f + x), r);  // tiny and ±0
  r = V::select(ix >= 0x41b00000, sign_one, r);         // |x| >= 22: ±(1 - tiny)
  r = V::select(nonfinite, q + sign_one, r);             // 1/x ± 1
  return r;
}

template <class V>
void tanh_kernel(const float* x, float* y, std::size_t n) {
  constexpr std::size_t L = V::kWidth;
  std::size_t i = 0;
  for (; i + L <= n; i += L) V::store(y + i, tanh_lanes<V>(V::load(x + i)));
  for (; i < n; ++i) y[i] = tanh_fdlibm(x[i]);
}

// --------------------------------------------------------------- forward --

/// B consecutive outputs of one row tile. Each output owns R = kMlpLanes / L
/// accumulator registers, so B·R independent add chains share every load of
/// the input tile; per element the terms still arrive in ascending index.
template <class V, std::size_t B, bool kSparse>
void forward_block(const float* w, std::size_t in, const float* b, const float* xt,
                   const std::uint32_t* cols, std::size_t n_terms, float* acc) {
  using F = typename V::F;
  constexpr std::size_t L = V::kWidth;
  constexpr std::size_t R = kMlpLanes / L;
  F a[B][R];
  for (std::size_t bb = 0; bb < B; ++bb)
    for (std::size_t r = 0; r < R; ++r) a[bb][r] = V::splat(b[bb]);
  for (std::size_t j = 0; j < n_terms; ++j) {
    const std::size_t i = kSparse ? cols[j] : j;
    F x[R];
    for (std::size_t r = 0; r < R; ++r) x[r] = V::load(xt + i * kMlpLanes + r * L);
    for (std::size_t bb = 0; bb < B; ++bb) {
      const float wv = w[bb * in + i];
      for (std::size_t r = 0; r < R; ++r) a[bb][r] += wv * x[r];
    }
  }
  for (std::size_t bb = 0; bb < B; ++bb)
    for (std::size_t r = 0; r < R; ++r) V::store(acc + bb * kMlpLanes + r * L, a[bb][r]);
}

template <class V, bool kSparse>
void forward_outputs(const float* w, const float* b, std::size_t in, std::size_t out,
                     const float* xt, const std::uint32_t* cols, std::size_t n_terms,
                     float* acc) {
  // Eight chains in flight: enough to cover add latency at two adds/cycle.
  constexpr std::size_t B = 8 * V::kWidth / kMlpLanes;
  std::size_t o = 0;
  for (; o + B <= out; o += B)
    forward_block<V, B, kSparse>(w + o * in, in, b + o, xt, cols, n_terms,
                                 acc + o * kMlpLanes);
  for (; o < out; ++o)
    forward_block<V, 1, kSparse>(w + o * in, in, b + o, xt, cols, n_terms,
                                 acc + o * kMlpLanes);
}

template <class V>
void forward_tile_kernel(const float* w, const float* b, std::size_t in, std::size_t out,
                         const float* xt, const std::uint32_t* cols, std::size_t n_cols,
                         float* acc) {
  if (cols != nullptr)
    forward_outputs<V, true>(w, b, in, out, xt, cols, n_cols, acc);
  else
    forward_outputs<V, false>(w, b, in, out, xt, nullptr, in, acc);
}

/// dst[n*out + o] = tile[o*kMlpLanes + n] for n < rows, o < out: a
/// lane-major layer-output tile back to row-major rows, L×L blocks at a time
/// through registers. Pure data movement.
template <class V>
void tile_to_rows_kernel(const float* tile, std::size_t out, std::size_t rows, float* dst) {
  using F = typename V::F;
  constexpr std::size_t L = V::kWidth;
  std::size_t o0 = 0;
  for (; o0 + L <= out; o0 += L) {
    for (std::size_t n0 = 0; n0 < rows; n0 += L) {
      F v[L];
      for (std::size_t j = 0; j < L; ++j) v[j] = V::load(tile + (o0 + j) * kMlpLanes + n0);
      V::transpose(v);
      for (std::size_t k = 0; k < L && n0 + k < rows; ++k)
        V::store(dst + (n0 + k) * out + o0, v[k]);
    }
  }
  for (; o0 < out; ++o0)
    for (std::size_t n = 0; n < rows; ++n) dst[n * out + o0] = tile[o0 * kMlpLanes + n];
}

// -------------------------------------------------------------- backward --

/// gw[o·in + i] over C registers of i starting at i0, held in registers
/// across all rows (ascending; g == 0 rows skipped like Mlp::backward).
template <class V, std::size_t C>
void grad_weights_chunk(const float* g, const float* x, std::size_t rows, std::size_t in,
                        std::size_t out, std::size_t o, std::size_t i0, float* gw) {
  using F = typename V::F;
  constexpr std::size_t L = V::kWidth;
  float* dst = gw + o * in + i0;
  F a[C];
  for (std::size_t c = 0; c < C; ++c) a[c] = V::load(dst + c * L);
  for (std::size_t n = 0; n < rows; ++n) {
    const float gv = g[n * out + o];
    if (gv == 0.0f) continue;
    const float* xr = x + n * in + i0;
    for (std::size_t c = 0; c < C; ++c) a[c] += gv * V::load(xr + c * L);
  }
  for (std::size_t c = 0; c < C; ++c) V::store(dst + c * L, a[c]);
}

/// Covers [i0, in) with the widest register blocks that fit (C, C/2, …, 1),
/// then the scalar tail — one helper so every block size shares the order.
template <class V, std::size_t C>
void grad_weights_span(const float* g, const float* x, std::size_t rows, std::size_t in,
                       std::size_t out, std::size_t o, std::size_t i0, float* gw) {
  for (; i0 + C * V::kWidth <= in; i0 += C * V::kWidth)
    grad_weights_chunk<V, C>(g, x, rows, in, out, o, i0, gw);
  if constexpr (C > 1) {
    grad_weights_span<V, C / 2>(g, x, rows, in, out, o, i0, gw);
  } else {
    for (std::size_t i = i0; i < in; ++i) {
      float a = gw[o * in + i];
      for (std::size_t n = 0; n < rows; ++n) {
        const float gv = g[n * out + o];
        if (gv != 0.0f) a += gv * x[n * in + i];
      }
      gw[o * in + i] = a;
    }
  }
}

template <class V>
void grad_weights_kernel(const float* g, const float* x, std::size_t rows, std::size_t in,
                         std::size_t out, float* gw, float* gb) {
  for (std::size_t o = 0; o < out; ++o) {
    grad_weights_span<V, 8>(g, x, rows, in, out, o, 0, gw);
    float b = gb[o];
    for (std::size_t n = 0; n < rows; ++n) {
      const float gv = g[n * out + o];
      if (gv != 0.0f) b += gv;
    }
    gb[o] = b;
  }
}

/// One row of a transposed weight gradient: gwt[slots[j]·out + o] +=
/// xv[j]·g[o] for every nonzero j, vectorized across outputs. Slots within
/// one call are distinct, so each element takes exactly one term per row.
template <class V, std::size_t C>
void grad_cols_span(const float* g, std::size_t out, const float* xv,
                    const std::uint32_t* slots, std::size_t nnz, std::size_t o0,
                    float* gwt) {
  using F = typename V::F;
  constexpr std::size_t L = V::kWidth;
  for (; o0 + C * L <= out; o0 += C * L) {
    F gr[C];
    for (std::size_t c = 0; c < C; ++c) gr[c] = V::load(g + o0 + c * L);
    for (std::size_t j = 0; j < nnz; ++j) {
      float* dst = gwt + static_cast<std::size_t>(slots[j]) * out + o0;
      const float xj = xv[j];
      for (std::size_t c = 0; c < C; ++c)
        V::store(dst + c * L, V::load(dst + c * L) + xj * gr[c]);
    }
  }
  if constexpr (C > 1) {
    grad_cols_span<V, C / 2>(g, out, xv, slots, nnz, o0, gwt);
  } else {
    for (std::size_t j = 0; j < nnz; ++j) {
      float* dst = gwt + static_cast<std::size_t>(slots[j]) * out;
      for (std::size_t o = o0; o < out; ++o) dst[o] += xv[j] * g[o];
    }
  }
}

template <class V>
void grad_weights_cols_kernel(const float* g, std::size_t out, const float* xv,
                              const std::uint32_t* slots, std::size_t nnz, float* gwt,
                              float* gb) {
  constexpr std::size_t L = V::kWidth;
  grad_cols_span<V, 8>(g, out, xv, slots, nnz, 0, gwt);
  std::size_t o = 0;
  for (; o + L <= out; o += L) V::store(gb + o, V::load(gb + o) + V::load(g + o));
  for (; o < out; ++o) gb[o] += g[o];
}

/// dx[i] = (Σ_{o ascending, g[o] != 0} g[o]·w[o·in + i]) · (1 − post[i]²) over
/// C registers of i: the accumulator starts at +0 and takes the terms in
/// Mlp::backward's order, then the tanh derivative is applied.
template <class V, std::size_t C>
void grad_inputs_span(const float* g, const float* w, std::size_t in, std::size_t out,
                      const float* post, std::size_t i0, float* dx) {
  using F = typename V::F;
  constexpr std::size_t L = V::kWidth;
  for (; i0 + C * L <= in; i0 += C * L) {
    F a[C];
    for (std::size_t c = 0; c < C; ++c) a[c] = F{};
    for (std::size_t o = 0; o < out; ++o) {
      const float gv = g[o];
      if (gv == 0.0f) continue;
      const float* wr = w + o * in + i0;
      for (std::size_t c = 0; c < C; ++c) a[c] += gv * V::load(wr + c * L);
    }
    for (std::size_t c = 0; c < C; ++c) {
      const F p = V::load(post + i0 + c * L);
      V::store(dx + i0 + c * L, a[c] * (1.0f - p * p));
    }
  }
  if constexpr (C > 1) {
    grad_inputs_span<V, C / 2>(g, w, in, out, post, i0, dx);
  } else {
    for (std::size_t i = i0; i < in; ++i) {
      float a = 0.0f;
      for (std::size_t o = 0; o < out; ++o) {
        const float gv = g[o];
        if (gv != 0.0f) a += gv * w[o * in + i];
      }
      dx[i] = a * (1.0f - post[i] * post[i]);
    }
  }
}

template <class V>
void grad_inputs_kernel(const float* g, const float* w, std::size_t rows, std::size_t in,
                        std::size_t out, const float* post, float* dx) {
  for (std::size_t n = 0; n < rows; ++n)
    grad_inputs_span<V, 8>(g + n * out, w, in, out, post + n * in, 0, dx + n * in);
}

}  // namespace
}  // namespace deterrent::rl::kernels
