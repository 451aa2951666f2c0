#pragma once

#include <cstddef>
#include <cstdint>

// Kernel-table core shared by rl::Mlp's batched passes and the per-ISA
// backend TUs (mlp_kernels.cpp at base flags, mlp_kernels_avx2.cpp,
// mlp_kernels_avx512.cpp). Deliberately minimal for the same reason as
// sim/kernels/kernel_table.hpp: the backend TUs are compiled with
// ISA-specific flags and must not instantiate code that could be
// comdat-folded with normally-compiled copies. The tanh, forward and
// backward kernels of every backend come from one generic source
// (mlp_kernels_impl.hpp) instantiated at that backend's register width.
//
// Bit-exactness contract: every kernel computes each output element as the
// SAME sequence of separate multiplies and adds the scalar reference performs
// (rl::Mlp::forward/backward and tanh_fdlibm) — vectorization runs across
// independent elements (batch lanes, outputs, or input indices), never across
// the terms of one accumulation chain, and no backend may contract a
// multiply-add into an FMA: every TU of these kernels, the base-flag ones
// included, is compiled with -ffp-contract=off. Register blocking only
// interleaves independent chains: each element still takes its terms in
// ascending input index (the nonzero-column list on layer 0) in the forward
// pass, in ascending row order for weight gradients, and in ascending output
// index for input gradients. A kernel that takes a nonzero list (layer-0
// columns, output_backward's gradients) visits the listed terms in that
// same order, and skips only terms the reference skips or terms that add a
// signed zero to an accumulator that never holds -0.0f. This is what keeps
// the batched trainer bit-identical to the per-sample one on every backend,
// and all backends bit-identical to each other.
//
// tanh is fdlibm's tanhf (the code glibc's tanhf runs) ported operation for
// operation, so results do not depend on the host libm: tanh_fdlibm is the
// scalar port, and the vector backends evaluate all of its branches lane-wise
// and blend them.

namespace deterrent::rl::kernels {

/// Rows per tile of the batched passes — one AVX-512 register of lanes.
/// Large enough that the weight matrix streams once per ~16 rows instead of
/// once per row, small enough that a transposed input tile plus the
/// accumulator block stay L1-resident.
inline constexpr std::size_t kMlpLanes = 16;

/// Backends for the MLP batch kernels. Mirrors sim::kernels::Isa but kept
/// separate: the RL kernels are float math with their own exactness contract
/// (no FMA), and not every sim backend needs an RL counterpart — hosts
/// without a wide backend (including aarch64) run the Scalar table, i.e. the
/// generic kernels at the base flags' vector width (SSE2 or NEON).
enum class MlpIsa : std::uint8_t { Scalar, Avx2, Avx512 };

struct MlpKernelTable {
  MlpIsa isa;
  const char* name;

  /// y[i] = tanh_fdlibm(x[i]) for i in [0, n); y may alias x.
  void (*tanh)(const float* x, float* y, std::size_t n);

  /// One row tile through one layer (w row-major out×in, xt lane-major
  /// in×kMlpLanes): for every output o and lane n,
  ///   acc[o*kMlpLanes + n] = b[o], then for j ascending in [0, n_cols):
  ///   acc[o*kMlpLanes + n] += w[o*in + c_j] * xt[c_j*kMlpLanes + n],
  /// where c_j = cols[j], or c_j = j over [0, in) when cols is null (dense).
  /// The column list is how the layer-0 forward skips all-zero input columns.
  void (*forward_tile)(const float* w, const float* b, std::size_t in,
                       std::size_t out, const float* xt, const std::uint32_t* cols,
                       std::size_t n_cols, float* acc);

  /// dst[n*out + o] = tile[o*kMlpLanes + n] for n < rows (<= kMlpLanes) and
  /// o < out: a forward_tile result back to row-major rows (data movement
  /// only).
  void (*tile_to_rows)(const float* tile, std::size_t out, std::size_t rows,
                       float* dst);

  /// Weight and bias gradients over `rows` row-major rows (g: rows×out,
  /// x: rows×in): for every o, for n ascending with g[n*out + o] != 0:
  ///   gw[o*in + i] += g[n*out + o] * x[n*in + i]  for every i,
  ///   gb[o] += g[n*out + o].
  void (*grad_weights)(const float* g, const float* x, std::size_t rows,
                       std::size_t in, std::size_t out, float* gw, float* gb);

  /// One row's weight and bias gradients against a transposed
  /// (column-slot-major) weight gradient: for each j in [0, nnz) and every
  /// o in [0, out),
  ///   gwt[slots[j]*out + o] += xv[j] * g[o],   then gb[o] += g[o];
  /// slots must be distinct. A g[o] == 0 term adds a signed zero, which
  /// leaves an accumulator that never holds -0.0f unchanged (see
  /// Mlp::backward_batch), so no per-output skip is needed.
  void (*grad_weights_cols)(const float* g, std::size_t out, const float* xv,
                            const std::uint32_t* slots, std::size_t nnz, float* gwt,
                            float* gb);

  /// Input gradient through the previous layer's tanh, per row n and input i:
  ///   dx[n*in + i] = (+0 + Σ_{o ascending, g[n*out+o] != 0} g[n*out+o] * w[o*in+i])
  ///                  * (1 - post[n*in+i] * post[n*in+i]).
  void (*grad_inputs)(const float* g, const float* w, std::size_t rows,
                      std::size_t in, std::size_t out, const float* post, float* dx);

  /// The output layer's whole backward in one row-outer pass over sparse
  /// output gradients. Row n's nonzero gradients are g_val[j] at outputs
  /// g_idx[j] for j in [g_off[n], g_off[n+1]), outputs ascending; x is the
  /// previous layer's tanh output (rows×in). For n ascending and each such
  /// j ascending, with o = g_idx[j] and g = g_val[j]:
  ///   gw[o*in + i] += g * x[n*in + i]  for every i,   gb[o] += g,
  /// and dx[n*in + i] = (+0 + Σ_j g * w[o*in + i]) * (1 - x[n*in+i]²).
  /// Per element these are exactly grad_weights' terms (rows ascending) and
  /// grad_inputs' terms (outputs ascending) when the lists hold every
  /// nonzero of a dense g; the masked zeros are simply never visited. The
  /// dense kernels stay for hidden layers: their gradients are dense, and
  /// the row tiles keep gw in registers where this pass loads and stores it
  /// once per row (1.3-1.7x slower on a dense 64 -> 64 layer).
  void (*output_backward)(const std::uint32_t* g_off, const std::uint32_t* g_idx,
                          const float* g_val, const float* x, const float* w,
                          std::size_t rows, std::size_t in, float* gw, float* gb,
                          float* dx);

  /// Per-step constants of the Adam update, precomputed once per step() call.
  struct AdamArgs {
    float scale;    ///< gradient clip scale (1 when clipping is off/inactive)
    float beta1;
    float beta2;
    float lr;
    float eps;
    double bias1;   ///< 1 - beta1^t
    double bias2;   ///< 1 - beta2^t
  };

  /// One Adam update over n independent elements, replicating exactly the
  /// scalar sequence per element (float moment updates, double bias
  /// correction / sqrt / divisions, final round to float). Every operation is
  /// elementwise and correctly rounded (IEEE div and sqrt included), so wide
  /// backends are bit-identical to the scalar loop.
  void (*adam_step)(float* values, float* m, float* v, const float* grads,
                    std::size_t n, const AdamArgs& args);
};

/// fdlibm's tanhf, ported operation for operation (mlp_tanh.cpp): the scalar
/// reference of every backend's tanh kernel, and its tail handler.
float tanh_fdlibm(float x);

/// Backend factories; a factory returns nullptr when its TU was compiled
/// without the required flags. Defined in mlp_kernels.cpp (scalar) and the
/// per-ISA TUs.
const MlpKernelTable* mlp_scalar_table();
const MlpKernelTable* mlp_avx2_table();
const MlpKernelTable* mlp_avx512_table();

}  // namespace deterrent::rl::kernels
