// AVX-512 MLP batch kernels: the generic kernels of mlp_kernels_impl.hpp on
// 16-float registers (one zmm is exactly one batch tile), plus a hand-written
// Adam step. Compiled with -mavx512f -ffp-contract=off (see CMakeLists.txt):
// AVX-512F includes FMA encodings, so contraction MUST be off — every
// multiply and add rounds separately, bit-identical to the scalar table.
// When the flag is unavailable the TU degrades to a nullptr factory.
#include "rl/mlp_kernel_table.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "rl/mlp_kernels_impl.hpp"

namespace deterrent::rl::kernels {
namespace {

using Wide = Lanes<16>;

// GCC 12 flags the undefined merge operand inside the masked
// _mm512_cvtps_pd / _mm512_sqrt_pd header implementations (PR105593);
// the operand is dead under the all-ones mask. Scoped suppression.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// lr·(m/bias1) / (sqrt(v/bias2) + eps) for one 8-double half of a zmm of
// moments. div, sqrt, and the float↔double conversions are all correctly
// rounded, so the half matches the scalar element sequence bit for bit.
__m256 adam_update_half(__m256 m_ps, __m256 v_ps, __m512d bias1, __m512d bias2,
                        __m512d lr, __m512d eps) {
  const __m512d m_hat = _mm512_div_pd(_mm512_cvtps_pd(m_ps), bias1);
  const __m512d v_hat = _mm512_div_pd(_mm512_cvtps_pd(v_ps), bias2);
  const __m512d denom = _mm512_add_pd(_mm512_sqrt_pd(v_hat), eps);
  return _mm512_cvtpd_ps(_mm512_div_pd(_mm512_mul_pd(lr, m_hat), denom));
}

void adam_step_avx512(float* values, float* m, float* v, const float* grads,
                      std::size_t n, const MlpKernelTable::AdamArgs& a) {
  // 8 floats per iteration: the float moment updates run 256-bit, the
  // expensive double part (div, sqrt, div) runs full 512-bit width in
  // adam_update_half. Widening the float half to 16 lanes would need
  // 512↔256 lane shuffles that cost more than the two cheap mul/adds save.
  const __m256 scale = _mm256_set1_ps(a.scale);
  const __m256 b1 = _mm256_set1_ps(a.beta1);
  const __m256 omb1 = _mm256_set1_ps(1.0f - a.beta1);
  const __m256 b2 = _mm256_set1_ps(a.beta2);
  const __m256 omb2 = _mm256_set1_ps(1.0f - a.beta2);
  const __m512d bias1 = _mm512_set1_pd(a.bias1);
  const __m512d bias2 = _mm512_set1_pd(a.bias2);
  const __m512d lr = _mm512_set1_pd(static_cast<double>(a.lr));
  const __m512d eps = _mm512_set1_pd(static_cast<double>(a.eps));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_mul_ps(_mm256_loadu_ps(grads + i), scale);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(omb1, g));
    const __m256 vv = _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                                    _mm256_mul_ps(_mm256_mul_ps(omb2, g), g));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 upd = adam_update_half(mv, vv, bias1, bias2, lr, eps);
    _mm256_storeu_ps(values + i,
                     _mm256_sub_ps(_mm256_loadu_ps(values + i), upd));
  }
  for (; i < n; ++i) {
    const float g = grads[i] * a.scale;
    m[i] = a.beta1 * m[i] + (1.0f - a.beta1) * g;
    v[i] = a.beta2 * v[i] + (1.0f - a.beta2) * g * g;
    const double m_hat = m[i] / a.bias1;
    const double v_hat = v[i] / a.bias2;
    values[i] -=
        static_cast<float>(a.lr * m_hat / (__builtin_sqrt(v_hat) + a.eps));
  }
}

#pragma GCC diagnostic pop

// constinit: the factory runs on every host during backend detection, so
// this -mavx512f TU must emit no initialization code.
constinit const MlpKernelTable kTable{MlpIsa::Avx512,
                                      "avx512",
                                      &tanh_kernel<Wide>,
                                      &forward_tile_kernel<Wide>,
                                      &tile_to_rows_kernel<Wide>,
                                      &grad_weights_kernel<Wide>,
                                      &grad_weights_cols_kernel<Wide>,
                                      &grad_inputs_kernel<Wide>,
                                      &adam_step_avx512};

}  // namespace

const MlpKernelTable* mlp_avx512_table() { return &kTable; }

}  // namespace deterrent::rl::kernels

#else  // !defined(__AVX512F__)

namespace deterrent::rl::kernels {
const MlpKernelTable* mlp_avx512_table() { return nullptr; }
}  // namespace deterrent::rl::kernels

#endif
