// AVX2 MLP batch kernels: the generic kernels of mlp_kernels_impl.hpp on
// 8-float registers (two per 16-lane tile), plus a hand-written Adam step.
// Compiled with -mavx2 -ffp-contract=off (see CMakeLists.txt) — AVX2 alone
// enables no FMA instructions and contraction is off for the scalar tails, so
// every multiply and add rounds separately, exactly like the scalar table.
// When the flag is unavailable the TU degrades to a nullptr factory.
#include "rl/mlp_kernel_table.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "rl/mlp_kernels_impl.hpp"

namespace deterrent::rl::kernels {
namespace {

using Wide = Lanes<8>;

// lr·(m/bias1) / (sqrt(v/bias2) + eps) for one 4-double half of a ymm of
// moments. div, sqrt, and the float↔double conversions are all correctly
// rounded, so the half matches the scalar element sequence bit for bit.
__m128 adam_update_half(__m128 m_ps, __m128 v_ps, __m256d bias1, __m256d bias2,
                        __m256d lr, __m256d eps) {
  const __m256d m_hat = _mm256_div_pd(_mm256_cvtps_pd(m_ps), bias1);
  const __m256d v_hat = _mm256_div_pd(_mm256_cvtps_pd(v_ps), bias2);
  const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps);
  return _mm256_cvtpd_ps(_mm256_div_pd(_mm256_mul_pd(lr, m_hat), denom));
}

void adam_step_avx2(float* values, float* m, float* v, const float* grads,
                    std::size_t n, const MlpKernelTable::AdamArgs& a) {
  const __m256 scale = _mm256_set1_ps(a.scale);
  const __m256 b1 = _mm256_set1_ps(a.beta1);
  const __m256 omb1 = _mm256_set1_ps(1.0f - a.beta1);
  const __m256 b2 = _mm256_set1_ps(a.beta2);
  const __m256 omb2 = _mm256_set1_ps(1.0f - a.beta2);
  const __m256d bias1 = _mm256_set1_pd(a.bias1);
  const __m256d bias2 = _mm256_set1_pd(a.bias2);
  const __m256d lr = _mm256_set1_pd(static_cast<double>(a.lr));
  const __m256d eps = _mm256_set1_pd(static_cast<double>(a.eps));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_mul_ps(_mm256_loadu_ps(grads + i), scale);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(omb1, g));
    const __m256 vv = _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                                    _mm256_mul_ps(_mm256_mul_ps(omb2, g), g));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m128 lo =
        adam_update_half(_mm256_castps256_ps128(mv), _mm256_castps256_ps128(vv),
                         bias1, bias2, lr, eps);
    const __m128 hi =
        adam_update_half(_mm256_extractf128_ps(mv, 1),
                         _mm256_extractf128_ps(vv, 1), bias1, bias2, lr, eps);
    const __m256 upd = _mm256_set_m128(hi, lo);
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

// constinit: the factory runs on every host during backend detection, so
// this -mavx2 TU must emit no initialization code.
constinit const MlpKernelTable kTable{MlpIsa::Avx2,
                                      "avx2",
                                      &tanh_kernel<Wide>,
                                      &forward_tile_kernel<Wide>,
                                      &tile_to_rows_kernel<Wide>,
                                      &grad_weights_kernel<Wide>,
                                      &grad_weights_cols_kernel<Wide>,
                                      &grad_inputs_kernel<Wide>,
                                      &output_backward_kernel<Wide>,
                                      &adam_step_avx2};

}  // namespace

const MlpKernelTable* mlp_avx2_table() { return &kTable; }

}  // namespace deterrent::rl::kernels

#else  // !defined(__AVX2__)

namespace deterrent::rl::kernels {
const MlpKernelTable* mlp_avx2_table() { return nullptr; }
}  // namespace deterrent::rl::kernels

#endif
