// Scalar reference of the MLP's tanh: a plain port of fdlibm's s_tanhf.c and
// s_expm1f.c (the single-precision code glibc's tanhf runs). Compiled with
// -ffp-contract=off (CMakeLists.txt): each multiply and add must round
// separately, exactly as in the original, or the port stops matching it on
// FMA-capable base ISAs. The vector kernels in mlp_kernels_impl.hpp run the
// same operation sequence lane-wise and are tested bit-identical to this.
#include <cstdint>
#include <cstring>

#include "rl/mlp_kernel_table.hpp"

namespace deterrent::rl::kernels {

namespace {

std::uint32_t bits_of(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

float from_bits(std::uint32_t u) {
  float x = 0.0f;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

/// fdlibm expm1f on the arguments tanh passes it: 2|x| in [2, 44) and
/// -2|x| in (-2, -2^-54]. Of expm1f's paths, those outside this domain
/// (non-finite, overflow, x < -27 ln2, k = 1, k = 128) are left out.
float expm1_fdlibm(float x) {
  constexpr float kOne = 1.0f;
  constexpr float kHuge = 1.0e+30f;
  constexpr float kLn2Hi = 6.9313812256e-01f;
  constexpr float kLn2Lo = 9.0580006145e-06f;
  constexpr float kInvLn2 = 1.4426950216e+00f;
  constexpr float kQ1 = -3.3333335072e-02f;
  constexpr float kQ2 = 1.5873016091e-03f;
  constexpr float kQ3 = -7.9365076090e-05f;
  constexpr float kQ4 = 4.0082177293e-06f;
  constexpr float kQ5 = -2.0109921195e-07f;

  const std::uint32_t hx = bits_of(x) & 0x7fffffffu;
  const bool negative = x < 0.0f;

  // Argument reduction.
  float hi = 0.0f;
  float lo = 0.0f;
  float c = 0.0f;
  std::int32_t k = 0;
  if (hx > 0x3eb17218u) {                  // |x| > 0.5 ln2
    if (negative && hx < 0x3f851592u) {    // and |x| < 1.5 ln2
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t*ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: return x (inexact)
    const float t = kHuge + x;
    return x - (t - kHuge);
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  const std::uint32_t exp_k = static_cast<std::uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {  // suffice to return exp(x)-1
    const float y = kOne - (e - x);
    return from_bits(bits_of(y) + exp_k) - kOne;
  }
  float y = 0.0f;
  if (k < 23) {
    t = from_bits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += kOne;
  }
  return from_bits(bits_of(y) + exp_k);
}

}  // namespace

float tanh_fdlibm(float x) {
  constexpr float kOne = 1.0f;
  constexpr float kTwo = 2.0f;
  constexpr float kTiny = 1.0e-30f;

  const std::uint32_t jx = bits_of(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;

  if (ix >= 0x7f800000u) {  // tanh(±inf) = ±1, tanh(NaN) = NaN
    if (!negative) return kOne / x + kOne;
    return kOne / x - kOne;
  }

  float z = 0.0f;
  if (ix < 0x41b00000u) {               // |x| < 22
    if (ix == 0) return x;              // ±0
    if (ix < 0x24000000u) return x * (kOne + x);  // |x| < 2^-55
    const float ax = from_bits(ix);
    if (ix >= 0x3f800000u) {            // |x| >= 1
      const float t = expm1_fdlibm(kTwo * ax);
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = expm1_fdlibm(-kTwo * ax);
      z = -t / (t + kTwo);
    }
  } else {  // |x| >= 22: ±1 (inexact)
    z = kOne - kTiny;
  }
  return negative ? -z : z;
}

}  // namespace deterrent::rl::kernels
