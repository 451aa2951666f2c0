#include "rl/categorical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace deterrent::rl {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();
}

MaskedCategorical::MaskedCategorical(std::span<const float> logits,
                                     const util::BitVec& mask)
    : mask_(&mask) {
  DETERRENT_ASSERT(logits.size() == mask.size(), "logits/mask size mismatch");

  const std::size_t n = logits.size();
  probs_.assign(n, 0.0f);
  log_probs_.assign(n, kNegInf);

  // The valid actions, ascending: every pass below walks this one list.
  valid_ = mask.to_indices();
  DETERRENT_ASSERT(!valid_.empty(), "masked categorical requires a valid action");

  // Numerically stable masked log-softmax.
  float max_logit = kNegInf;
  for (const std::uint32_t i : valid_) max_logit = std::max(max_logit, logits[i]);

  double z = 0.0;
  for (const std::uint32_t i : valid_)
    z += std::exp(static_cast<double>(logits[i] - max_logit));
  const float log_z = static_cast<float>(std::log(z)) + max_logit;

  double h = 0.0;
  for (const std::uint32_t i : valid_) {
    const float lp = logits[i] - log_z;
    log_probs_[i] = lp;
    const float p = std::exp(lp);
    probs_[i] = p;
    if (p > 0.0f) h -= static_cast<double>(p) * lp;
  }
  entropy_ = static_cast<float>(h);
}

float MaskedCategorical::log_prob(std::uint32_t action) const {
  DETERRENT_ASSERT(action < log_probs_.size() && mask_->test(action),
                   "log_prob of masked action");
  return log_probs_[action];
}

float MaskedCategorical::entropy() const { return entropy_; }

std::uint32_t MaskedCategorical::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  double cdf = 0.0;
  for (const std::uint32_t i : valid_) {
    cdf += probs_[i];
    if (u < cdf) return i;
  }
  return valid_.back();  // guard against rounding
}

std::uint32_t MaskedCategorical::argmax() const {
  std::uint32_t best = valid_.front();
  for (const std::uint32_t i : valid_)
    if (probs_[i] > probs_[best]) best = i;
  return best;
}

void MaskedCategorical::add_grad(std::uint32_t action, float g, float h,
                                 std::span<float> grad) const {
  DETERRENT_ASSERT(grad.size() == probs_.size(), "grad size mismatch");
  for (const std::uint32_t i : valid_) {
    const float p = probs_[i];
    float d = -g * p;
    if (i == action) d += g;
    if (h != 0.0f && p > 0.0f) d -= h * p * (log_probs_[i] + entropy_);
    grad[i] += d;
  }
}

}  // namespace deterrent::rl
