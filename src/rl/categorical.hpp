#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace deterrent::rl {

/// Categorical distribution over a masked discrete action space.
///
/// Masked actions (mask bit = 0) receive probability exactly 0 and contribute
/// nothing to entropy or gradients — the mechanism behind §3.3's action
/// masking, whose harmlessness the paper proves in Theorem 3.1.
class MaskedCategorical {
 public:
  /// Builds the distribution from raw logits and a validity mask. At least
  /// one action must be valid.
  MaskedCategorical(std::span<const float> logits, const util::BitVec& mask);

  std::size_t action_count() const { return probs_.size(); }

  /// Probability of each action (0 for masked).
  std::span<const float> probs() const { return probs_; }

  /// log P(action); action must be valid.
  float log_prob(std::uint32_t action) const;

  /// Shannon entropy over the valid support.
  float entropy() const;

  /// Samples an action ~ P.
  std::uint32_t sample(util::Rng& rng) const;

  /// Highest-probability valid action (greedy evaluation).
  std::uint32_t argmax() const;

  /// dL/d logits for a loss of the form  g · log P(a)  plus  h · H:
  /// grad_j = g·(δ_aj − p_j) − h·p_j·(log p_j + H).  The caller accumulates
  /// the result into the policy head's gradient. Masked entries stay 0.
  void add_grad(std::uint32_t action, float g, float h, std::span<float> grad) const;

 private:
  std::vector<std::uint32_t> valid_;  // unmasked actions, ascending
  std::vector<float> probs_;
  std::vector<float> log_probs_;  // -inf (stored as large negative) for masked
  const util::BitVec* mask_;
  float entropy_ = 0.0f;
};

}  // namespace deterrent::rl
