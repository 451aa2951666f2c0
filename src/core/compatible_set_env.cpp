#include "core/compatible_set_env.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace deterrent::core {

namespace {

/// EndOfEpisode verification of an optimistic member list (insertion order),
/// shared by the scalar and the vectorized env so both issue the same query
/// stream. Prefix satisfiability is monotone (constraints only accumulate),
/// so a search over prefix lengths finds the longest satisfiable prefix in
/// O(log T) SAT calls instead of one per step — the mechanism that makes
/// end-of-episode reward cheap (§3.2). A simulation witness (the AND of the
/// members' signatures is nonzero) answers a check without the oracle; such
/// checks are counted into `witness_hits`. Every other check is one budgeted
/// query on `oracle` (an exhausted budget is false and counted in its
/// solver_stats().unknowns); `constraints` is scratch space.
///
/// Answers are reused in both directions:
/// - Sat: the model is a full assignment of the netlist that satisfies every
///   constraint asked. Any member it drives to its rare value can join the
///   set with the model still a proof, so it is admitted without a query:
///   the search extends `lo` along the model, and greedy repair admits such
///   members outright.
/// - Unsat: the assumption core is a contradictory subset of the prefix, so
///   the prefix ending at the core's last member is Unsat too and bounds
///   `hi`. That bound is usually exact, so the search probes just below it
///   first and bisects only when the probe fails.
/// Only truly satisfiable sets are admitted and only truly unsatisfiable
/// prefixes cut off. Each query keeps its assumption order (kept members,
/// then the candidate), so the solver's kept trail covers all but the last.
std::vector<std::uint32_t> verify_members(std::span<const std::uint32_t> members,
                                          std::span<const analysis::RareNet> rare_nets,
                                          const std::vector<util::BitVec>* sigs,
                                          std::size_t repair_budget,
                                          sat::NetlistOracle& oracle,
                                          std::int64_t conflict_budget,
                                          std::vector<sat::Constraint>& constraints,
                                          std::uint64_t& witness_hits) {
  const auto witness_of = [&](std::size_t len) {
    util::BitVec joint = (*sigs)[members[0]];
    for (std::size_t k = 1; k < len; ++k) joint &= (*sigs)[members[k]];
    return joint;
  };
  const auto rare_in_model = [&](std::uint32_t m) {
    return oracle.solver().model_value(rare_nets[m].net) == rare_nets[m].rare_value;
  };
  enum class Proof { None, Witness, Model };
  const auto prefix_proof = [&](std::size_t len) {
    if (sigs != nullptr && witness_of(len).any()) {
      ++witness_hits;
      return Proof::Witness;
    }
    constraints.clear();
    for (std::size_t k = 0; k < len; ++k) {
      const auto& rn = rare_nets[members[k]];
      constraints.push_back({rn.net, rn.rare_value});
    }
    return oracle.satisfiable(constraints, conflict_budget) ? Proof::Model : Proof::None;
  };

  std::size_t lo = 1;  // singleton start is satisfiable by construction
  std::size_t hi = members.size();
  bool model_proves_kept = false;  // the oracle's last model satisfies prefix lo
  // After a refuted prefix of length len: the shortest prefix (longer than
  // lo, which is proven) that still holds the last Unsat answer's core. An
  // Unknown has no core and bounds nothing beyond len itself.
  std::vector<sat::Var> core_nets;
  const auto refuted_bound = [&](std::size_t len) {
    core_nets.clear();
    for (const sat::Lit l : oracle.solver().conflict_core()) core_nets.push_back(sat::var_of(l));
    std::sort(core_nets.begin(), core_nets.end());
    for (std::size_t k = len; k-- > lo;)
      if (std::binary_search(core_nets.begin(), core_nets.end(), rare_nets[members[k]].net))
        return k + 1;
    return len;
  };

  if (prefix_proof(hi) != Proof::None) return {members.begin(), members.end()};
  hi = refuted_bound(hi);
  for (std::size_t mid = hi - 1; hi - lo > 1; mid = lo + (hi - lo) / 2) {
    const Proof proof = prefix_proof(mid);
    if (proof == Proof::None) {
      hi = refuted_bound(mid);
      continue;
    }
    lo = mid;
    model_proves_kept = proof == Proof::Model;
    if (model_proves_kept)
      while (lo + 1 < hi && rare_in_model(members[lo])) ++lo;
  }

  // Greedy repair: pairwise evidence admitted members the joint check now
  // rejects, but usually only a few — retry members beyond the verified
  // prefix individually, up to the configured budget. Extra SAT calls are
  // paid only on truncated episodes and never exceed the all-steps per-step
  // cost, yet recover most of the set (the paper's small −5.6% quality gap
  // rather than a prefix cliff).
  std::vector<std::uint32_t> kept(members.begin(),
                                  members.begin() + static_cast<std::ptrdiff_t>(lo));
  util::BitVec joint;
  if (sigs != nullptr) joint = witness_of(lo);
  constraints.clear();
  for (const std::uint32_t m : kept)
    constraints.push_back({rare_nets[m].net, rare_nets[m].rare_value});
  std::size_t budget = repair_budget;
  for (std::size_t k = lo + 1; k < members.size() && budget > 0; ++k, --budget) {
    const std::uint32_t m = members[k];  // member lo itself broke the prefix
    constraints.push_back({rare_nets[m].net, rare_nets[m].rare_value});
    // A reused model and a witness never both apply: the model came from a
    // query no witness answered, so `joint` is empty while it proves `kept`.
    bool admit = false;
    if (sigs != nullptr && joint.intersects((*sigs)[m])) {
      ++witness_hits;
      admit = true;
    } else if (model_proves_kept && rare_in_model(m)) {
      admit = true;
    } else if (oracle.satisfiable(constraints, conflict_budget)) {
      admit = true;
      model_proves_kept = true;
    }
    if (admit) {
      if (sigs != nullptr) joint &= (*sigs)[m];
      kept.push_back(m);
    } else {
      constraints.pop_back();
    }
  }
  return kept;
}

}  // namespace

CompatibleSetEnv::CompatibleSetEnv(const netlist::Netlist& netlist,
                                   std::span<const analysis::RareNet> rare_nets,
                                   const analysis::CompatibilityMatrix& matrix,
                                   const EnvConfig& config, DistinctSetPool* pool)
    : netlist_(&netlist),
      rare_nets_(rare_nets.begin(), rare_nets.end()),
      matrix_(&matrix),
      config_(config),
      pool_(pool),
      oracle_(netlist),
      state_(rare_nets.size()),
      mask_(rare_nets.size()) {
  DETERRENT_ASSERT(matrix.size() == rare_nets_.size(),
                   "compatibility matrix / rare net size mismatch");
  DETERRENT_ASSERT(config_.witness_signatures == nullptr ||
                       config_.witness_signatures->size() == rare_nets_.size(),
                   "witness signature count / rare net count mismatch");
  max_steps_ = config_.max_steps != 0
                   ? config_.max_steps
                   : std::min<std::size_t>(rare_nets_.size(), 128);
}

std::vector<float> CompatibleSetEnv::reset(util::Rng& rng) {
  state_.clear_all();
  members_.clear();
  steps_ = 0;
  episode_open_ = true;

  // Initial state: a random rare net whose singleton is satisfiable (§3.1).
  std::vector<std::uint32_t> viable;
  viable.reserve(rare_nets_.size());
  for (std::uint32_t i = 0; i < rare_nets_.size(); ++i)
    if (matrix_->singleton_satisfiable(i)) viable.push_back(i);
  DETERRENT_ASSERT(!viable.empty(), "no satisfiable rare net to start an episode");
  const std::uint32_t start = viable[rng.below(viable.size())];
  state_.set(start);
  members_.push_back(start);
  if (config_.witness_signatures != nullptr)
    witness_ = (*config_.witness_signatures)[start];

  if (config_.mask_mode == MaskMode::Pairwise) {
    mask_ = matrix_->row(start);
    mask_.set(start, false);
  } else {
    mask_.set_all();
    mask_.set(start, false);
    // Even unmasked agents may only pick nets that can exist in some pattern.
    for (std::uint32_t i = 0; i < rare_nets_.size(); ++i)
      if (!matrix_->singleton_satisfiable(i)) mask_.set(i, false);
  }
  return observation();
}

std::vector<float> CompatibleSetEnv::observation() const {
  std::vector<float> obs(rare_nets_.size(), 0.0f);
  for (const std::uint32_t m : members_) obs[m] = 1.0f;
  return obs;
}

bool CompatibleSetEnv::joint_satisfiable_with(std::uint32_t action) {
  // Simulation witness first: a random pattern that drove every member AND
  // the candidate to their rare values simultaneously proves satisfiability
  // without touching the oracle.
  if (config_.witness_signatures != nullptr &&
      witness_.intersects((*config_.witness_signatures)[action])) {
    ++witness_hits_;
    return true;
  }
  scratch_constraints_.clear();
  scratch_constraints_.reserve(members_.size() + 1);
  for (const std::uint32_t m : members_)
    scratch_constraints_.push_back({rare_nets_[m].net, rare_nets_[m].rare_value});
  scratch_constraints_.push_back({rare_nets_[action].net, rare_nets_[action].rare_value});
  return oracle_.satisfiable(scratch_constraints_, config_.sat_conflict_budget);
}

void CompatibleSetEnv::refresh_mask_after_add(std::uint32_t action) {
  if (config_.mask_mode == MaskMode::Pairwise) {
    mask_ &= matrix_->row(action);
  }
  mask_.set(action, false);
}

void CompatibleSetEnv::finish_episode() {
  episode_open_ = false;
  if (config_.reward_mode == RewardMode::EndOfEpisode) return;  // handled by caller
  if (pool_ != nullptr) pool_->add(state_);
}

rl::StepResult CompatibleSetEnv::step(std::uint32_t action) {
  DETERRENT_ASSERT(episode_open_, "step after episode end");
  DETERRENT_ASSERT(action < rare_nets_.size(), "action out of range");
  DETERRENT_ASSERT(mask_.test(action), "masked action chosen");

  rl::StepResult result;
  ++steps_;

  bool accepted = false;
  if (config_.reward_mode == RewardMode::AllSteps) {
    // Ground truth at every step: pairwise feasibility (mask or matrix) is
    // necessary, the SAT check against the whole set is decisive.
    const bool pairwise_ok =
        config_.mask_mode == MaskMode::Pairwise ||
        [&] {
          for (const std::uint32_t m : members_)
            if (!matrix_->compatible(m, action)) return false;
          return true;
        }();
    accepted = pairwise_ok && !state_.test(action) && joint_satisfiable_with(action);
    if (accepted) {
      state_.set(action);
      members_.push_back(action);
      if (config_.witness_signatures != nullptr)
        witness_ &= (*config_.witness_signatures)[action];
      refresh_mask_after_add(action);
      result.reward = size_reward(members_.size());  // |s_{t+1}|^p, p=2 in §3.1
    } else {
      // Known-bad action: drop it from the mask so the episode can terminate.
      mask_.set(action, false);
      result.reward = 0.0f;
    }
  } else {
    // EndOfEpisode: optimistic transition on pairwise evidence only.
    bool pairwise_ok = !state_.test(action);
    if (pairwise_ok)
      for (const std::uint32_t m : members_) {
        if (!matrix_->compatible(m, action)) {
          pairwise_ok = false;
          break;
        }
      }
    accepted = pairwise_ok;
    if (accepted) {
      state_.set(action);
      members_.push_back(action);
      refresh_mask_after_add(action);
    } else {
      mask_.set(action, false);
    }
    result.reward = 0.0f;  // sparse: paid at episode end
  }

  const bool out_of_actions = mask_.none();
  const bool out_of_steps = steps_ >= max_steps_;
  result.done = out_of_actions || out_of_steps;

  if (result.done) {
    if (config_.reward_mode == RewardMode::EndOfEpisode) {
      members_ = verify_members(members_, rare_nets_, config_.witness_signatures,
                                config_.eoe_repair_budget, oracle_,
                                config_.sat_conflict_budget, scratch_constraints_,
                                witness_hits_);
      state_.clear_all();
      for (const std::uint32_t m : members_) state_.set(m);
      result.reward = size_reward(members_.size());
      if (pool_ != nullptr) pool_->add(state_);
      episode_open_ = false;
    } else {
      finish_episode();
    }
  }

  result.observation = observation();
  return result;
}

// ------------------------------------------------------- vectorized lanes --

CompatibleSetVectorEnv::CompatibleSetVectorEnv(
    const netlist::Netlist& netlist, std::span<const analysis::RareNet> rare_nets,
    const analysis::CompatibilityMatrix& matrix, const EnvConfig& config,
    DistinctSetPool* pool, std::size_t lanes)
    : netlist_(&netlist),
      rare_nets_(rare_nets.begin(), rare_nets.end()),
      matrix_(&matrix),
      config_(config),
      pool_(pool) {
  DETERRENT_ASSERT(lanes >= 1, "CompatibleSetVectorEnv needs at least one lane");
  DETERRENT_ASSERT(matrix.size() == rare_nets_.size(),
                   "compatibility matrix / rare net size mismatch");
  DETERRENT_ASSERT(config_.witness_signatures == nullptr ||
                       config_.witness_signatures->size() == rare_nets_.size(),
                   "witness signature count / rare net count mismatch");
  max_steps_ = config_.max_steps != 0
                   ? config_.max_steps
                   : std::min<std::size_t>(rare_nets_.size(), 128);
  lanes_.resize(lanes);
  for (auto& lane : lanes_) {
    lane.state = util::BitVec(rare_nets_.size());
    lane.mask = util::BitVec(rare_nets_.size());
    lane.obs.assign(rare_nets_.size(), 0.0f);
  }
  oracles_.resize(lanes);
}

float CompatibleSetVectorEnv::size_reward(std::size_t set_size) const {
  if (config_.reward_exponent == 2.0) {
    const auto s = static_cast<float>(set_size);
    return s * s;
  }
  return static_cast<float>(
      std::pow(static_cast<double>(set_size), config_.reward_exponent));
}

sat::NetlistOracle& CompatibleSetVectorEnv::lane_oracle(std::size_t lane) {
  auto& oracle = oracles_[lane];
  if (!oracle) oracle = std::make_unique<sat::NetlistOracle>(*netlist_);
  return *oracle;
}

void CompatibleSetVectorEnv::rebuild_observation(Lane& lane) {
  std::fill(lane.obs.begin(), lane.obs.end(), 0.0f);
  for (const std::uint32_t m : lane.members) lane.obs[m] = 1.0f;
}

void CompatibleSetVectorEnv::reset_lane(std::size_t l, util::Rng& rng) {
  DETERRENT_ASSERT(l < lanes_.size(), "CompatibleSetVectorEnv lane out of range");
  Lane& lane = lanes_[l];
  lane.state.clear_all();
  lane.members.clear();
  lane.steps = 0;
  lane.open = true;
  lane.done = false;
  lane.reward = 0.0f;

  // Same draw sequence as CompatibleSetEnv::reset — one below() against the
  // viable-start list — so a lane and its scalar twin consume their RNG
  // stream identically.
  std::vector<std::uint32_t> viable;
  viable.reserve(rare_nets_.size());
  for (std::uint32_t i = 0; i < rare_nets_.size(); ++i)
    if (matrix_->singleton_satisfiable(i)) viable.push_back(i);
  DETERRENT_ASSERT(!viable.empty(), "no satisfiable rare net to start an episode");
  const std::uint32_t start = viable[rng.below(viable.size())];
  lane.state.set(start);
  lane.members.push_back(start);
  if (config_.witness_signatures != nullptr)
    lane.witness = (*config_.witness_signatures)[start];

  if (config_.mask_mode == MaskMode::Pairwise) {
    lane.mask = matrix_->row(start);
    lane.mask.set(start, false);
  } else {
    lane.mask.set_all();
    lane.mask.set(start, false);
    for (std::uint32_t i = 0; i < rare_nets_.size(); ++i)
      if (!matrix_->singleton_satisfiable(i)) lane.mask.set(i, false);
  }
  rebuild_observation(lane);
}

bool CompatibleSetVectorEnv::pairwise_ok(const Lane& lane,
                                         std::uint32_t action) const {
  for (const std::uint32_t m : lane.members)
    if (!matrix_->compatible(m, action)) return false;
  return true;
}

std::vector<sat::Constraint> CompatibleSetVectorEnv::joint_constraints(
    const Lane& lane, std::uint32_t action) const {
  std::vector<sat::Constraint> constraints;
  constraints.reserve(lane.members.size() + 1);
  for (const std::uint32_t m : lane.members)
    constraints.push_back({rare_nets_[m].net, rare_nets_[m].rare_value});
  constraints.push_back({rare_nets_[action].net, rare_nets_[action].rare_value});
  return constraints;
}

void CompatibleSetVectorEnv::dispatch(std::size_t jobs,
                                      const std::function<void(std::size_t)>& job) {
  if (config_.sat_dispatch_threads >= 2 && jobs > 1) {
    if (!dispatch_pool_)
      dispatch_pool_ = std::make_unique<util::ThreadPool>(config_.sat_dispatch_threads);
    dispatch_pool_->parallel_for(jobs, job);
  } else {
    for (std::size_t k = 0; k < jobs; ++k) job(k);
  }
}

void CompatibleSetVectorEnv::finish_lanes(std::span<const std::size_t> finishing) {
  for (const std::size_t l : finishing) {
    lanes_[l].open = false;
    lanes_[l].done = true;
  }
  if (config_.reward_mode == RewardMode::EndOfEpisode) {
    // Each finishing lane verifies its optimistic set on its private oracle —
    // the same query stream in the same order whether the lanes run here in
    // sequence or across the dispatch pool, so results are bit-identical.
    std::vector<std::vector<std::uint32_t>> verified(finishing.size());
    std::vector<std::uint64_t> hits(finishing.size(), 0);
    dispatch(finishing.size(), [&](std::size_t k) {
      const std::size_t l = finishing[k];
      std::vector<sat::Constraint> constraints;
      verified[k] = verify_members(lanes_[l].members, rare_nets_,
                                   config_.witness_signatures, config_.eoe_repair_budget,
                                   lane_oracle(l), config_.sat_conflict_budget,
                                   constraints, hits[k]);
    });
    for (std::size_t k = 0; k < finishing.size(); ++k) {
      Lane& lane = lanes_[finishing[k]];
      witness_hits_ += hits[k];
      lane.members = std::move(verified[k]);
      lane.state.clear_all();
      for (const std::uint32_t m : lane.members) lane.state.set(m);
      lane.reward = size_reward(lane.members.size());
      rebuild_observation(lane);
    }
  }
  if (pool_ != nullptr)
    for (const std::size_t l : finishing) pool_->add(lanes_[l].state);
}

void CompatibleSetVectorEnv::step(std::span<const std::uint32_t> actions,
                                  const util::BitVec& active) {
  DETERRENT_ASSERT(actions.size() == lanes_.size() && active.size() == lanes_.size(),
                   "CompatibleSetVectorEnv::step batch size mismatch");

  const auto* sigs = config_.witness_signatures;
  enum class Verdict : std::uint8_t { Reject, Accept, NeedSat };
  // Small fixed-capacity per-step scratch; lanes() is bounded and the arrays
  // reset every call.
  std::vector<Verdict> verdicts(lanes_.size(), Verdict::Reject);
  std::vector<std::size_t> pending;

  // Phase 1 — per-lane screen + whole-word witness sweep across all active
  // lanes (AllSteps only; EndOfEpisode admits on pairwise evidence alone).
  for (std::size_t l = active.find_first(); l < lanes_.size();
       l = active.find_next(l + 1)) {
    Lane& lane = lanes_[l];
    DETERRENT_ASSERT(lane.open && !lane.done,
                     "CompatibleSetVectorEnv::step on a closed lane");
    const std::uint32_t action = actions[l];
    DETERRENT_ASSERT(action < rare_nets_.size(), "action out of range");
    DETERRENT_ASSERT(lane.mask.test(action), "masked action chosen");
    ++lane.steps;

    if (config_.reward_mode == RewardMode::AllSteps) {
      const bool screen_ok =
          (config_.mask_mode == MaskMode::Pairwise || pairwise_ok(lane, action)) &&
          !lane.state.test(action);
      if (!screen_ok) {
        verdicts[l] = Verdict::Reject;
      } else if (sigs != nullptr &&
                 lane.witness.intersects((*sigs)[action])) {
        ++witness_hits_;
        verdicts[l] = Verdict::Accept;
      } else {
        verdicts[l] = Verdict::NeedSat;
        pending.push_back(l);
      }
    } else {
      verdicts[l] = !lane.state.test(action) && pairwise_ok(lane, action)
                        ? Verdict::Accept
                        : Verdict::Reject;
    }
  }

  // Phase 2 — batched SAT dispatch for the witness misses. Each pending lane
  // solves on its private oracle — the exact query stream its scalar twin
  // would see, so the verdicts are bit-identical whether the lanes run
  // sequentially or across the pool.
  dispatch(pending.size(), [&](std::size_t k) {
    const std::size_t l = pending[k];
    verdicts[l] = lane_oracle(l).satisfiable(joint_constraints(lanes_[l], actions[l]),
                                             config_.sat_conflict_budget)
                      ? Verdict::Accept
                      : Verdict::Reject;
  });

  // Phase 3 — apply transitions and rewards; collect the terminated lanes.
  std::vector<std::size_t> finishing;
  for (std::size_t l = active.find_first(); l < lanes_.size();
       l = active.find_next(l + 1)) {
    Lane& lane = lanes_[l];
    const std::uint32_t action = actions[l];
    const bool accepted = verdicts[l] == Verdict::Accept;

    if (accepted) {
      lane.state.set(action);
      lane.members.push_back(action);
      lane.obs[action] = 1.0f;
      if (config_.reward_mode == RewardMode::AllSteps && sigs != nullptr)
        lane.witness &= (*sigs)[action];
      if (config_.mask_mode == MaskMode::Pairwise) lane.mask &= matrix_->row(action);
      lane.mask.set(action, false);
      lane.reward = config_.reward_mode == RewardMode::AllSteps
                        ? size_reward(lane.members.size())
                        : 0.0f;
    } else {
      lane.mask.set(action, false);
      lane.reward = 0.0f;
    }

    const bool out_of_actions = lane.mask.none();
    const bool out_of_steps = lane.steps >= max_steps_;
    if (out_of_actions || out_of_steps) finishing.push_back(l);
  }

  // Phase 4 — close terminated lanes (EndOfEpisode: verify + terminal payout).
  if (!finishing.empty()) finish_lanes(finishing);
}

std::span<const float> CompatibleSetVectorEnv::observation(std::size_t lane) const {
  return lanes_[lane].obs;
}

const util::BitVec& CompatibleSetVectorEnv::action_mask(std::size_t lane) const {
  return lanes_[lane].mask;
}

float CompatibleSetVectorEnv::reward(std::size_t lane) const {
  return lanes_[lane].reward;
}

bool CompatibleSetVectorEnv::done(std::size_t lane) const {
  return lanes_[lane].done;
}

std::span<const std::uint32_t> CompatibleSetVectorEnv::members(
    std::size_t lane) const {
  return lanes_[lane].members;
}

std::uint64_t CompatibleSetVectorEnv::sat_queries() const {
  std::uint64_t total = 0;
  for (const auto& oracle : oracles_)
    if (oracle) total += oracle->query_count();
  return total;
}

std::uint64_t CompatibleSetVectorEnv::sat_unknowns() const {
  std::uint64_t total = 0;
  for (const auto& oracle : oracles_)
    if (oracle) total += oracle->solver_stats().unknowns;
  return total;
}

}  // namespace deterrent::core
