#include "baselines/tarmac.hpp"

#include <algorithm>

#include "sat/oracle.hpp"

namespace deterrent::baselines {

TarmacResult run_tarmac(const netlist::Netlist& netlist,
                        std::span<const analysis::RareNet> rare_nets,
                        const analysis::CompatibilityMatrix& matrix,
                        const TarmacConfig& config, util::Rng& rng) {
  TarmacResult result;
  result.patterns = sim::PatternSet(netlist.inputs().size());

  std::vector<std::uint32_t> viable;
  for (std::uint32_t i = 0; i < rare_nets.size(); ++i)
    if (matrix.singleton_satisfiable(i)) viable.push_back(i);
  if (viable.empty()) return result;

  sat::NetlistOracle oracle(netlist);
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint32_t> clique;
  std::vector<sat::Constraint> constraints;

  while (result.patterns.pattern_count() < config.n_patterns) {
    // Seed with a random satisfiable rare net, then expand in random order —
    // the "repeated maximal clique sampling" of the TARMAC paper.
    const std::uint32_t seed = viable[rng.below(viable.size())];
    clique.assign(1, seed);
    util::BitVec allowed = matrix.row(seed);
    allowed.set(seed, false);
    constraints.assign(1, {rare_nets[seed].net, rare_nets[seed].rare_value});

    candidates = allowed.to_indices();
    rng.shuffle(candidates);
    std::size_t checks = 0;
    for (const std::uint32_t c : candidates) {
      if (config.max_candidate_checks != 0 && checks >= config.max_candidate_checks)
        break;
      if (!allowed.test(c)) continue;  // pruned by a previous acceptance
      ++checks;
      constraints.push_back({rare_nets[c].net, rare_nets[c].rare_value});
      if (oracle.satisfiable(constraints, config.sat_conflict_budget)) {
        clique.push_back(c);
        allowed &= matrix.row(c);
        allowed.set(c, false);
      } else {
        constraints.pop_back();
        allowed.set(c, false);
      }
    }

    oracle.randomize_completion(rng);
    const auto pattern = oracle.find_pattern(constraints);
    if (!pattern.has_value()) continue;  // cannot happen for verified cliques
    result.patterns.push(*pattern);
    result.clique_sizes.push_back(clique.size());
    result.max_clique_size = std::max(result.max_clique_size, clique.size());
  }
  result.sat_unknowns = oracle.solver_stats().unknowns;
  return result;
}

}  // namespace deterrent::baselines
