#pragma once

#include <span>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "sim/pattern.hpp"
#include "util/rng.hpp"

namespace deterrent::baselines {

/// TARMAC (Lyu & Mishra, IEEE TCAD 2021) — repeated maximal clique sampling
/// on the rare-net satisfiability graph (§1.3): grow a random maximal set of
/// jointly satisfiable rare nets, emit one SAT pattern per clique, repeat.
/// Test generation is fast but the *number* of patterns stays large and the
/// quality is sensitive to sampling randomness — the weaknesses (ideal
/// characteristics 3 and 4) DETERRENT addresses.
struct TarmacConfig {
  std::size_t n_patterns = 1000;
  std::int64_t sat_conflict_budget = 100000;
  /// Upper bound on SAT-checked expansion candidates per clique (0 = all).
  /// Large rare-net sets make full maximal expansion SAT-heavy; the original
  /// TARMAC bounds this implicitly through its sampling budget.
  std::size_t max_candidate_checks = 0;
};

struct TarmacResult {
  sim::PatternSet patterns;
  std::vector<std::size_t> clique_sizes;  ///< per emitted pattern
  std::size_t max_clique_size = 0;
  /// Expansion checks whose conflict budget ran out; each was treated as
  /// incompatible, so a nonzero count means some cliques may not be maximal.
  std::uint64_t sat_unknowns = 0;
};

TarmacResult run_tarmac(const netlist::Netlist& netlist,
                        std::span<const analysis::RareNet> rare_nets,
                        const analysis::CompatibilityMatrix& matrix,
                        const TarmacConfig& config, util::Rng& rng);

}  // namespace deterrent::baselines
