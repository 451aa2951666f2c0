// Differential fuzz harness for the SAT core: random CNF and random-circuit
// instances are thrown at the incremental solver, and every answer is
// cross-checked against an independent reference — brute force on small
// formulas, a fresh solver on the regression corpus, and exhaustive logic
// simulation for circuit encodings. SAT answers must replay (model satisfies
// the formula / the simulated circuit agrees); UNSAT answers must certify
// (core stays within the assumptions and is itself contradictory). Every
// failure message carries the seed that reproduces it.
//
// DETERRENT_SAT_FUZZ_SECONDS caps the wall-clock budget per test (default 8;
// CI's dedicated sat-fuzz job raises it). Loops stop early when the budget
// runs out, so the suite stays time-boxed on slow machines.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_gen/random_circuit.hpp"
#include "sat/dimacs.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace deterrent {
namespace {

using sat::Clause;
using sat::Cnf;
using sat::Lit;
using sat::mk_lit;
using sat::Solver;
using sat::Var;
using sat::var_of;
using sat::sign_of;

// ------------------------------------------------------------ harness ------

double fuzz_seconds() {
  if (const char* env = std::getenv("DETERRENT_SAT_FUZZ_SECONDS"))
    return std::strtod(env, nullptr);
  return 8.0;
}

/// Per-test wall-clock budget; loops drain it instead of a fixed trip count
/// so the suite is time-boxed regardless of host speed.
class FuzzBudget {
 public:
  FuzzBudget()
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(fuzz_seconds()))) {}
  bool expired() const { return std::chrono::steady_clock::now() >= deadline_; }

 private:
  std::chrono::steady_clock::time_point deadline_;
};

Cnf random_cnf(util::Rng& rng, std::size_t min_vars, std::size_t max_vars,
               double clause_ratio = 4.2) {
  Cnf cnf;
  cnf.var_count = min_vars + rng.below(max_vars - min_vars + 1);
  const auto n_clauses = static_cast<std::size_t>(
      clause_ratio * static_cast<double>(cnf.var_count));
  for (std::size_t c = 0; c < n_clauses; ++c) {
    Clause clause;
    const std::size_t width = 2 + rng.below(2);  // mixed 2- and 3-clauses
    for (std::size_t k = 0; k < width; ++k)
      clause.push_back(
          mk_lit(static_cast<Var>(rng.below(cnf.var_count)), rng.bernoulli(0.5)));
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool brute_force_sat(const Cnf& cnf) {
  for (std::uint64_t assignment = 0; assignment < (1ULL << cnf.var_count);
       ++assignment) {
    bool all = true;
    for (const auto& clause : cnf.clauses) {
      bool sat = false;
      for (const Lit l : clause)
        if (((assignment >> var_of(l)) & 1ULL) != sign_of(l)) {
          sat = true;
          break;
        }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

bool model_satisfies(const Solver& solver, const Cnf& cnf) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (const Lit l : clause)
      if (solver.model_value(var_of(l)) != sign_of(l)) {
        sat = true;
        break;
      }
    if (!sat) return false;
  }
  return true;
}

Solver make_solver(const Cnf& cnf) {
  Solver s;
  s.ensure_vars(cnf.var_count);
  for (const auto& clause : cnf.clauses) s.add_clause(clause);
  return s;
}

/// Checks an UNSAT-under-assumptions answer: the core must be a subset of
/// the assumptions and contradictory on its own (re-checked on a fresh
/// solver). Returns an empty string when it certifies.
std::string core_error(const Solver& s, const Cnf& cnf, std::span<const Lit> assumptions) {
  const auto& core = s.conflict_core();
  if (core.empty()) return "empty core";
  for (const Lit l : core) {
    bool is_assumption = false;
    for (const Lit a : assumptions) is_assumption = is_assumption || l == a;
    if (!is_assumption) return "core literal outside the assumptions";
  }
  Solver fresh = make_solver(cnf);
  if (fresh.solve(core) != Solver::Result::Unsat) return "reported core is not contradictory";
  return {};
}

// -------------------------------------------- CNF differential fuzzing -----

// Small random formulas against brute force. Each solver answers several
// assumption queries in a row, so learnt clauses carry across queries the
// way they do in the compatibility oracle. SAT must replay on the formula
// and honour the assumptions; UNSAT-under-assumptions must produce a core
// that is a contradictory subset of the assumptions.
TEST(SatFuzz, PlainSolverMatchesBruteForce) {
  FuzzBudget budget;
  std::uint64_t instances = 0;
  for (std::uint64_t seed = 0; seed < 4000 && !budget.expired(); ++seed) {
    util::Rng rng(seed * 0x9e3779b9ull + 7);
    const Cnf cnf = random_cnf(rng, 5, 11);
    const bool formula_sat = brute_force_sat(cnf);
    Solver s = make_solver(cnf);

    for (int query = 0; query < 4; ++query) {
      std::vector<Lit> assumptions;
      for (int k = 0; k < 3; ++k)
        if (rng.bernoulli(0.6))
          assumptions.push_back(mk_lit(static_cast<Var>(rng.below(cnf.var_count)),
                                       rng.bernoulli(0.5)));

      Cnf augmented = cnf;
      for (const Lit a : assumptions) augmented.clauses.push_back({a});
      const bool expected = brute_force_sat(augmented);

      const auto result = s.solve(assumptions);
      ASSERT_NE(result, Solver::Result::Unknown) << "seed " << seed;
      ASSERT_EQ(result == Solver::Result::Sat, expected)
          << "seed " << seed << " query " << query << "\n"
          << write_dimacs_string(cnf);

      if (result == Solver::Result::Sat) {
        ASSERT_TRUE(model_satisfies(s, cnf))
            << "seed " << seed << " query " << query
            << ": model violates the formula\n"
            << write_dimacs_string(cnf);
        for (const Lit a : assumptions)
          ASSERT_EQ(s.model_value(var_of(a)), !sign_of(a))
              << "seed " << seed << ": model ignores assumption";
      } else if (formula_sat) {
        // UNSAT purely because of the assumptions: the core must certify it.
        const std::string error = core_error(s, cnf, assumptions);
        ASSERT_TRUE(error.empty()) << "seed " << seed << " query " << query << ": "
                                   << error;
      }
      ++instances;
    }
  }
  RecordProperty("instances", static_cast<int>(instances));
  ASSERT_GT(instances, 0u);
}

// Query sequences shaped like the end-of-episode repair, on one solver whose
// assumption trail carries over between queries: push an assumption, solve,
// pop it again on Unsat. Mixed in are truncations of the stack (the binary
// search moving back), budget-1 solves that may end Unknown, clauses added
// between solves and phase randomization, all of which must drop or reuse
// the kept trail correctly. Every verdict is checked against brute force,
// every model against the formula and the assumptions, every core with
// core_error.
TEST(SatFuzz, TrailReuseAcrossRepairQueriesMatchesBruteForce) {
  FuzzBudget budget;
  std::uint64_t queries = 0;
  std::uint64_t unknowns = 0;
  for (std::uint64_t seed = 0; seed < 3000 && !budget.expired(); ++seed) {
    util::Rng rng(seed * 0x2545f4914f6cdd1dull + 3);
    Cnf cnf = random_cnf(rng, 6, 12, 2.5);
    Solver s = make_solver(cnf);
    std::vector<Lit> assumptions;

    for (int op = 0; op < 24; ++op) {
      const std::uint64_t kind = rng.below(20);
      if (kind == 0) {
        Clause clause;
        for (int k = 0; k < 3; ++k)
          clause.push_back(
              mk_lit(static_cast<Var>(rng.below(cnf.var_count)), rng.bernoulli(0.5)));
        s.add_clause(clause);
        cnf.clauses.push_back(std::move(clause));
        continue;
      }
      if (kind == 1) {
        s.randomize_phases(rng);
        continue;
      }
      if (kind == 2 && !assumptions.empty()) {
        assumptions.resize(rng.below(assumptions.size()));
        continue;
      }

      assumptions.push_back(
          mk_lit(static_cast<Var>(rng.below(cnf.var_count)), rng.bernoulli(0.5)));
      const bool budgeted = rng.below(6) == 0;
      const auto result = s.solve(assumptions, budgeted ? 1 : -1);
      ++queries;

      Cnf augmented = cnf;
      for (const Lit a : assumptions) augmented.clauses.push_back({a});
      const bool expected = brute_force_sat(augmented);
      if (result == Solver::Result::Unknown) {
        ASSERT_TRUE(budgeted) << "seed " << seed << " op " << op;
        ++unknowns;
        assumptions.pop_back();
        continue;
      }
      ASSERT_EQ(result == Solver::Result::Sat, expected)
          << "seed " << seed << " op " << op << "\n"
          << write_dimacs_string(cnf);
      if (result == Solver::Result::Sat) {
        ASSERT_TRUE(model_satisfies(s, cnf))
            << "seed " << seed << " op " << op << ": model violates the formula";
        for (const Lit a : assumptions)
          ASSERT_EQ(s.model_value(var_of(a)), !sign_of(a))
              << "seed " << seed << " op " << op << ": model ignores an assumption";
      } else {
        if (brute_force_sat(cnf)) {
          const std::string error = core_error(s, cnf, assumptions);
          ASSERT_TRUE(error.empty()) << "seed " << seed << " op " << op << ": " << error;
        }
        assumptions.pop_back();
      }
    }
  }
  RecordProperty("queries", static_cast<int>(queries));
  RecordProperty("unknowns", static_cast<int>(unknowns));
  ASSERT_GT(queries, 0u);
}

// ---------------------------------------------- circuit model replay -------

// Random circuits through the Tseitin encoder: when the solver says a net can
// take a value, extracting the primary-input assignment from the model and
// simulating it must reproduce that value on every net of the circuit. When
// it says the net cannot, no input pattern may drive it there (the circuits
// are small enough to simulate every pattern).
TEST(SatFuzz, CircuitModelsReplayThroughTheSimulator) {
  FuzzBudget budget;
  for (std::uint64_t seed = 1; seed < 30 && !budget.expired(); ++seed) {
    bench_gen::RandomCircuitProfile profile;
    profile.n_inputs = 10;
    profile.n_outputs = 5;
    profile.n_gates = 120;
    profile.seed = seed;
    const netlist::Netlist nl = bench_gen::generate_random_circuit(profile);
    sim::Simulator simulator(nl);
    util::Rng rng(seed * 7907ull + 11);

    // reachable[v][net]: some input pattern drives `net` to value v.
    const std::size_t n_inputs = nl.inputs().size();
    std::vector<std::vector<bool>> reachable(2, std::vector<bool>(nl.net_count(), false));
    for (std::uint64_t bits = 0; bits < (1ULL << n_inputs); ++bits) {
      sim::Pattern pattern(n_inputs);
      for (std::size_t i = 0; i < n_inputs; ++i) pattern.set(i, (bits >> i) & 1ULL);
      const std::vector<bool> values = simulator.simulate_pattern(pattern);
      for (netlist::NetId net = 0; net < nl.net_count(); ++net)
        reachable[values[net] ? 1 : 0][net] = true;
    }

    Solver s;
    sat::encode_netlist(nl, s);
    for (int k = 0; k < 8; ++k) {
      const auto target = static_cast<netlist::NetId>(rng.below(nl.net_count()));
      const bool want = rng.bernoulli(0.5);
      const Lit assume[] = {mk_lit(static_cast<Var>(target), !want)};
      const auto result = s.solve(assume);
      ASSERT_NE(result, Solver::Result::Unknown) << "seed " << seed;
      ASSERT_EQ(result == Solver::Result::Sat, reachable[want ? 1 : 0][target])
          << "seed " << seed << " net " << target
          << ": answer disagrees with exhaustive simulation";
      if (result != Solver::Result::Sat) continue;

      sim::Pattern pattern(n_inputs);
      for (std::size_t i = 0; i < n_inputs; ++i)
        pattern.set(i, s.model_value(static_cast<Var>(nl.inputs()[i])));
      const std::vector<bool> values = simulator.simulate_pattern(pattern);
      ASSERT_EQ(values[target], want)
          << "seed " << seed << " net " << target
          << ": model does not force the assumed value";
      for (netlist::NetId net = 0; net < nl.net_count(); ++net)
        ASSERT_EQ(values[net], s.model_value(static_cast<Var>(net)))
            << "seed " << seed << " net " << net
            << ": model disagrees with simulation";
    }
  }
}

// ----------------------------------------------------- DIMACS corpus -------

// Minimized regression instances, table-driven. Each is solved by an
// incremental solver (after a warm-up query without assumptions) and checked
// against the exact expectation, a brute-force reference and a fresh solver.
struct CorpusCase {
  const char* file;
  Solver::Result expected;
  std::vector<Lit> assumptions;
};

class SatCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(SatCorpus, MatchesFreshSolverAndBruteForce) {
  const CorpusCase& tc = GetParam();
  const std::string path =
      std::string(DETERRENT_SOURCE_DIR) + "/tests/corpus/sat/" + tc.file;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  const Cnf cnf = sat::read_dimacs(in);

  Cnf augmented = cnf;
  for (const Lit a : tc.assumptions) augmented.clauses.push_back({a});
  ASSERT_EQ(brute_force_sat(augmented), tc.expected == Solver::Result::Sat) << tc.file;

  Solver s = make_solver(cnf);
  s.solve();
  const auto result = s.solve(tc.assumptions);
  ASSERT_EQ(result, tc.expected) << tc.file;
  Solver fresh = make_solver(cnf);
  ASSERT_EQ(fresh.solve(tc.assumptions), result) << tc.file;
  if (result == Solver::Result::Sat) {
    ASSERT_TRUE(model_satisfies(s, cnf)) << tc.file;
  } else if (!tc.assumptions.empty() && s.okay()) {
    const std::string error = core_error(s, cnf, tc.assumptions);
    ASSERT_TRUE(error.empty()) << tc.file << ": " << error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Minimized, SatCorpus,
    ::testing::Values(
        CorpusCase{"empty_clause_unsat.cnf", Solver::Result::Unsat, {}},
        CorpusCase{"unit_only_sat.cnf", Solver::Result::Sat, {}},
        CorpusCase{"assumption_core_unsat.cnf",
                   Solver::Result::Unsat,
                   {mk_lit(0), mk_lit(1)}},
        CorpusCase{"pure_literal_after_elimination_sat.cnf",
                   Solver::Result::Sat,
                   {}}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      std::string name = info.param.file;
      name.resize(name.size() - 4);  // drop ".cnf"
      for (char& c : name)
        if (c == '-' || c == '.') c = '_';
      return name;
    });

}  // namespace
}  // namespace deterrent
