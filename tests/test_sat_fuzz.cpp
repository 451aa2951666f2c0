// Differential fuzz harness for the SAT core: random CNF and random-circuit
// instances are thrown at every inprocessing pass combination and portfolio
// width, and every answer is cross-checked against an independent reference —
// brute force on small formulas, an untouched solver on larger ones, and the
// logic simulator for circuit encodings. SAT answers must replay (model
// satisfies the original formula / the simulated circuit agrees); UNSAT
// answers must certify (core stays within the assumptions and is itself
// contradictory). Every failure message carries the seed that reproduces it.
//
// DETERRENT_SAT_FUZZ_SECONDS caps the wall-clock budget per test (default 8;
// CI's dedicated sat-fuzz job raises it). Loops stop early when the budget
// runs out, so the suite stays time-boxed on slow machines.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_gen/random_circuit.hpp"
#include "sat/dimacs.hpp"
#include "sat/encoder.hpp"
#include "sat/portfolio.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

Solver::InprocessConfig combo_config(unsigned combo) {
  Solver::InprocessConfig config;
  config.probing = (combo & 1u) != 0;
  config.scc = (combo & 2u) != 0;
  config.subsumption = (combo & 4u) != 0;
  config.elimination = (combo & 8u) != 0;
  return config;
}

// -------------------------------------------- CNF differential fuzzing -----

// Every one of the 16 pass combinations, against brute force, with
// assumptions on frozen variables. SAT must replay on the ORIGINAL formula
// (this is what catches reconstruction bugs); UNSAT-under-assumptions must
// produce a core that is a contradictory subset of the assumptions.
TEST(SatFuzz, InprocessCombosMatchBruteForce) {
  FuzzBudget budget;
  std::uint64_t instances = 0;
  for (std::uint64_t seed = 0; seed < 4000 && !budget.expired(); ++seed) {
    util::Rng rng(seed * 0x9e3779b9ull + 7);
    const Cnf cnf = random_cnf(rng, 5, 11);
    const unsigned combo = static_cast<unsigned>(seed & 15u);

    std::vector<Lit> assumptions;
    for (Var v = 0; v < 3; ++v)
      if (rng.bernoulli(0.6)) assumptions.push_back(mk_lit(v, rng.bernoulli(0.5)));

    Solver s;
    s.ensure_vars(cnf.var_count);
    for (const auto& clause : cnf.clauses) s.add_clause(clause);
    for (Var v = 0; v < 3; ++v) s.set_frozen(v);

    const bool formula_sat = brute_force_sat(cnf);
    if (!s.inprocess(combo_config(combo))) {
      ASSERT_FALSE(formula_sat) << "seed " << seed << " combo " << combo
                                << ": inprocess claimed UNSAT on a SAT formula\n"
                                << write_dimacs_string(cnf);
      ++instances;
      continue;
    }

    Cnf augmented = cnf;
    for (const Lit a : assumptions) augmented.clauses.push_back({a});
    const bool expected = brute_force_sat(augmented);

    const auto result = s.solve(assumptions);
    ASSERT_NE(result, Solver::Result::Unknown) << "seed " << seed;
    ASSERT_EQ(result == Solver::Result::Sat, expected)
        << "seed " << seed << " combo " << combo << "\n"
        << write_dimacs_string(cnf);

    if (result == Solver::Result::Sat) {
      ASSERT_TRUE(model_satisfies(s, cnf))
          << "seed " << seed << " combo " << combo
          << ": reconstructed model violates the original formula\n"
          << write_dimacs_string(cnf);
      for (const Lit a : assumptions)
        ASSERT_EQ(s.model_value(var_of(a)), !sign_of(a))
            << "seed " << seed << ": model ignores assumption";
    } else if (formula_sat) {
      // UNSAT purely because of the assumptions: the core must certify it.
      const auto& core = s.conflict_core();
      ASSERT_FALSE(core.empty()) << "seed " << seed;
      for (const Lit l : core) {
        bool is_assumption = false;
        for (const Lit a : assumptions) is_assumption = is_assumption || l == a;
        ASSERT_TRUE(is_assumption)
            << "seed " << seed << ": core literal outside the assumptions";
      }
      Solver fresh;
      fresh.ensure_vars(cnf.var_count);
      for (const auto& clause : cnf.clauses) fresh.add_clause(clause);
      ASSERT_EQ(fresh.solve(core), Solver::Result::Unsat)
          << "seed " << seed << ": reported core is not contradictory";
    }
    ++instances;
  }
  RecordProperty("instances", static_cast<int>(instances));
  ASSERT_GT(instances, 0u);
}

// Larger formulas (beyond brute force): an inprocessing solver and a pristine
// solver must agree query after query on one shared assumption stream.
TEST(SatFuzz, InterleavedInprocessingAgreesWithPristineSolver) {
  FuzzBudget budget;
  for (std::uint64_t seed = 0; seed < 120 && !budget.expired(); ++seed) {
    util::Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
    const Cnf cnf = random_cnf(rng, 25, 40, 4.0);

    Solver pristine;
    pristine.ensure_vars(cnf.var_count);
    for (const auto& clause : cnf.clauses) pristine.add_clause(clause);

    Solver inproc;
    inproc.ensure_vars(cnf.var_count);
    for (const auto& clause : cnf.clauses) inproc.add_clause(clause);
    for (Var v = 0; v < 6; ++v) inproc.set_frozen(v);

    for (int query = 0; query < 30; ++query) {
      if (query % 7 == 0) inproc.inprocess();
      std::vector<Lit> assumptions;
      const std::size_t n_assume = rng.below(5);
      for (std::size_t k = 0; k < n_assume; ++k)
        assumptions.push_back(
            mk_lit(static_cast<Var>(rng.below(6)), rng.bernoulli(0.5)));
      const auto a = pristine.solve(assumptions);
      const auto b = inproc.solve(assumptions);
      ASSERT_EQ(a, b) << "seed " << seed << " query " << query
                      << ": inprocessing changed a query answer";
      if (a == Solver::Result::Sat)
        ASSERT_TRUE(model_satisfies(inproc, cnf))
            << "seed " << seed << " query " << query;
    }
  }
}

// -------------------------------------------------- portfolio fuzzing ------

// Portfolio widths 1..4 (sequential and pooled) must agree with a plain
// solver on every query of a batch.
TEST(SatFuzz, PortfolioBatchAgreesWithPlainSolver) {
  FuzzBudget budget;
  util::ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 60 && !budget.expired(); ++seed) {
    util::Rng rng(seed * 2654435761ull + 3);
    const Cnf cnf = random_cnf(rng, 20, 32, 4.0);

    std::vector<sat::Portfolio::Query> queries(16);
    for (auto& q : queries) {
      const std::size_t n_assume = rng.below(4);
      for (std::size_t k = 0; k < n_assume; ++k)
        q.assumptions.push_back(
            mk_lit(static_cast<Var>(rng.below(6)), rng.bernoulli(0.5)));
    }

    std::vector<Solver::Result> reference;
    {
      Solver plain;
      plain.ensure_vars(cnf.var_count);
      for (const auto& clause : cnf.clauses) plain.add_clause(clause);
      for (const auto& q : queries) reference.push_back(plain.solve(q.assumptions));
    }

    const auto encode = [&](Solver& s, std::size_t) {
      s.ensure_vars(cnf.var_count);
      for (const auto& clause : cnf.clauses) s.add_clause(clause);
      for (Var v = 0; v < 6; ++v) s.set_frozen(v);
    };
    for (std::size_t n = 1; n <= 4; ++n) {
      sat::PortfolioConfig config;
      config.solvers = n;
      config.seed = seed + 17 * n;
      config.inprocess = (seed & 1u) != 0;
      sat::Portfolio portfolio(config, encode);
      const auto seq = portfolio.solve_batch(queries);  // deterministic path
      ASSERT_EQ(seq, reference) << "seed " << seed << " width " << n
                                << " (sequential)";
      sat::Portfolio pooled(config, encode);
      const auto par = pooled.solve_batch(queries, &pool);
      ASSERT_EQ(par, reference) << "seed " << seed << " width " << n
                                << " (pooled)";
    }
  }
}

// ---------------------------------------------- circuit model replay -------

// Random circuits through the Tseitin encoder: when the solver says a net can
// take a value, extracting the primary-input assignment from the model and
// simulating it must reproduce that value on every net of the circuit — with
// inprocessing enabled, this exercises reconstruction of eliminated Tseitin
// variables end to end.
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

    Solver s;
    sat::encode_netlist(nl, s);
    std::vector<netlist::NetId> targets;
    for (int k = 0; k < 8; ++k)
      targets.push_back(static_cast<netlist::NetId>(rng.below(nl.net_count())));
    for (const netlist::NetId in : nl.inputs()) s.set_frozen(in);
    for (const netlist::NetId t : targets) s.set_frozen(t);
    ASSERT_TRUE(s.inprocess()) << "seed " << seed;

    Solver plain;
    sat::encode_netlist(nl, plain);

    for (const netlist::NetId target : targets) {
      const bool want = rng.bernoulli(0.5);
      const Lit assume[] = {mk_lit(static_cast<Var>(target), !want)};
      const auto result = s.solve(assume);
      ASSERT_EQ(result, plain.solve(assume))
          << "seed " << seed << " net " << target
          << ": inprocessed circuit answer diverged";
      if (result != Solver::Result::Sat) continue;

      sim::Pattern pattern(nl.inputs().size());
      for (std::size_t i = 0; i < nl.inputs().size(); ++i)
        pattern.set(i, s.model_value(static_cast<Var>(nl.inputs()[i])));
      const std::vector<bool> values = simulator.simulate_pattern(pattern);
      ASSERT_EQ(values[target], want)
          << "seed " << seed << " net " << target
          << ": model does not force the assumed value";
      for (netlist::NetId net = 0; net < nl.net_count(); ++net)
        ASSERT_EQ(values[net], s.model_value(static_cast<Var>(net)))
            << "seed " << seed << " net " << net
            << ": reconstructed model disagrees with simulation";
    }
  }
}

// ----------------------------------------------------- DIMACS corpus -------

// Minimized regression instances, table-driven. Each is solved by the plain
// solver and by every inprocessing combination; expectations are exact.
struct CorpusCase {
  const char* file;
  Solver::Result expected;
  std::vector<Lit> assumptions;
};

class SatCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(SatCorpus, AllInprocessCombosAgree) {
  const CorpusCase& tc = GetParam();
  const std::string path =
      std::string(DETERRENT_SOURCE_DIR) + "/tests/corpus/sat/" + tc.file;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  const Cnf cnf = sat::read_dimacs(in);

  for (unsigned combo = 0; combo <= 16; ++combo) {
    Solver s;
    s.ensure_vars(cnf.var_count);
    bool ok = true;
    for (const auto& clause : cnf.clauses) ok = s.add_clause(clause) && ok;
    for (const Lit a : tc.assumptions) s.set_frozen(var_of(a));
    if (combo < 16 && ok) s.inprocess(combo_config(combo));

    const auto result = s.solve(tc.assumptions);
    ASSERT_EQ(result, tc.expected) << tc.file << " combo " << combo;
    if (result == Solver::Result::Sat) {
      ASSERT_TRUE(model_satisfies(s, cnf)) << tc.file << " combo " << combo;
    } else if (!tc.assumptions.empty() && s.okay()) {
      for (const Lit l : s.conflict_core()) {
        bool is_assumption = false;
        for (const Lit a : tc.assumptions) is_assumption = is_assumption || l == a;
        ASSERT_TRUE(is_assumption) << tc.file << " combo " << combo;
      }
    }
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
