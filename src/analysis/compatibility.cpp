#include "analysis/compatibility.hpp"

#include <mutex>
#include <utility>

#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace deterrent::analysis {

CompatibilityMatrix::CompatibilityMatrix(std::size_t n) {
  rows_.assign(n, util::BitVec(n));
}

CompatibilityMatrix CompatibilityMatrix::from_rows(std::vector<util::BitVec> rows) {
  for (const auto& row : rows)
    if (row.size() != rows.size())
      throw Error("CompatibilityMatrix::from_rows: matrix is not square");
  for (std::uint32_t i = 0; i < rows.size(); ++i)
    for (const std::uint32_t j : rows[i].to_indices())
      if (!rows[j].test(i))
        throw Error("CompatibilityMatrix::from_rows: rows are not symmetric at (" +
                    std::to_string(i) + ", " + std::to_string(j) + ")");
  CompatibilityMatrix m;
  m.rows_ = std::move(rows);
  return m;
}

CompatibilityMatrix::CompatibilityMatrix(const CompatibilityMatrix& other)
    : rows_(other.rows_),
      cached_edge_count_(other.cached_edge_count_.load(std::memory_order_relaxed)),
      edge_count_valid_(other.edge_count_valid_.load(std::memory_order_relaxed)) {}

CompatibilityMatrix::CompatibilityMatrix(CompatibilityMatrix&& other) noexcept
    : rows_(std::move(other.rows_)),
      cached_edge_count_(other.cached_edge_count_.load(std::memory_order_relaxed)),
      edge_count_valid_(other.edge_count_valid_.load(std::memory_order_relaxed)) {}

CompatibilityMatrix& CompatibilityMatrix::operator=(const CompatibilityMatrix& other) {
  rows_ = other.rows_;
  cached_edge_count_.store(other.cached_edge_count_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  edge_count_valid_.store(other.edge_count_valid_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  return *this;
}

CompatibilityMatrix& CompatibilityMatrix::operator=(CompatibilityMatrix&& other) noexcept {
  rows_ = std::move(other.rows_);
  cached_edge_count_.store(other.cached_edge_count_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  edge_count_valid_.store(other.edge_count_valid_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  return *this;
}

void CompatibilityMatrix::set(std::uint32_t i, std::uint32_t j, bool value) {
  rows_[i].set(j, value);
  rows_[j].set(i, value);
  edge_count_valid_.store(false, std::memory_order_release);
}

std::size_t CompatibilityMatrix::edge_count() const {
  if (!edge_count_valid_.load(std::memory_order_acquire)) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      total += rows_[i].count();
      if (rows_[i].test(i)) --total;  // don't count the diagonal
    }
    // Racing first readers store the same value, so relaxed + release is
    // enough for later acquire loads to see a published count.
    cached_edge_count_.store(total / 2, std::memory_order_relaxed);
    edge_count_valid_.store(true, std::memory_order_release);
  }
  return cached_edge_count_.load(std::memory_order_relaxed);
}

double CompatibilityMatrix::average_degree() const {
  if (rows_.empty()) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) / static_cast<double>(rows_.size());
}

namespace {

using PairIndex = std::pair<std::uint32_t, std::uint32_t>;

/// Phase 2 on one private SAT oracle: decides every pair in `pairs`, appends
/// the compatible ones to `found`, and adds the verdicts to `stats`
/// (sat_sat, sat_unsat, timeout_pairs, sat_queries).
///
/// Model reuse: a Sat model is a full assignment of the netlist's encoding,
/// so the rare nets it drives to their rare values are pairwise compatible.
/// Those pairs are recorded in `seen` and later answered Sat without a solver
/// call. Only truly Sat pairs are ever skipped; every Unsat pair still
/// reaches the solver.
void decide_pairs(const netlist::Netlist& netlist, std::span<const RareNet> rare_nets,
                  const CompatibilityBuildConfig& config, std::span<const PairIndex> pairs,
                  std::vector<PairIndex>& found, CompatibilityBuildStats& stats) {
  if (pairs.empty()) return;
  const std::size_t n = rare_nets.size();
  sat::NetlistOracle oracle(netlist);

  std::vector<util::BitVec> seen(n, util::BitVec(n));
  util::BitVec at_rare(n);
  for (const auto& [i, j] : pairs) {
    if (seen[i].test(j)) {
      ++stats.sat_sat;
      found.emplace_back(i, j);
      continue;
    }
    const sat::Constraint constraints[2] = {
        {rare_nets[i].net, rare_nets[i].rare_value},
        {rare_nets[j].net, rare_nets[j].rare_value},
    };
    const std::size_t arity = (i == j) ? 1 : 2;
    ++stats.sat_queries;
    const auto result =
        oracle.try_satisfiable({constraints, arity}, config.sat_conflict_budget);
    if (!result.has_value()) {
      ++stats.timeout_pairs;
    } else if (!*result) {
      ++stats.sat_unsat;
    } else {
      ++stats.sat_sat;
      found.emplace_back(i, j);
      for (std::uint32_t r = 0; r < n; ++r)
        at_rare.set(r, oracle.solver().model_value(rare_nets[r].net) ==
                           rare_nets[r].rare_value);
      for (const std::uint32_t r : at_rare.to_indices()) seen[r] |= at_rare;
    }
  }
}

/// A rare net whose singleton is unsatisfiable can never participate in a
/// trigger: clears its whole row so masks and cliques ignore it. Returns the
/// number of rows cleared (stats.unsat_singletons).
std::size_t finalize_compatibility(CompatibilityMatrix& matrix) {
  std::size_t cleared = 0;
  const std::size_t n = matrix.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!matrix.singleton_satisfiable(i)) {
      ++cleared;
      for (std::uint32_t j = 0; j < n; ++j) matrix.set(i, j, false);
    }
  }
  return cleared;
}

}  // namespace

std::vector<util::BitVec> rare_activation_signatures(
    const netlist::Netlist& netlist, std::span<const RareNet> rare_nets,
    std::size_t pattern_count, util::Rng& rng, util::ThreadPool* pool) {
  std::vector<util::BitVec> signatures(rare_nets.size(), util::BitVec(pattern_count));
  if (pattern_count == 0) return signatures;
  // Draw the stimulus before any other early-out so the caller's RNG stream
  // advances identically in degenerate cases (fixed-seed reproducibility).
  const auto patterns =
      sim::PatternSet::random(netlist.inputs().size(), pattern_count, rng);
  if (rare_nets.empty()) return signatures;

  // Signature words map 1:1 to pattern blocks, so every worker writes a
  // disjoint word range — no reduction step, and the result is independent of
  // the stripe schedule.
  const sim::Engine engine(netlist);
  auto run_range = [&](std::size_t begin, std::size_t end) {
    engine.sweep_blocks(
        patterns, begin, end,
        [&](std::size_t first, std::size_t n, const sim::EvalBuffer& buf) {
          for (std::size_t r = 0; r < rare_nets.size(); ++r) {
            const auto& rn = rare_nets[r];
            const auto values = buf.net(rn.net);
            for (std::size_t w = 0; w < n; ++w) {
              std::uint64_t at_rare = rn.rare_value ? values[w] : ~values[w];
              at_rare &= patterns.valid_mask(first + w);
              signatures[r].set_word(first + w, at_rare);
            }
          }
          return true;
        });
  };

  const std::size_t n_blocks = patterns.block_count();
  if (pool == nullptr || pool->thread_count() <= 1 || n_blocks < 4) {
    run_range(0, n_blocks);
  } else {
    pool->parallel_chunks(n_blocks, [&](std::size_t /*thread*/, std::size_t begin,
                                        std::size_t end) { run_range(begin, end); });
  }
  return signatures;
}

CompatibilityMatrix build_compatibility(const netlist::Netlist& netlist,
                                        std::span<const RareNet> rare_nets,
                                        const CompatibilityBuildConfig& config,
                                        util::Rng& rng, util::ThreadPool* pool,
                                        CompatibilityBuildStats* stats,
                                        std::vector<util::BitVec>* signatures_out) {
  util::Stopwatch watch;
  const std::size_t n = rare_nets.size();
  CompatibilityMatrix matrix(n);
  CompatibilityBuildStats local_stats;
  local_stats.pair_count = n * (n + 1) / 2;

  // Phase 1 — simulation pre-filter: co-occurrence is a satisfiability witness.
  auto signatures =
      rare_activation_signatures(netlist, rare_nets, config.sim_patterns, rng, pool);

  std::vector<PairIndex> unresolved;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i; j < n; ++j) {
      if (i == j ? signatures[i].any() : signatures[i].intersects(signatures[j])) {
        matrix.set(i, j);
        ++local_stats.sim_resolved;
      } else {
        unresolved.emplace_back(i, j);
      }
    }
  }
  if (signatures_out != nullptr) *signatures_out = std::move(signatures);

  // Phase 2 — SAT decides the pairs simulation never witnessed, one oracle
  // per worker; learnt clauses and reused models stay within that worker's
  // share. The matrix and verdict counts are bit-reproducible for a fixed
  // seed regardless of thread count; sat_queries is not.
  std::mutex merge_mutex;
  auto solve_range = [&](std::size_t begin, std::size_t end) {
    std::vector<PairIndex> found;
    CompatibilityBuildStats counts;
    decide_pairs(netlist, rare_nets, config,
                 std::span(unresolved).subspan(begin, end - begin), found, counts);
    std::lock_guard lock(merge_mutex);
    for (const auto& [i, j] : found) matrix.set(i, j);
    local_stats.sat_sat += counts.sat_sat;
    local_stats.sat_unsat += counts.sat_unsat;
    local_stats.timeout_pairs += counts.timeout_pairs;
    local_stats.sat_queries += counts.sat_queries;
  };

  if (pool != nullptr && pool->thread_count() > 1 && unresolved.size() > 64) {
    pool->parallel_chunks(unresolved.size(),
                          [&](std::size_t /*thread*/, std::size_t begin,
                              std::size_t end) { solve_range(begin, end); });
  } else {
    solve_range(0, unresolved.size());
  }

  local_stats.unsat_singletons = finalize_compatibility(matrix);

  local_stats.build_seconds = watch.elapsed_seconds();
  if (stats != nullptr) *stats = local_stats;
  return matrix;
}

}  // namespace deterrent::analysis
