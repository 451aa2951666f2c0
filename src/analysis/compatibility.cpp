#include "analysis/compatibility.hpp"

#include <algorithm>
#include <mutex>

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

void CompatibilityMatrix::merge_or(const CompatibilityMatrix& other) {
  if (other.size() != size())
    throw Error("CompatibilityMatrix::merge_or: size mismatch (" +
                std::to_string(other.size()) + " vs " + std::to_string(size()) + ")");
  for (std::size_t i = 0; i < rows_.size(); ++i) rows_[i] |= other.rows_[i];
  edge_count_valid_.store(false, std::memory_order_release);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> compatibility_shard_ranges(
    std::size_t n, std::size_t shard_count) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  if (n == 0) {
    ranges.emplace_back(0, 0);
    return ranges;
  }
  const std::size_t shards = std::min(std::max<std::size_t>(1, shard_count), n);
  std::size_t remaining_pairs = n * (n + 1) / 2;
  std::uint32_t begin = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t remaining_shards = shards - s;
    std::uint32_t end;
    if (remaining_shards == 1) {
      end = static_cast<std::uint32_t>(n);
    } else {
      // Greedy balance: take rows until this shard holds its share of the
      // remaining pairs, but always leave one row per later shard.
      const std::size_t target =
          (remaining_pairs + remaining_shards - 1) / remaining_shards;
      const auto max_end = static_cast<std::uint32_t>(n - (remaining_shards - 1));
      end = begin;
      std::size_t got = 0;
      while (end < max_end && got < target) got += n - end++;
    }
    if (end == begin) end = begin + 1;
    for (std::uint32_t i = begin; i < end; ++i) remaining_pairs -= n - i;
    ranges.emplace_back(begin, end);
    begin = end;
  }
  return ranges;
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

}  // namespace

CompatibilityMatrix build_compatibility_shard(
    const netlist::Netlist& netlist, std::span<const RareNet> rare_nets,
    const CompatibilityBuildConfig& config, std::span<const util::BitVec> signatures,
    std::uint32_t row_begin, std::uint32_t row_end, CompatibilityBuildStats* stats) {
  const std::size_t n = rare_nets.size();
  DETERRENT_ASSERT(signatures.size() == n && row_begin <= row_end && row_end <= n,
                   "build_compatibility_shard: bad row range or signature table");
  CompatibilityMatrix matrix(n);
  CompatibilityBuildStats local;

  // Phase 1 over the owned triangle slice.
  std::vector<PairIndex> unresolved;
  for (std::uint32_t i = row_begin; i < row_end; ++i) {
    for (std::uint32_t j = i; j < n; ++j) {
      ++local.pair_count;
      if (i == j ? signatures[i].any() : signatures[i].intersects(signatures[j])) {
        matrix.set(i, j);
        ++local.sim_resolved;
      } else {
        unresolved.emplace_back(i, j);
      }
    }
  }

  // Phase 2 on one private oracle; verdicts match the monolithic build's.
  std::vector<PairIndex> found;
  decide_pairs(netlist, rare_nets, config, unresolved, found, local);
  for (const auto& [i, j] : found) matrix.set(i, j);
  if (stats != nullptr) *stats = local;
  return matrix;
}

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

  if (config.shard_count >= 2 && n > 0) {
    // Sharded build: deterministic row-range shards, each a full-width
    // partial matrix, merged by ORing rows. The shard plan depends only on
    // (n, shard_count), so the result is independent of the pool size and
    // identical to the monolithic matrix.
    const auto ranges = compatibility_shard_ranges(n, config.shard_count);
    std::vector<CompatibilityMatrix> partials(ranges.size());
    std::vector<CompatibilityBuildStats> shard_stats(ranges.size());
    auto build_one = [&](std::size_t s) {
      partials[s] =
          build_compatibility_shard(netlist, rare_nets, config, signatures,
                                    ranges[s].first, ranges[s].second, &shard_stats[s]);
    };
    if (pool != nullptr && pool->thread_count() > 1 && ranges.size() > 1) {
      pool->parallel_for(ranges.size(), build_one);
    } else {
      for (std::size_t s = 0; s < ranges.size(); ++s) build_one(s);
    }
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      matrix.merge_or(partials[s]);
      local_stats.sim_resolved += shard_stats[s].sim_resolved;
      local_stats.sat_sat += shard_stats[s].sat_sat;
      local_stats.sat_unsat += shard_stats[s].sat_unsat;
      local_stats.timeout_pairs += shard_stats[s].timeout_pairs;
      local_stats.sat_queries += shard_stats[s].sat_queries;
    }
    if (signatures_out != nullptr) *signatures_out = std::move(signatures);
    local_stats.unsat_singletons = finalize_compatibility(matrix);
    local_stats.build_seconds = watch.elapsed_seconds();
    if (stats != nullptr) *stats = local_stats;
    return matrix;
  }

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

  // A rare net whose singleton is unsatisfiable can never participate in a
  // trigger: clear its whole row so masks and cliques ignore it.
  local_stats.unsat_singletons = finalize_compatibility(matrix);

  local_stats.build_seconds = watch.elapsed_seconds();
  if (stats != nullptr) *stats = local_stats;
  return matrix;
}

}  // namespace deterrent::analysis
