#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "analysis/rare_nets.hpp"
#include "netlist/netlist.hpp"
#include "sat/oracle.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace deterrent::analysis {

/// Symmetric pairwise-compatibility relation over the rare nets: bit (i, j)
/// is set when one input pattern can drive rare nets i and j to their rare
/// values simultaneously. The diagonal bit records whether the singleton is
/// satisfiable at all.
///
/// This is the "compatibility info" of the paper's offline phase (Figure 4),
/// used both for action masking in the RL agent (§3.3) and as the sampling
/// graph of the TARMAC baseline.
class CompatibilityMatrix {
 public:
  CompatibilityMatrix() = default;
  explicit CompatibilityMatrix(std::size_t n);

  /// Reconstructs a matrix from serialized rows (CompatibilityArtifact load
  /// path). Rows must be square and symmetric; violations throw
  /// deterrent::Error, since they indicate a corrupt or hand-edited artifact.
  static CompatibilityMatrix from_rows(std::vector<util::BitVec> rows);

  // Copy/move are explicit because the edge-count cache is atomic (atomics
  // are neither copyable nor movable).
  CompatibilityMatrix(const CompatibilityMatrix& other);
  CompatibilityMatrix(CompatibilityMatrix&& other) noexcept;
  CompatibilityMatrix& operator=(const CompatibilityMatrix& other);
  CompatibilityMatrix& operator=(CompatibilityMatrix&& other) noexcept;

  std::size_t size() const { return rows_.size(); }

  bool compatible(std::uint32_t i, std::uint32_t j) const {
    return rows_[i].test(j);
  }
  bool singleton_satisfiable(std::uint32_t i) const { return rows_[i].test(i); }

  /// Row i as a bitset over rare-net indices (includes the diagonal bit).
  const util::BitVec& row(std::uint32_t i) const { return rows_[i]; }

  void set(std::uint32_t i, std::uint32_t j, bool value = true);

  /// Number of compatible unordered pairs (i < j). The O(n²/64) popcount is
  /// computed once and cached. Concurrent const reads are safe (racing
  /// first callers recompute the same value into an atomic); set()
  /// invalidates and, like all writes, must not race with readers.
  std::size_t edge_count() const;

  /// Mean degree (compatible partners per rare net), excluding the diagonal.
  double average_degree() const;

 private:
  std::vector<util::BitVec> rows_;
  mutable std::atomic<std::size_t> cached_edge_count_{0};
  mutable std::atomic<bool> edge_count_valid_{false};
};

struct CompatibilityBuildConfig {
  /// Random patterns for the co-occurrence pre-filter. A pair witnessed
  /// together in simulation is proven compatible without any SAT call.
  std::size_t sim_patterns = 1 << 14;
  /// Conflict budget per SAT pair query; exhausted budget conservatively
  /// reports "incompatible" (counted in timeout_pairs).
  std::int64_t sat_conflict_budget = 50000;
};

struct CompatibilityBuildStats {
  std::size_t pair_count = 0;          ///< unordered pairs examined
  std::size_t sim_resolved = 0;        ///< proven compatible by co-occurrence
  /// Proven compatible by SAT: a query's verdict or an earlier query's model.
  std::size_t sat_sat = 0;
  std::size_t sat_unsat = 0;           ///< proven incompatible by SAT
  std::size_t timeout_pairs = 0;       ///< budget exhausted (treated incompatible)
  std::size_t unsat_singletons = 0;    ///< rare nets with no satisfying pattern
  /// Solver calls phase 2 made in this run. Runtime-only: never serialized,
  /// so a build hydrated from a cached artifact reports 0. Depends on the
  /// pair schedule (thread count); the matrix and the verdict counts above
  /// do not.
  std::size_t sat_queries = 0;
  double build_seconds = 0.0;
};

/// Builds the pairwise matrix. Parallelized across `pool` with one SAT oracle
/// per worker, mirroring the paper's 64-process offline computation (§3.3).
/// Each Sat model also answers the later pairs it proves (see docs/sat.md).
/// The matrix and verdict counts are deterministic for a fixed rng seed
/// regardless of thread count; stats->sat_queries is not.
///
/// `signatures_out`, when non-null, receives the phase-1 activation
/// signatures (one per rare net, pattern-indexed) so downstream consumers —
/// notably the RL environment's simulation-witness shortcut — can reuse the
/// simulation evidence without re-simulating.
CompatibilityMatrix build_compatibility(const netlist::Netlist& netlist,
                                        std::span<const RareNet> rare_nets,
                                        const CompatibilityBuildConfig& config,
                                        util::Rng& rng, util::ThreadPool* pool = nullptr,
                                        CompatibilityBuildStats* stats = nullptr,
                                        std::vector<util::BitVec>* signatures_out = nullptr);

/// Per-rare-net activation signatures under `pattern_count` random patterns:
/// bit p of signature i is set when pattern p drives rare net i to its rare
/// value. Shared by the matrix builder and by MERO-style counting. Blocks are
/// striped across `pool` when given (signature words are per-block, so the
/// result is deterministic for a fixed rng seed regardless of thread count).
std::vector<util::BitVec> rare_activation_signatures(
    const netlist::Netlist& netlist, std::span<const RareNet> rare_nets,
    std::size_t pattern_count, util::Rng& rng, util::ThreadPool* pool = nullptr);

}  // namespace deterrent::analysis
