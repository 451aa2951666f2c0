#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sat/solver.hpp"
#include "util/thread_pool.hpp"

namespace deterrent::sat {

/// Knobs for a clause-sharing solver portfolio.
struct PortfolioConfig {
  /// Number of solver clones. 1 degenerates to a plain (bit-reproducible)
  /// single solver.
  std::size_t solvers = 4;
  /// Learnt clauses with LBD <= this cap are exchanged between clones;
  /// 0 disables sharing entirely.
  std::uint32_t share_lbd_cap = 6;
  /// Hard cap on clauses held by the exchange; past it new exports are
  /// counted as dropped (bounds memory on pathological workloads).
  std::size_t share_capacity = 1 << 14;
  /// At most this many clauses leave one clone per query.
  std::size_t export_cap_per_solve = 64;
  /// Seed for clone diversification (phases, random branching).
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Random-decision probability on clones >= 1 (clone 0 stays vanilla so a
  /// 1-clone portfolio matches the plain solver decision-for-decision).
  double random_branch_prob = 0.02;
  /// Run one inprocessing pass per clone right after encoding.
  bool inprocess = false;
  Solver::InprocessConfig passes;
};

/// Lock-light learnt-clause exchange: clones publish and fetch only at query
/// boundaries, so the mutex is taken O(1) times per query and never inside
/// search. The pool is append-only; consumers keep a cursor into the monotone
/// published stream.
class ClauseExchange {
 public:
  explicit ClauseExchange(std::size_t capacity) : capacity_(capacity) {}

  /// Appends clauses up to capacity (excess counts as dropped). Returns the
  /// number accepted. This is the `sat.portfolio.share` fault site.
  std::size_t publish(std::size_t origin, std::vector<Clause>&& clauses);

  /// Copies every clause published after `cursor` by a clone other than
  /// `consumer` into `out`; returns the cursor to pass next time.
  std::size_t fetch(std::size_t cursor, std::size_t consumer,
                    std::vector<Clause>& out) const;

  std::size_t published() const;
  std::uint64_t dropped() const;

 private:
  struct Entry {
    std::size_t origin;
    Clause clause;
  };
  mutable std::mutex mutex_;
  std::vector<Entry> pool_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

/// N diversified solver clones over one encoding, cooperating through the
/// clause exchange. solve_batch() has the clones race down one shared query
/// list (each query is solved by exactly one clone), importing peers'
/// learnts between queries — the compatibility-matrix workhorse.
///
/// Answers (Sat/Unsat) are deterministic; which clone answers, and Unknown
/// classification under a conflict budget, may vary with scheduling when a
/// thread pool is used. The sequential fallback (no pool) is fully
/// deterministic including clause exchange.
class Portfolio {
 public:
  /// Called once per clone at construction to encode the formula (and freeze
  /// assumption variables when inprocessing is on).
  using EncodeFn = std::function<void(Solver&, std::size_t clone)>;

  struct Query {
    std::vector<Lit> assumptions;
    std::int64_t conflict_budget = -1;
  };

  Portfolio(const PortfolioConfig& config, const EncodeFn& encode);

  std::size_t solver_count() const { return solvers_.size(); }
  Solver& solver(std::size_t i) { return *solvers_[i]; }
  const Solver& solver(std::size_t i) const { return *solvers_[i]; }

  /// Solves each query once; results[i] answers queries[i]. Queries are
  /// distributed dynamically across clones (over `pool` when it has >1
  /// thread, else round-robin sequentially).
  std::vector<Solver::Result> solve_batch(std::span<const Query> queries,
                                          util::ThreadPool* pool = nullptr);

  struct ShareStats {
    std::uint64_t exported = 0;   ///< clauses clones offered for exchange
    std::uint64_t imported = 0;   ///< peer clauses attached across all clones
    std::uint64_t published = 0;  ///< clauses accepted by the exchange
    std::uint64_t dropped = 0;    ///< clauses refused (capacity)
  };
  ShareStats share_stats() const;

 private:
  bool sharing_enabled() const {
    return solvers_.size() > 1 && config_.share_lbd_cap > 0;
  }
  void import_fresh(std::size_t clone);
  void publish_exports(std::size_t clone);

  PortfolioConfig config_;
  std::vector<std::unique_ptr<Solver>> solvers_;
  std::vector<std::size_t> cursors_;  // per-clone exchange cursor
  ClauseExchange exchange_;
  std::atomic<std::size_t> next_query_{0};
};

}  // namespace deterrent::sat
