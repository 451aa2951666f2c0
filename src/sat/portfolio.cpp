#include "sat/portfolio.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/faults.hpp"
#include "util/rng.hpp"
#include "util/watchdog.hpp"

namespace deterrent::sat {

std::size_t ClauseExchange::publish(std::size_t origin,
                                    std::vector<Clause>&& clauses) {
  // Fires even on an empty publish: the site models "the sharing channel
  // broke", not "a clause was lost", so the fault harness can hit it on
  // every query boundary.
  DETERRENT_FAULT_POINT("sat.portfolio.share");
  util::WatchdogScope::poll("sat.portfolio.share");
  if (clauses.empty()) return 0;
  std::lock_guard lock(mutex_);
  std::size_t accepted = 0;
  for (Clause& c : clauses) {
    if (pool_.size() >= capacity_) {
      ++dropped_;
      continue;
    }
    pool_.push_back({origin, std::move(c)});
    ++accepted;
  }
  return accepted;
}

std::size_t ClauseExchange::fetch(std::size_t cursor, std::size_t consumer,
                                  std::vector<Clause>& out) const {
  std::lock_guard lock(mutex_);
  for (; cursor < pool_.size(); ++cursor)
    if (pool_[cursor].origin != consumer) out.push_back(pool_[cursor].clause);
  return cursor;
}

std::size_t ClauseExchange::published() const {
  std::lock_guard lock(mutex_);
  return pool_.size();
}

std::uint64_t ClauseExchange::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

Portfolio::Portfolio(const PortfolioConfig& config, const EncodeFn& encode)
    : config_(config), exchange_(config.share_capacity) {
  DETERRENT_ASSERT(config.solvers >= 1, "portfolio needs at least one solver");
  solvers_.reserve(config.solvers);
  cursors_.assign(config.solvers, 0);
  for (std::size_t i = 0; i < config.solvers; ++i) {
    auto solver = std::make_unique<Solver>();
    encode(*solver, i);
    if (i > 0) {
      // Diversification: clone 0 stays vanilla (bit-identical to a plain
      // Solver); the rest spread out over phases, restart cadence, and a
      // sprinkle of random decisions.
      util::Rng rng(config.seed + 0x9e37u * i);
      solver->randomize_phases(rng);
      solver->set_random_branch(config.random_branch_prob, config.seed ^ i);
      solver->set_restart_base(
          static_cast<std::uint32_t>(100 + 37 * i + 13 * (i * i % 7)));
    }
    if (config.inprocess) solver->inprocess(config.passes);
    if (sharing_enabled())
      solver->set_share_export(config.share_lbd_cap, config.export_cap_per_solve);
    solvers_.push_back(std::move(solver));
  }
}

void Portfolio::import_fresh(std::size_t clone) {
  if (!sharing_enabled()) return;
  std::vector<Clause> fresh;
  cursors_[clone] = exchange_.fetch(cursors_[clone], clone, fresh);
  Solver& s = *solvers_[clone];
  for (const Clause& c : fresh)
    s.import_clause(c, static_cast<std::uint32_t>(c.size()));
}

void Portfolio::publish_exports(std::size_t clone) {
  if (!sharing_enabled()) return;
  exchange_.publish(clone, solvers_[clone]->take_exported());
}

std::vector<Solver::Result> Portfolio::solve_batch(std::span<const Query> queries,
                                                   util::ThreadPool* pool) {
  if (sharing_enabled()) {
    // Tick the share fault site once per batch even when the query list is
    // empty, so fault campaigns reach it deterministically.
    DETERRENT_FAULT_POINT("sat.portfolio.share");
    util::WatchdogScope::poll("sat.portfolio.share");
  }
  std::vector<Solver::Result> results(queries.size(), Solver::Result::Unknown);
  if (queries.empty()) return results;

  const auto run_query = [&](const std::size_t clone, const std::size_t q) {
    import_fresh(clone);
    results[q] =
        solvers_[clone]->solve(queries[q].assumptions, queries[q].conflict_budget);
    publish_exports(clone);
  };

  if (pool != nullptr && pool->thread_count() > 1 && solvers_.size() > 1 &&
      queries.size() > 1) {
    next_query_.store(0, std::memory_order_relaxed);
    const std::size_t n_queries = queries.size();
    for (std::size_t clone = 0; clone < solvers_.size(); ++clone) {
      pool->submit([this, n_queries, &run_query, clone] {
        for (;;) {
          const std::size_t q = next_query_.fetch_add(1, std::memory_order_relaxed);
          if (q >= n_queries) break;
          run_query(clone, q);
        }
      });
    }
    pool->wait_idle();
  } else {
    // Sequential fallback: round-robin so clause exchange still happens, in a
    // fully deterministic order.
    for (std::size_t q = 0; q < queries.size(); ++q)
      run_query(q % solvers_.size(), q);
  }
  return results;
}

Portfolio::ShareStats Portfolio::share_stats() const {
  ShareStats stats;
  for (const auto& s : solvers_) {
    stats.exported += s->stats().shared_exported;
    stats.imported += s->stats().shared_imported;
  }
  stats.published = exchange_.published();
  stats.dropped = exchange_.dropped();
  return stats;
}

}  // namespace deterrent::sat
