#pragma once

#include <optional>
#include <span>
#include <vector>

#include "analysis/rare_nets.hpp"
#include "netlist/netlist.hpp"
#include "sat/oracle.hpp"
#include "util/rng.hpp"

namespace deterrent::trojan {

/// A combinational hardware Trojan in the paper's model (§1.1, Figure 1):
/// the trigger fires when every select net takes its rare value
/// simultaneously; the payload then flips `payload_net`.
struct Trojan {
  std::vector<analysis::RareNet> trigger;  ///< select nets + rare values
  netlist::NetId payload_net = 0;          ///< net whose value the payload flips

  unsigned width() const { return static_cast<unsigned>(trigger.size()); }
};

struct TrojanSampleConfig {
  unsigned width = 4;        ///< trigger width (Figure 5 sweeps 2–12)
  std::size_t count = 100;   ///< HTs per benchmark, as in §4.1
  /// Candidate triggers whose joint satisfiability check exceeds this budget
  /// are discarded like unsatisfiable ones. Such a skip is conservative, not
  /// a proof: each shows in the caller's `oracle.solver_stats().unknowns`.
  std::int64_t sat_conflict_budget = 100000;
  /// Give up after this many rejected candidates per accepted one.
  std::size_t max_attempts_per_trojan = 500;
};

/// Samples `config.count` distinct, SAT-validated random Trojans whose
/// triggers draw from `rare_nets` — the "100 random four-width triggered
/// HT-infected netlists, verified valid using a Boolean satisfiability
/// check" of §4.1. Payload nets are chosen so that inserting the payload
/// creates no combinational cycle. Returns fewer than `count` only when the
/// circuit genuinely runs out of satisfiable trigger combinations, or when
/// the conflict budget skipped candidates: a trigger whose check ends Unknown
/// is dropped and counted in `oracle.solver_stats().unknowns` (compare the
/// count before and after the call).
std::vector<Trojan> sample_trojans(const netlist::Netlist& netlist,
                                   std::span<const analysis::RareNet> rare_nets,
                                   const TrojanSampleConfig& config,
                                   sat::NetlistOracle& oracle, util::Rng& rng);

/// Builds the HT-infected netlist: an AND tree over the (possibly inverted)
/// select nets forms the trigger; the payload XORs the trigger into
/// `payload_net`, rewiring all of its consumers. Net ids of the original
/// netlist are preserved. `out_trigger_net`, if non-null, receives the id of
/// the trigger output in the returned netlist.
netlist::Netlist apply_trojan(const netlist::Netlist& golden, const Trojan& trojan,
                              netlist::NetId* out_trigger_net = nullptr);

/// True when `candidate_payload` can host the payload without creating a
/// combinational cycle (no select net lies in its transitive fanout).
bool payload_is_safe(const netlist::Netlist& netlist, netlist::NetId candidate_payload,
                     std::span<const analysis::RareNet> trigger);

}  // namespace deterrent::trojan
