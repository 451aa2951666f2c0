#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace deterrent::util::faults {

// ---------------------------------------------------------------------------
// Process-wide deterministic fault-injection registry.
//
// Library code marks its failure-prone boundaries with named sites:
//
//   DETERRENT_FAULT_POINT("sat.query");
//
// When no fault is armed the macro is a single relaxed atomic load — cheap
// enough to leave compiled into release builds. When armed (programmatically
// via arm()/arm_from_string(), or at process start from the DETERRENT_FAULTS
// environment variable) a site fires seeded, reproducible failures so the
// retry/quarantine/watchdog machinery can be driven on demand:
//
//   Throw         deterrent::FaultInjectedError from the site
//   TornTruncate  write sites only: the artifact reaches its final name
//                 truncated, as if power was lost after the rename
//   TornBitFlip   write sites only: one payload byte is flipped in the
//                 renamed file (silent corruption the CRC must catch)
//   Hang          the site stalls (sliced sleeps, polling the watchdog); a
//                 WatchdogScope deadline converts the stall into a
//                 deterrent::TimeoutError, no deadline lets it resolve
//
// DETERRENT_FAULTS grammar (';'-separated clauses, parsed once at startup):
//
//   seed=<u64>                          base seed for probabilistic firing
//   <site>=throw@<n>                    throw on exactly the Nth hit (1-based)
//   <site>=throw%<p>                    throw each hit with probability p
//   <site>=torn-truncate@<n>            torn write on the Nth hit
//   <site>=torn-flip@<n>                bit-flipped write on the Nth hit
//   <site>=hang@<n>:<ms>                stall <ms> milliseconds on the Nth hit
//
//   e.g. DETERRENT_FAULTS="seed=7;sat.query=throw%0.001;serialize.write_artifact=torn-flip@2"
//
// Probabilistic firing hashes (seed, site, hit index), so a given seed fires
// on the same hit numbers on every run regardless of thread interleaving.
// Hit counters are per site and process-wide (atomic), shared across threads.
// ---------------------------------------------------------------------------

enum class Action : std::uint8_t { None, Throw, TornTruncate, TornBitFlip, Hang };

struct FaultSpec {
  Action action = Action::None;
  /// Fire on exactly the Nth hit (1-based). 0 = fire per-hit with
  /// `probability` instead.
  std::uint64_t nth = 0;
  double probability = 0.0;
  /// Hang only: how long the site stalls before resolving on its own.
  std::uint32_t hang_ms = 1000;
};

/// The sites compiled into the library, for harnesses that want to force
/// every one of them (the fault-injection soak does exactly that).
const std::vector<std::string>& known_sites();

/// Arms `spec` at `site` (replacing any previous spec) and marks the
/// registry armed. `seed` feeds probabilistic firing at this site. Throws
/// deterrent::PermanentError when `site` is not in known_sites(): a spec
/// there would never fire.
void arm(const std::string& site, const FaultSpec& spec, std::uint64_t seed = 0);

/// Parses the DETERRENT_FAULTS grammar above. Throws deterrent::
/// PermanentError on a malformed clause or a site not in known_sites() (a
/// typo must not silently disable the campaign's fault plan).
void arm_from_string(const std::string& grammar);

/// Disarms every site and resets all hit/fire counters.
void disarm_all();

/// Hits observed at `site` since the last disarm_all() (counted only while
/// the registry is armed).
std::uint64_t hit_count(const std::string& site);
/// Faults actually fired at `site` (throws, torn writes, hangs).
std::uint64_t fired_count(const std::string& site);

namespace detail {

extern std::atomic<bool> g_armed;

/// Slow path behind DETERRENT_FAULT_POINT: counts the hit and fires the
/// armed action, throwing FaultInjectedError / TimeoutError as configured.
void on_hit(const char* site);

/// Write-site variant: Throw/Hang fire as usual; TornTruncate/TornBitFlip
/// are returned (with a deterministic `corrupt_seed` selecting the damage)
/// for the writer to apply to the file it is producing.
struct WriteFault {
  Action action = Action::None;
  std::uint64_t corrupt_seed = 0;
};
WriteFault on_write(const char* site);

}  // namespace detail

/// True when any fault is armed. One relaxed atomic load — the entire
/// disabled-path cost of a fault point.
inline bool armed() { return detail::g_armed.load(std::memory_order_relaxed); }

}  // namespace deterrent::util::faults

/// Named fault-injection site: a single relaxed atomic load when the registry
/// is disarmed, a potential injected failure when armed. `site` must be a
/// string literal (it names the site in specs, counters, and error messages).
#define DETERRENT_FAULT_POINT(site)                    \
  do {                                                 \
    if (::deterrent::util::faults::armed())            \
      ::deterrent::util::faults::detail::on_hit(site); \
  } while (0)
