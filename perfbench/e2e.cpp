// End-to-end DETERRENT benchmark: whole pipelines (lint → rare nets →
// compatibility → train → extract) on fixed profiles, closed loop, one
// pipeline at a time.
//
//   deterrent_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file.jsonl>]
//
// --trace 0 prints the end-to-end metrics (medians over the pipelines that
// fit in --seconds); --trace 1 runs untraced/traced pipeline pairs and prints
// the per-layer metrics derived from spans recorded around the library's
// public calls. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it ("context {...}") records host and build context.
// Exit code 0 only when every output check passed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "bench_gen/library.hpp"
#include "core/pipeline.hpp"
#include "sat/oracle.hpp"
#include "sim/engine.hpp"
#include "sim/kernels/dispatch.hpp"
#include "tracer.hpp"
#include "trojan/coverage.hpp"
#include "trojan/trojan.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace deterrent;
using perfbench::Tracer;

namespace {

// ------------------------------------------------------------ workloads ----

/// Everything but the seed is fixed per workload. Every workload trains with
/// end-of-episode rewards on the vectorized collector; thread counts are
/// explicit and never exceed the four cores the benchmark is sized for.
struct Workload {
  const char* name;
  const char* profile;
  std::size_t updates;
  std::size_t k_patterns;
  /// c2670's offline phase is ~10 ms of work: one thread does it as fast as
  /// four and without the thread wake-ups that double its time on a busy host.
  std::size_t offline_threads;
};

/// mips16-unsat is runnable but not listed in BENCHMARK.json: at a training
/// budget that fits a run, its coverage is a few percent and swings by more
/// than any allowed bound from seed to seed (see NOTES.md).
constexpr Workload kWorkloads[] = {
    {"c2670-rl", "c2670_like", 40, 32, 1},
    {"s15850-sat", "s15850_like", 8, 64, 4},
    {"mips16-unsat", "mips16_like", 4, 32, 4},
};

constexpr std::size_t kRolloutLanes = 16;
constexpr std::size_t kEpisodesPerUpdate = 16;

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 5;
/// Untraced pipelines per run, at least; more while --seconds allows.
constexpr std::size_t kMinPipelines = 3;

/// Coverage is measured against 2000 SAT-validated width-4 Trojans — twenty
/// times the paper's population of 100, whose binomial sampling error alone
/// (about 5 points at 50% coverage) would swamp any usable bound.
constexpr unsigned kTrojanWidth = 4;
constexpr std::size_t kTrojanCount = 2000;
constexpr std::uint64_t kTrojanSeedSalt = 0x7a0a5eedULL;

core::DeterrentConfig make_config(const Workload& w, std::uint64_t seed) {
  core::DeterrentConfig config;
  config.seed = seed;
  config.offline_threads = w.offline_threads;
  config.updates = w.updates;
  config.k_patterns = w.k_patterns;
  config.env.reward_mode = core::RewardMode::EndOfEpisode;
  config.ppo.rollout_lanes = kRolloutLanes;
  config.ppo.episodes_per_update = kEpisodesPerUpdate;
  return config;
}

// -------------------------------------------------------------- helpers ----

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]) of a sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void fold(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  void fold_double(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    fold(u);
  }
  void fold_bits(const util::BitVec& bits) {
    fold(bits.size());
    for (const std::uint64_t w : bits.words()) fold(w);
  }
};

// ---------------------------------------------------------------- setup ----

/// The inputs one run evaluates against: the profile netlist (with its scan
/// view) and a SAT-validated Trojan population sampled from a rare-net census
/// that is independent of the pipeline's own rare-net stage.
struct Setup {
  bench_gen::Benchmark bench;
  std::vector<trojan::Trojan> trojans;
  std::uint64_t digest = 0;
  double seconds = 0.0;
};

std::unique_ptr<Setup> make_setup(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  const auto scope = [&](const char* name) {
    return tracer != nullptr ? std::make_unique<Tracer::Scope>(*tracer, name) : nullptr;
  };
  util::Stopwatch watch;
  auto root = scope("setup");
  auto setup = std::make_unique<Setup>();
  {
    auto s = scope("bench_gen.load");
    setup->bench = bench_gen::load_benchmark(w.profile);
  }
  const netlist::Netlist& comb = setup->bench.scan.comb;
  std::vector<analysis::RareNet> census;
  {
    auto s = scope("analysis.census");
    util::Rng rng(seed);
    util::ThreadPool workers(w.offline_threads);
    census = analysis::find_rare_nets(comb, analysis::RareNetConfig{}, rng, &workers);
  }
  {
    auto s = scope("trojan.sample");
    trojan::TrojanSampleConfig tcfg;
    tcfg.width = kTrojanWidth;
    tcfg.count = kTrojanCount;
    sat::NetlistOracle oracle(comb);
    util::Rng rng(seed ^ kTrojanSeedSalt);
    setup->trojans = trojan::sample_trojans(comb, census, tcfg, oracle, rng);
  }
  root.reset();
  setup->seconds = watch.elapsed_seconds();

  Digest d;
  d.fold(comb.net_count());
  for (const auto& t : setup->trojans) {
    d.fold(t.payload_net);
    for (const auto& rn : t.trigger) d.fold((std::uint64_t{rn.net} << 1) | rn.rare_value);
  }
  setup->digest = d.h;
  return setup;
}

// ------------------------------------------------------------- pipeline ----

/// What one pipeline produced, plus its timings and work counters.
struct PipelineRun {
  double time_to_patterns_s = 0.0;
  double offline_s = 0.0;
  double train_s = 0.0;
  double cpu_s = 0.0;
  std::size_t stage_calls = 0;
  std::size_t stage_failures = 0;
  std::vector<analysis::RareNet> rare_nets;
  analysis::CompatibilityBuildStats compat;
  std::vector<core::TrainingSnapshot> history;
  std::size_t pool_size = 0;
  std::size_t max_set_size = 0;
  sim::PatternSet patterns;
  std::vector<util::BitVec> extracted_sets;
};

void count_stage(PipelineRun& run, core::StageStatus status) {
  ++run.stage_calls;
  if (status != core::StageStatus::Complete) ++run.stage_failures;
}

/// One untraced pipeline, timed from constructing the Pipeline through the
/// end of run_extract.
PipelineRun run_pipeline(const netlist::Netlist& comb, const core::DeterrentConfig& config) {
  PipelineRun run;
  const double cpu0 = cpu_seconds();
  util::Stopwatch watch;
  core::Pipeline p(comb, config);
  count_stage(run, p.run_lint());
  count_stage(run, p.run_rare_nets());
  count_stage(run, p.run_compatibility());
  run.offline_s = watch.elapsed_seconds();
  count_stage(run, p.run_train());
  run.train_s = watch.elapsed_seconds() - run.offline_s;
  count_stage(run, p.run_extract());
  run.time_to_patterns_s = watch.elapsed_seconds();
  run.cpu_s = cpu_seconds() - cpu0;

  run.rare_nets.assign(p.rare_nets().begin(), p.rare_nets().end());
  run.compat = p.compat_stats();
  run.history = p.history();
  run.pool_size = p.pool().size();
  run.max_set_size = p.pool().max_set_size();
  run.patterns = p.patterns();
  run.extracted_sets = p.extracted_sets();
  return run;
}

/// Counters of a traced pass that spans cannot carry.
struct TraceCounters {
  std::uint64_t train_sat_queries = 0;
  std::uint64_t witness_hits = 0;
  std::uint64_t total_steps = 0;
  bool signatures_match = false;
};

/// The same pipeline with spans around every stage call, every
/// PpoTrainer::update, and every VectorEnv::step/reset_lane. Training runs on
/// a PpoTrainer built here over the pipeline's rare nets, matrix, and witness
/// signatures, with the pipeline's config and seed, so that its environment
/// can sit behind the timing decorator; the trained policy and pool are then
/// adopted back into the pipeline for extraction.
PipelineRun run_traced(const netlist::Netlist& comb, const core::DeterrentConfig& config,
                       Tracer& tracer, TraceCounters& counters) {
  PipelineRun run;
  // Declared outside the pipeline span, so that, as in the untraced run,
  // tearing the pipeline and trainer down is not timed.
  std::optional<core::Pipeline> p;
  core::DistinctSetPool pool;
  std::unique_ptr<rl::PpoTrainer> trainer;
  const core::CompatibleSetVectorEnv* env = nullptr;
  const double cpu0 = cpu_seconds();
  util::Stopwatch watch;
  {
    Tracer::Scope root(tracer, "pipeline");
    p.emplace(comb, config);
    {
      Tracer::Scope s(tracer, "analysis.lint");
      count_stage(run, p->run_lint());
    }
    {
      Tracer::Scope s(tracer, "analysis.rare_nets");
      count_stage(run, p->run_rare_nets());
    }
    {
      Tracer::Scope s(tracer, "analysis.compat");
      count_stage(run, p->run_compatibility());
    }
    run.offline_s = watch.elapsed_seconds();

    {
      Tracer::Scope s(tracer, "core.train");
      core::EnvConfig env_config = config.env;
      env_config.witness_signatures = &p->witness_signatures();
      const auto factory = [&](std::size_t) -> std::unique_ptr<rl::Env> {
        return std::make_unique<core::CompatibleSetEnv>(comb, p->rare_nets(), p->matrix(),
                                                        env_config, &pool);
      };
      const auto vector_factory = [&](std::size_t lanes) -> std::unique_ptr<rl::VectorEnv> {
        auto inner = std::make_unique<core::CompatibleSetVectorEnv>(
            comb, p->rare_nets(), p->matrix(), env_config, &pool, lanes);
        env = inner.get();
        return std::make_unique<perfbench::TimedVectorEnv>(std::move(inner), tracer);
      };
      trainer = std::make_unique<rl::PpoTrainer>(factory, config.ppo, config.seed,
                                                 vector_factory);
      util::Stopwatch train_watch;
      for (std::size_t u = 0; u < p->effective_updates(); ++u) {
        core::TrainingSnapshot snap;
        {
          Tracer::Scope update(tracer, "rl.update");
          snap.ppo = trainer->update();
        }
        snap.pool_size = pool.size();
        snap.max_set_size = pool.max_set_size();
        snap.cumulative_steps = trainer->total_steps();
        snap.cumulative_episodes = trainer->total_episodes();
        snap.sat_queries = env->sat_queries();
        snap.elapsed_seconds = train_watch.elapsed_seconds();
        run.history.push_back(snap);
      }
      ++run.stage_calls;  // the train stage, run here instead of run_train
    }
    run.train_s = watch.elapsed_seconds() - run.offline_s;
    {
      Tracer::Scope s(tracer, "bench.adopt_policy");
      core::PolicyArtifact policy;
      policy.netlist_fingerprint = p->netlist_fingerprint();
      policy.rare_hash = p->export_rare_nets().rare_hash();
      policy.trainer = trainer->state();
      policy.pool_sets = pool.k_largest(pool.size());
      policy.history = run.history;
      policy.train_seconds = run.train_s;
      p->adopt(std::move(policy));
    }
    {
      Tracer::Scope s(tracer, "core.extract");
      count_stage(run, p->run_extract());
    }
    counters.train_sat_queries = env->sat_queries();
    counters.witness_hits = env->witness_hits();
    counters.total_steps = trainer->total_steps();
  }
  run.time_to_patterns_s = watch.elapsed_seconds();
  run.cpu_s = cpu_seconds() - cpu0;

  // Phase 1 of the compatibility build, re-run on its own from the RNG state
  // the rare-net stage handed over: the same call with the same inputs, so
  // its span times the build's simulation share, and its output must equal
  // the pipeline's witness signatures. Outside the pipeline span.
  {
    util::Rng rng;
    rng.set_state(p->export_rare_nets().rng_state_after);
    util::ThreadPool workers(config.offline_threads);
    std::vector<util::BitVec> signatures;
    {
      Tracer::Scope s(tracer, "sim.signatures");
      signatures = analysis::rare_activation_signatures(
          comb, p->rare_nets(), config.compat.sim_patterns, rng, &workers);
    }
    counters.signatures_match = signatures == p->witness_signatures();
  }

  run.rare_nets.assign(p->rare_nets().begin(), p->rare_nets().end());
  run.compat = p->compat_stats();
  run.pool_size = pool.size();
  run.max_set_size = pool.max_set_size();
  run.patterns = p->patterns();
  run.extracted_sets = p->extracted_sets();
  return run;
}

// ---------------------------------------------------------------- check ----

/// Output checks that do not go through the SAT extractor.
struct Checked {
  std::size_t patterns_checked = 0;
  std::size_t patterns_failed = 0;
  double coverage_pct = 0.0;
  std::uint64_t digest = 0;
};

Checked check_outputs(const Setup& setup, const PipelineRun& run, const sim::Engine& engine,
                      Tracer* tracer) {
  Checked c;
  // Every extracted pattern, re-simulated, must drive every rare net of its
  // extracted set to the rare value.
  sim::EvalBuffer buf;
  const std::size_t n = run.patterns.pattern_count();
  if (run.extracted_sets.size() != n) c.patterns_failed += 1;
  for (std::size_t i = 0; i < n && i < run.extracted_sets.size(); ++i) {
    const auto values = engine.evaluate_pattern(buf, run.patterns.pattern(i));
    bool ok = run.extracted_sets[i].any();
    for (const std::uint32_t idx : run.extracted_sets[i].to_indices()) {
      const auto& rn = run.rare_nets[idx];
      ok = ok && values[rn.net] == rn.rare_value;
    }
    ++c.patterns_checked;
    if (!ok) ++c.patterns_failed;
  }

  std::optional<Tracer::Scope> span;
  if (tracer != nullptr) span.emplace(*tracer, "sim.coverage");
  const auto coverage = trojan::evaluate_coverage(setup.bench.scan.comb, setup.trojans,
                                                  run.patterns);
  span.reset();
  c.coverage_pct = coverage.coverage_percent();

  Digest d;
  d.fold(n);
  for (std::size_t i = 0; i < n; ++i) d.fold_bits(run.patterns.pattern(i));
  for (const auto& set : run.extracted_sets) d.fold_bits(set);
  for (const auto& snap : run.history) {
    d.fold(snap.ppo.steps);
    d.fold(snap.ppo.episodes);
    d.fold_double(snap.ppo.mean_episode_reward);
    d.fold_double(snap.ppo.total_loss);
  }
  c.digest = d.h;
  return c;
}

// --------------------------------------------------------------- report ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    if (std::find(problems.begin(), problems.end(), why) == problems.end())
      problems.push_back(why);
  }
  /// Ops of one pipeline: its stage calls, its compatibility pairs, and its
  /// checked patterns. Failures: non-Complete stages, pairs that exhausted
  /// their conflict budget, and patterns that failed re-simulation.
  void count_ops(const PipelineRun& run, const Checked& checked) {
    attempted += run.stage_calls + run.compat.pair_count + checked.patterns_checked;
    failed += run.stage_failures + run.compat.timeout_pairs + checked.patterns_failed;
    if (run.stage_failures > 0) fail("a pipeline stage did not complete");
    if (checked.patterns_failed > 0) fail("an extracted pattern failed re-simulation");
    if (checked.patterns_checked == 0) fail("no patterns were extracted");
  }
};

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

void print_context(const Workload& w, std::uint64_t seed, const sim::Engine& engine,
                   std::uint64_t digest, const std::map<std::string, double>& extra,
                   const std::map<std::string, std::vector<double>>& series) {
  const char* forced = std::getenv(sim::kernels::kForceIsaEnv);
  std::printf("context {\"workload\": \"%s\", \"profile\": \"%s\", \"seed\": %llu, "
              "\"nproc\": %zu, \"sim_isa\": \"%s\", \"force_isa_set\": %s, "
              "\"build_type\": \"%s\", \"offline_threads\": %zu, \"rollout_lanes\": %zu, "
              "\"updates\": %zu, \"episodes_per_update\": %zu, \"digest\": \"%016llx\"",
              w.name, w.profile, static_cast<unsigned long long>(seed), host_cpus(),
              sim::kernels::to_string(engine.isa()), forced != nullptr ? "true" : "false",
              PERFBENCH_BUILD_TYPE, w.offline_threads, kRolloutLanes, w.updates,
              kEpisodesPerUpdate, static_cast<unsigned long long>(digest));
  for (const auto& [k, v] : extra) std::printf(", \"%s\": %.10g", k.c_str(), v);
  for (const auto& [k, values] : series) {
    std::printf(", \"%s\": [", k.c_str());
    for (std::size_t i = 0; i < values.size(); ++i)
      std::printf("%s%.10g", i == 0 ? "" : ", ", values[i]);
    std::printf("]");
  }
  std::printf("}\n");
}

void print_report(const Report& r) {
  for (const auto& why : r.problems) std::fprintf(stderr, "deterrent_e2e: FAIL: %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------------- untraced ----

int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  Report report;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    auto s = make_setup(w, seed, nullptr);
    setup_s.push_back(s->seconds);
    if (setup && s->digest != setup->digest) report.fail("set-up is not deterministic");
    setup = std::move(s);
  }
  if (setup->trojans.size() != kTrojanCount) report.fail("Trojan population is short");
  const netlist::Netlist& comb = setup->bench.scan.comb;
  const sim::Engine engine(comb);
  const auto config = make_config(w, seed);

  std::map<std::string, std::vector<double>> samples;
  std::optional<std::uint64_t> digest;
  util::Stopwatch clock;
  std::size_t pipelines = 0;
  while (pipelines < kMinPipelines ||
         clock.elapsed_seconds() + median(samples["time_to_patterns_s"]) <= seconds) {
    const PipelineRun run = run_pipeline(comb, config);
    const Checked checked = check_outputs(*setup, run, engine, nullptr);
    report.count_ops(run, checked);
    if (digest.has_value() && *digest != checked.digest)
      report.fail("repetitions of one seed produced different outputs");
    digest = checked.digest;
    ++pipelines;

    samples["time_to_patterns_s"].push_back(run.time_to_patterns_s);
    samples["offline_s"].push_back(run.offline_s);
    samples["train_s"].push_back(run.train_s);
    samples["cpu_s"].push_back(run.cpu_s);
    samples["trigger_coverage_pct"].push_back(checked.coverage_pct);
    samples["pattern_count"].push_back(static_cast<double>(run.patterns.pattern_count()));
    samples["max_set_size"].push_back(static_cast<double>(run.max_set_size));
  }

  report.add("time_to_patterns_s", median(samples["time_to_patterns_s"]), "s");
  report.add("offline_s", median(samples["offline_s"]), "s");
  report.add("train_s", median(samples["train_s"]), "s");
  report.add("cpu_s", median(samples["cpu_s"]), "s");
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("trigger_coverage_pct", median(samples["trigger_coverage_pct"]), "%");
  report.add("pattern_count", median(samples["pattern_count"]), "count");
  report.add("max_set_size", median(samples["max_set_size"]), "count");

  print_context(w, seed, engine, *digest,
                {{"pipelines", static_cast<double>(pipelines)},
                 {"setup_reps", static_cast<double>(kSetupReps)}},
                {{"time_to_patterns_each_s", samples["time_to_patterns_s"]},
                 {"setup_each_s", setup_s}});
  print_report(report);
  return report.correct ? 0 : 1;
}

// --------------------------------------------------------------- traced ----

double sum_named(const Tracer& tracer, std::uint32_t pass, const char* name,
                 const std::vector<double>* self = nullptr) {
  double total = 0.0;
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].pass == pass && std::strcmp(spans[i].name, name) == 0)
      total += self != nullptr ? (*self)[i] : spans[i].seconds();
  return total;
}

std::size_t count_named(const Tracer& tracer, std::uint32_t pass, const char* name) {
  std::size_t n = 0;
  for (const auto& s : tracer.spans())
    if (s.pass == pass && std::strcmp(s.name, name) == 0) ++n;
  return n;
}

std::vector<double> durations_named(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const auto& s : tracer.spans())
    if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  return out;
}

/// The highest nearest-rank percentile with at least ten samples above it;
/// the maximum when the sample is too small for that (reported as 100).
double tail_percentile(std::size_t n) {
  if (n < 11) return 100.0;
  return std::floor(100.0 * static_cast<double>(n - 10) / static_cast<double>(n));
}

int run_traced_mode(const Workload& w, std::uint64_t seed, double seconds,
                    const std::string& trace_out) {
  Report report;
  Tracer tracer;
  tracer.set_pass(0);
  const auto setup = make_setup(w, seed, &tracer);
  if (setup->trojans.size() != kTrojanCount) report.fail("Trojan population is short");
  const netlist::Netlist& comb = setup->bench.scan.comb;
  const sim::Engine engine(comb);
  const auto config = make_config(w, seed);

  std::map<std::string, std::vector<double>> per_pass;
  std::vector<double> untraced_ttp;
  std::vector<double> traced_ttp;
  std::optional<std::uint64_t> digest;
  util::Stopwatch clock;
  std::uint32_t passes = 0;
  // At least two pairs, in alternating order, so that neither side of the
  // overhead estimate always runs first.
  while (passes < 2 || clock.elapsed_seconds() +
                               median(untraced_ttp) + median(traced_ttp) <= seconds) {
    const std::uint32_t pass = ++passes;
    // Untraced reference: the digest every traced pass must reproduce, and
    // the baseline of the tracing overhead.
    std::optional<Checked> plain_checked;
    const auto run_plain = [&] {
      const PipelineRun plain = run_pipeline(comb, config);
      plain_checked = check_outputs(*setup, plain, engine, nullptr);
      report.count_ops(plain, *plain_checked);
      untraced_ttp.push_back(plain.time_to_patterns_s);
    };
    if (pass % 2 == 1) run_plain();
    tracer.set_pass(pass);
    TraceCounters counters;
    const PipelineRun run = run_traced(comb, config, tracer, counters);
    const Checked checked = check_outputs(*setup, run, engine, &tracer);
    report.count_ops(run, checked);
    traced_ttp.push_back(run.time_to_patterns_s);
    if (pass % 2 == 0) run_plain();

    if (plain_checked->digest != checked.digest)
      report.fail("traced pass diverged from the untraced pipeline");
    if (digest.has_value() && *digest != checked.digest)
      report.fail("repetitions of one seed produced different outputs");
    digest = checked.digest;
    if (!counters.signatures_match)
      report.fail("re-run phase-1 signatures differ from the pipeline's");

    const auto self = tracer.self_seconds();
    const auto span = [&](const char* name) { return sum_named(tracer, pass, name); };
    const double compat_s = span("analysis.compat");
    const double signatures_s = span("sim.signatures");
    const double update_s = span("rl.update");
    const double step_s = span("core.env.step");
    const double env_s = step_s + span("core.env.reset_lane");
    const auto& cs = run.compat;
    const double queries = static_cast<double>(cs.sat_sat + cs.sat_unsat + cs.timeout_pairs);
    const double updates = static_cast<double>(run.history.size());
    auto& m = per_pass;
    m["analysis.lint_s"].push_back(span("analysis.lint"));
    m["analysis.rare_nets_s"].push_back(span("analysis.rare_nets"));
    m["analysis.rare_nets"].push_back(static_cast<double>(run.rare_nets.size()));
    m["analysis.compat_s"].push_back(compat_s);
    m["analysis.compat.pairs"].push_back(static_cast<double>(cs.pair_count));
    m["analysis.compat.sim_resolved_share"].push_back(
        static_cast<double>(cs.sim_resolved) / static_cast<double>(cs.pair_count));
    m["analysis.compat.timeouts"].push_back(static_cast<double>(cs.timeout_pairs));
    m["sim.signatures_s"].push_back(signatures_s);
    m["sim.coverage_s"].push_back(span("sim.coverage"));
    m["sat.compat_s"].push_back(compat_s - signatures_s);
    m["sat.compat_queries"].push_back(queries);
    m["sat.compat_unsat_share"].push_back(
        queries > 0 ? static_cast<double>(cs.sat_unsat) / queries : 0.0);
    m["sat.compat_queries_per_s"].push_back(queries / std::max(1e-9, compat_s - signatures_s));
    m["sat.train_queries"].push_back(static_cast<double>(counters.train_sat_queries));
    m["sat.train_queries_per_update"].push_back(
        static_cast<double>(counters.train_sat_queries) / updates);
    m["sat.witness_hit_share"].push_back(
        static_cast<double>(counters.witness_hits) /
        std::max(1.0, static_cast<double>(counters.witness_hits + counters.train_sat_queries)));
    m["core.env.step_s"].push_back(step_s);
    m["core.env.steps"].push_back(static_cast<double>(count_named(tracer, pass, "core.env.step")));
    m["core.env.share"].push_back(env_s / update_s);
    m["core.extract_s"].push_back(span("core.extract"));
    m["core.pool.distinct_sets"].push_back(static_cast<double>(run.pool_size));
    m["rl.update_s"].push_back(update_s);
    m["rl.self_s"].push_back(sum_named(tracer, pass, "rl.update", &self));
    m["rl.env_steps_per_s"].push_back(static_cast<double>(counters.total_steps) / update_s);
  }

  // Distributions pool every traced pass.
  const auto steps_us = [&] {
    auto v = durations_named(tracer, "core.env.step");
    for (auto& x : v) x *= 1e6;
    return v;
  }();
  const auto updates = durations_named(tracer, "rl.update");
  const double tail_pct = tail_percentile(updates.size());

  const auto med = [&](const char* name) { return median(per_pass[name]); };
  report.add("analysis.lint_s", med("analysis.lint_s"), "s");
  report.add("analysis.rare_nets_s", med("analysis.rare_nets_s"), "s");
  report.add("analysis.rare_nets", med("analysis.rare_nets"), "count");
  report.add("analysis.compat_s", med("analysis.compat_s"), "s");
  report.add("analysis.compat.pairs", med("analysis.compat.pairs"), "count");
  report.add("analysis.compat.sim_resolved_share", med("analysis.compat.sim_resolved_share"),
             "ratio");
  report.add("analysis.compat.timeouts", med("analysis.compat.timeouts"), "count");
  report.add("sim.signatures_s", med("sim.signatures_s"), "s");
  report.add("sim.coverage_s", med("sim.coverage_s"), "s");
  report.add("sat.compat_s", med("sat.compat_s"), "s");
  report.add("sat.compat_queries", med("sat.compat_queries"), "count");
  report.add("sat.compat_unsat_share", med("sat.compat_unsat_share"), "ratio");
  report.add("sat.compat_queries_per_s", med("sat.compat_queries_per_s"), "1/s");
  report.add("sat.train_queries", med("sat.train_queries"), "count");
  report.add("sat.train_queries_per_update", med("sat.train_queries_per_update"), "count");
  report.add("sat.witness_hit_share", med("sat.witness_hit_share"), "ratio");
  report.add("core.env.step_s", med("core.env.step_s"), "s");
  report.add("core.env.step_p50_us", percentile(steps_us, 50.0), "us");
  report.add("core.env.step_p99_us", percentile(steps_us, 99.0), "us");
  report.add("core.env.steps", med("core.env.steps"), "count");
  report.add("core.env.share", med("core.env.share"), "ratio");
  report.add("core.extract_s", med("core.extract_s"), "s");
  report.add("core.pool.distinct_sets", med("core.pool.distinct_sets"), "count");
  report.add("rl.update_s", med("rl.update_s"), "s");
  report.add("rl.update_p50_s", percentile(updates, 50.0), "s");
  report.add("rl.update_tail_s", percentile(updates, tail_pct), "s");
  report.add("rl.self_s", med("rl.self_s"), "s");
  report.add("rl.env_steps_per_s", med("rl.env_steps_per_s"), "1/s");
  report.add("trojan.sample_s", sum_named(tracer, 0, "trojan.sample"), "s");
  report.add("trojan.count", static_cast<double>(setup->trojans.size()), "count");
  report.add("bench_gen.load_s", sum_named(tracer, 0, "bench_gen.load"), "s");
  const double overhead_s = median(traced_ttp) - median(untraced_ttp);
  report.add("trace.overhead_s", overhead_s, "s");

  if (!trace_out.empty() && !tracer.write_jsonl(trace_out))
    std::fprintf(stderr, "deterrent_e2e: could not write %s\n", trace_out.c_str());

  print_context(w, seed, engine, *digest,
                {{"traced_passes", static_cast<double>(passes)},
                 {"rl.update_tail_percentile", tail_pct},
                 {"rl.update_samples", static_cast<double>(updates.size())},
                 {"trace.overhead_s", overhead_s},
                 {"trace.untraced_time_to_patterns_s", median(untraced_ttp)},
                 {"trace.traced_time_to_patterns_s", median(traced_ttp)}},
                {{"untraced_time_to_patterns_each_s", untraced_ttp},
                 {"traced_time_to_patterns_each_s", traced_ttp}});
  print_report(report);
  return report.correct ? 0 : 1;
}

// ----------------------------------------------------------------- main ----

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "deterrent_e2e: %s\nusage: deterrent_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
      if (trace < 0) usage("--trace takes 0 or 1");
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (seconds < 0.0 || trace < 0) usage("--seconds and --trace are required");
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads)
    if (workload == candidate.name) w = &candidate;
  if (w == nullptr) usage(("unknown workload '" + workload + "'").c_str());

  util::Log::set_level(util::LogLevel::Warn);
  try {
    return trace == 1 ? run_traced_mode(*w, seed, seconds, trace_out)
                      : run_untraced(*w, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deterrent_e2e: %s\n", e.what());
    return 1;
  }
}
