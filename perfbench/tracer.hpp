#pragma once

// In-memory span recorder for the traced benchmark pass, plus the timing
// decorator that puts the rollout environment behind a span boundary.
//
// Spans are recorded from the benchmark's own files around calls into the
// library's public entry points; nothing inside src/ is instrumented. Each
// span keeps its name, start, end, and the span that was open when it began,
// so self times (duration minus the children's durations) can be derived
// after the run. Spans of one traced pipeline share a pass id.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/compatible_set_env.hpp"
#include "rl/env.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint32_t pass = 0;
  std::int64_t parent = -1;  ///< index into Tracer::spans(), -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened at construction, closed at destruction. Scopes nest
  /// strictly (the traced pass is single-threaded at every boundary).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.open(name)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  void set_pass(std::uint32_t pass) { pass_ = pass; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-span self time: duration minus the durations of its direct
  /// children (children never overlap, so their sum is the covered part).
  std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
    for (const Span& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
    return self;
  }

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto self = self_seconds();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"pass\":%u,\"parent\":%lld,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n",
                   i, s.pass, static_cast<long long>(s.parent), s.name,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns) * 1e-3, self[i] * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  std::size_t open(const char* name) {
    Span s;
    s.name = name;
    s.pass = pass_;
    s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::uint32_t pass_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// rl::VectorEnv decorator: forwards every call to a CompatibleSetVectorEnv
/// and wraps step() and reset_lane() in spans, so the trainer's update span
/// splits into environment time and the trainer's own time.
class TimedVectorEnv final : public deterrent::rl::VectorEnv {
 public:
  TimedVectorEnv(std::unique_ptr<deterrent::core::CompatibleSetVectorEnv> inner,
                 Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::size_t lanes() const override { return inner_->lanes(); }
  std::size_t observation_size() const override { return inner_->observation_size(); }
  std::size_t action_count() const override { return inner_->action_count(); }

  void reset_lane(std::size_t lane, deterrent::util::Rng& rng) override {
    Tracer::Scope span(tracer_, "core.env.reset_lane");
    inner_->reset_lane(lane, rng);
  }

  void step(std::span<const std::uint32_t> actions,
            const deterrent::util::BitVec& active) override {
    Tracer::Scope span(tracer_, "core.env.step");
    inner_->step(actions, active);
  }

  std::span<const float> observation(std::size_t lane) const override {
    return inner_->observation(lane);
  }
  const deterrent::util::BitVec& action_mask(std::size_t lane) const override {
    return inner_->action_mask(lane);
  }
  float reward(std::size_t lane) const override { return inner_->reward(lane); }
  bool done(std::size_t lane) const override { return inner_->done(lane); }

 private:
  std::unique_ptr<deterrent::core::CompatibleSetVectorEnv> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
