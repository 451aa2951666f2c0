// Differential training-determinism suite for the vectorized PPO rollout
// path: batched Mlp passes, the VectorEnv collector, and the batched
// CompatibleSetVectorEnv must all be bit-identical to their scalar twins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "bench_gen/library.hpp"
#include "bench_gen/random_circuit.hpp"
#include "core/compatible_set_env.hpp"
#include "core/set_pool.hpp"
#include "rl/adam.hpp"
#include "rl/gae.hpp"
#include "rl/mlp.hpp"
#include "rl/mlp_kernels.hpp"
#include "rl/ppo.hpp"
#include "sat/oracle.hpp"
#include "util/assert.hpp"

namespace deterrent {
namespace {

using analysis::CompatibilityMatrix;
using analysis::RareNet;
using core::CompatibleSetEnv;
using core::CompatibleSetVectorEnv;
using core::DistinctSetPool;
using core::EnvConfig;
using core::MaskMode;
using core::RewardMode;
using rl::Env;
using rl::Mlp;
using rl::PpoConfig;
using rl::PpoTrainer;
using rl::StepResult;

// ------------------------------------------------------ Mlp batch passes ---

std::vector<float> random_input(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.below(2000)) / 500.0f - 2.0f;
  return v;
}

/// Runs body(isa) once per MLP kernel backend the host supports, with
/// DETERRENT_FORCE_ISA pinning that backend for every Mlp built inside, and
/// restores the variable afterwards.
template <class Body>
void for_each_mlp_backend(Body&& body) {
  const char* saved = std::getenv("DETERRENT_FORCE_ISA");
  const std::string saved_value = saved ? saved : "";
  for (const auto isa : rl::kernels::supported_mlp_isas()) {
    ::setenv("DETERRENT_FORCE_ISA", rl::kernels::to_string(isa), 1);
    body(isa);
  }
  if (saved)
    ::setenv("DETERRENT_FORCE_ISA", saved_value.c_str(), 1);
  else
    ::unsetenv("DETERRENT_FORCE_ISA");
}

/// Shapes whose sizes reach every tail of the register-blocked kernels:
/// outputs 1, 5 and 66 are no multiple of any backend's output block (2, 4
/// or 8) or register width, inputs 19, 37, 66 and 70 no multiple of 16.
const std::vector<std::vector<std::size_t>>& ragged_shapes() {
  static const std::vector<std::vector<std::size_t>> shapes = {
      {19, 66, 5, 1}, {70, 5, 66}, {37, 66, 66, 5}};
  return shapes;
}

/// Zeroes rows [16, 32) — the whole second row tile — so the first layer's
/// nonzero-column list for that tile is empty.
void zero_second_tile(std::vector<float>& input, std::size_t rows, std::size_t in) {
  for (std::size_t r = 16; r < std::min<std::size_t>(rows, 32); ++r)
    std::fill_n(input.begin() + static_cast<std::ptrdiff_t>(r * in), in, 0.0f);
}

TEST(MlpBatch, ForwardBatchMatchesPerRowBitIdentically) {
  std::vector<std::vector<std::size_t>> shapes = {
      {3, 8, 2}, {5, 16, 16, 4}, {17, 32, 9}, {1, 4, 1}};
  shapes.insert(shapes.end(), ragged_shapes().begin(), ragged_shapes().end());
  for_each_mlp_backend([&](rl::kernels::MlpIsa isa) {
    for (const auto& shape : shapes) {
      util::Rng init(shape[0] * 131 + shape.back());
      Mlp net(shape, init);
      // Rows straddle the internal tile width (16): partial, exact, and
      // multi-tile-plus-remainder batches; 33 and 40 also carry an all-zero
      // tile (empty layer-0 column list).
      for (const std::size_t rows : {1u, 5u, 16u, 17u, 33u, 40u, 64u}) {
        util::Rng data(rows * 977 + 5);
        std::vector<float> input = random_input(rows * shape.front(), data);
        if (rows == 33 || rows == 40) zero_second_tile(input, rows, shape.front());
        Mlp::BatchWorkspace bws;
        const auto batch_out = net.forward_batch(input, rows, bws);
        ASSERT_EQ(batch_out.size(), rows * shape.back());

        Mlp::Workspace ws;
        for (std::size_t r = 0; r < rows; ++r) {
          const auto row_out = net.forward(
              std::span<const float>(input).subspan(r * shape.front(), shape.front()),
              ws);
          for (std::size_t o = 0; o < shape.back(); ++o)
            ASSERT_EQ(batch_out[r * shape.back() + o], row_out[o])
                << rl::kernels::to_string(isa) << " shape[0]=" << shape[0]
                << " rows=" << rows << " r=" << r << " o=" << o;
        }
      }
    }
  });
}

TEST(MlpBatch, BackwardBatchMatchesPerRowAccumulationBitIdentically) {
  std::vector<std::vector<std::size_t>> shapes = {{7, 24, 24, 5}};
  shapes.insert(shapes.end(), ragged_shapes().begin(), ragged_shapes().end());
  for_each_mlp_backend([&](rl::kernels::MlpIsa isa) {
    for (const auto& shape : shapes) {
      util::Rng init(42);
      Mlp batch_net(shape, init);
      Mlp row_net(shape, init);
      row_net.copy_params_from(batch_net);

      for (const bool sparse : {false, true}) {
        for (const std::size_t rows : {1u, 16u, 33u}) {
          util::Rng data(rows * 31 + 7);
          std::vector<float> input = random_input(rows * shape.front(), data);
          // Dense inputs touch every layer-0 column; the sparse pass zeroes
          // about half of them and the whole second tile (empty column list).
          if (sparse) {
            for (std::size_t i = 0; i < input.size(); ++i)
              if (data.below(10) < 5) input[i] = 0.0f;
            zero_second_tile(input, rows, shape.front());
          }
          std::vector<float> grads = random_input(rows * shape.back(), data);
          // Exercise the exact-zero skip (backward treats g == 0 as "no update").
          for (std::size_t i = 0; i < grads.size(); i += 3) grads[i] = 0.0f;

          batch_net.zero_grad();
          Mlp::BatchWorkspace bws;
          batch_net.forward_batch(input, rows, bws);
          batch_net.backward_batch(bws, grads);

          row_net.zero_grad();
          Mlp::Workspace ws;
          for (std::size_t r = 0; r < rows; ++r) {
            const auto in =
                std::span<const float>(input).subspan(r * shape.front(), shape.front());
            row_net.forward(in, ws);
            row_net.backward(in, ws,
                             std::span<const float>(grads).subspan(r * shape.back(),
                                                                   shape.back()));
          }

          auto batch_params = batch_net.params();
          auto row_params = row_net.params();
          ASSERT_EQ(batch_params.size(), row_params.size());
          for (std::size_t p = 0; p < batch_params.size(); ++p)
            for (std::size_t i = 0; i < batch_params[p].size; ++i)
              ASSERT_EQ(batch_params[p].grads[i], row_params[p].grads[i])
                  << rl::kernels::to_string(isa) << " shape[0]=" << shape[0]
                  << " sparse=" << sparse << " rows=" << rows << " tensor=" << p
                  << " elem=" << i;
        }
      }
    }
  });
}

// The output layer's fused backward visits only each row's nonzero output
// gradients. Masked policy gradients are mostly exact zeros: all-zero rows,
// a column that is zero in every row (an action masked throughout), and
// -0.0f entries, which backward() skips like +0. Every weight and bias
// gradient must still match per-row backward() bit for bit.
TEST(MlpBatch, MaskedOutputGradientsMatchPerRowBackward) {
  std::vector<std::vector<std::size_t>> shapes = {{9, 24, 24, 40}, {12, 33, 7}};
  shapes.insert(shapes.end(), ragged_shapes().begin(), ragged_shapes().end());
  for_each_mlp_backend([&](rl::kernels::MlpIsa isa) {
    for (const auto& shape : shapes) {
      util::Rng init(shape.front() * 17 + shape.back());
      Mlp batch_net(shape, init);
      Mlp row_net(shape, init);
      row_net.copy_params_from(batch_net);
      const std::size_t in = shape.front();
      const std::size_t out = shape.back();

      for (const std::size_t rows : {1u, 16u, 33u, 256u}) {
        util::Rng data(rows * 71 + out);
        std::vector<float> input = random_input(rows * in, data);
        for (auto& x : input)
          if (data.below(10) < 6) x = 0.0f;
        std::vector<float> grads = random_input(rows * out, data);
        std::size_t zeros = 0;
        for (std::size_t n = 0; n < rows; ++n)
          for (std::size_t o = 0; o < out; ++o) {
            float& g = grads[n * out + o];
            if (n % 5 == 2 || o == out / 2 || data.below(10) < 6)
              g = data.below(2) == 0 ? 0.0f : -0.0f;
            zeros += g == 0.0f ? 1 : 0;
          }
        ASSERT_GE(zeros * 10, grads.size() * 6);

        batch_net.zero_grad();
        Mlp::BatchWorkspace bws;
        batch_net.forward_batch(input, rows, bws);
        batch_net.backward_batch(bws, grads);

        row_net.zero_grad();
        Mlp::Workspace ws;
        for (std::size_t r = 0; r < rows; ++r) {
          const auto x = std::span<const float>(input).subspan(r * in, in);
          row_net.forward(x, ws);
          row_net.backward(x, ws, std::span<const float>(grads).subspan(r * out, out));
        }

        const auto batch_params = batch_net.params();
        const auto row_params = row_net.params();
        ASSERT_EQ(batch_params.size(), row_params.size());
        for (std::size_t p = 0; p < batch_params.size(); ++p)
          for (std::size_t i = 0; i < batch_params[p].size; ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(batch_params[p].grads[i]),
                      std::bit_cast<std::uint32_t>(row_params[p].grads[i]))
                << rl::kernels::to_string(isa) << " shape[0]=" << in
                << " rows=" << rows << " tensor=" << p << " elem=" << i;
      }
    }
  });
}

// The sparse-row overload takes each row as its nonzero list (the trainer
// stores observations that way). It must match the dense overload bit for
// bit, forward and backward: an empty row, -0.0f and +0 entries listed
// explicitly (counted as absent, as a dense zero is), non-binary values, and
// row counts that straddle the 16-row tiles.
TEST(MlpBatch, SparseRowForwardMatchesDense) {
  for_each_mlp_backend([&](rl::kernels::MlpIsa isa) {
    for (const std::vector<std::size_t>& shape :
         {std::vector<std::size_t>{11, 16, 4}, std::vector<std::size_t>{70, 5, 66}}) {
      util::Rng init(9);
      Mlp dense_net(shape, init);
      Mlp sparse_net(shape, init);
      sparse_net.copy_params_from(dense_net);
      const std::size_t in = shape.front();

      for (const std::size_t rows : {1u, 16u, 21u, 40u}) {
        util::Rng data(rows * 53 + in);
        std::vector<float> input = random_input(rows * in, data);
        for (auto& x : input)
          if (data.below(10) < 6) x = data.below(2) == 0 ? 0.0f : -0.0f;
        // Row 0 is empty; with 21+ rows so is row 17, inside the second tile.
        std::fill_n(input.begin(), in, 0.0f);
        if (rows > 17) std::fill_n(input.begin() + 17 * static_cast<std::ptrdiff_t>(in), in, 0.0f);

        // Each row's list names every nonzero plus the ±0 entries of its
        // even columns, which the overload must drop.
        std::vector<std::vector<std::uint32_t>> cols(rows);
        std::vector<std::vector<float>> vals(rows);
        std::vector<Mlp::SparseRow> sparse(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t i = 0; i < in; ++i) {
            const float v = input[r * in + i];
            if (v != 0.0f || (i % 2 == 0 && r != 0)) {
              cols[r].push_back(static_cast<std::uint32_t>(i));
              vals[r].push_back(v);
            }
          }
          sparse[r] = {cols[r], vals[r]};
        }
        ASSERT_TRUE(sparse[0].cols.empty());

        Mlp::BatchWorkspace dense_ws, sparse_ws;
        const auto dense_out = dense_net.forward_batch(input, rows, dense_ws);
        const auto sparse_out = sparse_net.forward_batch(sparse, sparse_ws);
        const std::string where = std::string(rl::kernels::to_string(isa)) +
                                  " in=" + std::to_string(in) +
                                  " rows=" + std::to_string(rows);
        ASSERT_EQ(dense_out.size(), sparse_out.size()) << where;
        for (std::size_t i = 0; i < dense_out.size(); ++i)
          ASSERT_EQ(std::bit_cast<std::uint32_t>(dense_out[i]),
                    std::bit_cast<std::uint32_t>(sparse_out[i]))
              << where << " elem=" << i;

        const std::vector<float> grads = random_input(rows * shape.back(), data);
        dense_net.zero_grad();
        sparse_net.zero_grad();
        dense_net.backward_batch(dense_ws, grads);
        sparse_net.backward_batch(sparse_ws, grads);
        const auto dense_params = dense_net.params();
        const auto sparse_params = sparse_net.params();
        for (std::size_t p = 0; p < dense_params.size(); ++p)
          for (std::size_t i = 0; i < dense_params[p].size; ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(dense_params[p].grads[i]),
                      std::bit_cast<std::uint32_t>(sparse_params[p].grads[i]))
                << where << " tensor=" << p << " elem=" << i;
      }
    }
  });
}

// Every compiled-in SIMD backend the host can run must produce bitwise the
// same batch results as the Scalar table — the contract that lets a
// checkpoint (and the bench checksums) move freely between hosts. The
// backend is chosen at Mlp construction from DETERRENT_FORCE_ISA, so the
// sweep builds one network per backend from the same init stream. Inputs are
// ~70% exact zeros to exercise the sparse layer-0 column-skip path, the
// second row tile is all zeros (empty layer-0 column list), and the ragged
// shapes reach every output-block, register and row-tile tail.
TEST(MlpBatch, AllKernelBackendsAreBitIdenticalToScalar) {
  const auto isas = rl::kernels::supported_mlp_isas();
  ASSERT_FALSE(isas.empty());
  ASSERT_EQ(isas.front(), rl::kernels::MlpIsa::Scalar);

  std::vector<std::vector<std::size_t>> shapes = {{19, 32, 32, 6}};
  shapes.insert(shapes.end(), ragged_shapes().begin(), ragged_shapes().end());
  for (const auto& shape : shapes) {
    for (const std::size_t rows : {7u, 33u}) {  // a partial tile; two tiles + 1
      util::Rng data(2026 + rows);
      std::vector<float> input = random_input(rows * shape.front(), data);
      for (std::size_t i = 0; i < input.size(); ++i)
        if (data.below(10) < 7) input[i] = 0.0f;
      zero_second_tile(input, rows, shape.front());
      std::vector<float> grads = random_input(rows * shape.back(), data);
      for (std::size_t i = 0; i < grads.size(); i += 3) grads[i] = 0.0f;

      std::vector<float> ref_out, ref_grads, ref_params;
      for_each_mlp_backend([&](rl::kernels::MlpIsa isa) {
        util::Rng init(7);
        Mlp net(shape, init);

        Mlp::BatchWorkspace bws;
        const auto out = net.forward_batch(input, rows, bws);
        net.zero_grad();
        net.backward_batch(bws, grads);
        std::vector<float> flat_grads;
        for (const auto& p : net.params())
          flat_grads.insert(flat_grads.end(), p.grads, p.grads + p.size);

        // The Adam elementwise update dispatches to the same backend table;
        // two clipped steps cover the scale path and a bias-correction change.
        rl::Adam opt(net.params());
        opt.step(0.5f);
        opt.step(0.5f);
        const std::vector<float> stepped = net.flat_params();

        if (isa == rl::kernels::MlpIsa::Scalar) {
          ref_out.assign(out.begin(), out.end());
          ref_grads = std::move(flat_grads);
          ref_params = stepped;
          return;
        }
        const std::string where = std::string(rl::kernels::to_string(isa)) +
                                  " shape[0]=" + std::to_string(shape[0]) +
                                  " rows=" + std::to_string(rows);
        ASSERT_EQ(out.size(), ref_out.size());
        for (std::size_t i = 0; i < out.size(); ++i)
          ASSERT_EQ(out[i], ref_out[i]) << where << " forward elem " << i;
        ASSERT_EQ(flat_grads.size(), ref_grads.size());
        for (std::size_t i = 0; i < flat_grads.size(); ++i)
          ASSERT_EQ(flat_grads[i], ref_grads[i]) << where << " grad elem " << i;
        ASSERT_EQ(stepped.size(), ref_params.size());
        for (std::size_t i = 0; i < stepped.size(); ++i)
          ASSERT_EQ(stepped[i], ref_params[i]) << where << " adam-stepped param " << i;
      });
    }
  }
}

// ------------------------------------------------------------- MLP tanh ---

std::uint32_t float_bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

float bits_float(std::uint32_t u) {
  float x = 0.0f;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

/// Inputs for the tanh checks: a strided sweep over all 2^32 bit patterns,
/// plus ±4 ulps around every branch boundary of fdlibm's tanhf and of the
/// expm1f paths it reaches, with both signs, and the special values.
std::vector<float> tanh_probe_inputs() {
  std::vector<std::uint32_t> bits;
  for (std::uint64_t u = 0; u < (1ULL << 32); u += 8191)
    bits.push_back(static_cast<std::uint32_t>(u));

  // |x| thresholds of tanhf itself: 2^-55, 1, 22, +inf.
  std::vector<std::uint32_t> edges = {0x24000000u, 0x3f800000u, 0x41b00000u, 0x7f800000u};
  // expm1f runs on 2|x| or -2|x|, so its |arg| thresholds (ln2/2, 1.5 ln2,
  // 2^-25, 27 ln2, 88.72) sit at half those values in x ...
  for (const std::uint32_t arg : {0x3eb17218u, 0x3f851592u, 0x33000000u, 0x4195b844u,
                                  0x42b17218u})
    edges.push_back(float_bits(bits_float(arg) / 2.0f));
  // ... and its reduction k = trunc(arg/ln2 ± 1/2) switches formula at
  // k = 1|2, 22|23 and 56|57: |x| = (k - 1/2)·ln2/2.
  for (const double k : {2.0, 23.0, 57.0})
    edges.push_back(float_bits(static_cast<float>((k - 0.5) * 0.6931471805599453 / 2.0)));
  for (const std::uint32_t edge : edges)
    for (std::uint32_t d = 0; d <= 8; ++d) bits.push_back(edge - 4 + d);

  // ±0, subnormals, the normal/subnormal border, and the largest finite.
  for (const std::uint32_t u : {0x00000000u, 0x00000001u, 0x00000002u, 0x00400000u,
                                0x007fffffu, 0x00800000u, 0x7f7fffffu})
    bits.push_back(u);
  // NaNs: quiet, signaling, payloads.
  for (const std::uint32_t u : {0x7fc00000u, 0x7f800001u, 0x7fa00000u, 0x7fffffffu})
    bits.push_back(u);

  std::vector<float> inputs;
  inputs.reserve(2 * bits.size());
  for (const std::uint32_t u : bits) {
    inputs.push_back(bits_float(u & 0x7fffffffu));
    inputs.push_back(bits_float(u | 0x80000000u));
  }
  return inputs;
}

// Every backend's vectorized tanh equals the scalar fdlibm port bit for bit,
// on the probe set and at every vector-tail length.
TEST(MlpTanh, EveryBackendMatchesScalarPort) {
  const std::vector<float> inputs = tanh_probe_inputs();
  for (const auto isa : rl::kernels::supported_mlp_isas()) {
    const auto& table = rl::kernels::mlp_kernel_table(isa);
    std::vector<float> out(inputs.size());
    table.tanh(inputs.data(), out.data(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      ASSERT_EQ(float_bits(out[i]), float_bits(rl::kernels::tanh_fdlibm(inputs[i])))
          << table.name << " x bits 0x" << std::hex << float_bits(inputs[i]);
    // Lengths 0..40 end in every possible partial vector; in place too.
    for (std::size_t n = 0; n <= 40; ++n) {
      std::vector<float> buf(inputs.begin() + 1000,
                             inputs.begin() + 1000 + static_cast<std::ptrdiff_t>(n));
      table.tanh(buf.data(), buf.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(float_bits(buf[i]), float_bits(rl::kernels::tanh_fdlibm(inputs[1000 + i])))
            << table.name << " n=" << n << " i=" << i;
    }
  }
}

// The port reproduces the host's tanhf where that is fdlibm's code: glibc up
// to 2.40 (2.41 replaced tanhf with a correctly rounded implementation).
// bench/tanh_sweep checks all 2^32 inputs in CI.
TEST(MlpTanh, ScalarPortMatchesGlibcTanhf) {
#if defined(__GLIBC__) && (__GLIBC__ == 2 && __GLIBC_MINOR__ <= 40)
  for (const float x : tanh_probe_inputs())
    ASSERT_EQ(float_bits(rl::kernels::tanh_fdlibm(x)), float_bits(std::tanh(x)))
        << "x bits 0x" << std::hex << float_bits(x);
#else
  GTEST_SKIP() << "host libm's tanhf is not fdlibm's";
#endif
}

// ----------------------------------------------------------- toy WalkEnv ---

/// Deterministic multi-step toy with rng-dependent resets, a mask that
/// changes with the state, and action-dependent episode lengths — enough
/// structure that any collector divergence shows up in episodes and params.
class WalkEnv final : public Env {
 public:
  explicit WalkEnv(int length = 6) : length_(length), mask_(3) {}
  std::size_t observation_size() const override {
    return static_cast<std::size_t>(length_) + 3;
  }
  std::size_t action_count() const override { return 3; }
  std::vector<float> reset(util::Rng& rng) override {
    pos_ = static_cast<int>(rng.below(3));
    steps_ = 0;
    refresh_mask();
    return obs();
  }
  StepResult step(std::uint32_t action) override {
    if (action == 0) pos_ = std::max(0, pos_ - 1);
    if (action == 1) pos_ += 1;
    if (action == 2) pos_ += 2;  // jump: only legal from even positions
    ++steps_;
    const bool done = pos_ >= length_ || steps_ >= 3 * length_;
    const float reward =
        (pos_ >= length_ ? 1.0f : 0.0f) + 0.01f * static_cast<float>(action);
    refresh_mask();
    return {obs(), reward, done};
  }
  const util::BitVec& action_mask() const override { return mask_; }

 private:
  void refresh_mask() {
    mask_.clear_all();
    mask_.set(0);
    mask_.set(1);
    if (pos_ % 2 == 0) mask_.set(2);
  }
  std::vector<float> obs() const {
    std::vector<float> o(observation_size(), 0.0f);
    o[static_cast<std::size_t>(std::min(pos_, length_ + 2))] = 1.0f;
    return o;
  }
  int length_;
  int pos_ = 0;
  int steps_ = 0;
  util::BitVec mask_;
};

PpoConfig toy_config() {
  PpoConfig cfg;
  cfg.episodes_per_update = 16;
  cfg.hidden_size = 16;
  cfg.minibatch_size = 32;
  cfg.entropy_coef = 0.02f;
  cfg.learning_rate = 3e-3f;
  return cfg;
}

void expect_stats_equal(const rl::PpoUpdateStats& a, const rl::PpoUpdateStats& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.mean_episode_reward, b.mean_episode_reward);
  EXPECT_EQ(a.mean_episode_length, b.mean_episode_length);
  EXPECT_EQ(a.policy_loss, b.policy_loss);
  EXPECT_EQ(a.value_loss, b.value_loss);
  EXPECT_EQ(a.mean_entropy, b.mean_entropy);
  EXPECT_EQ(a.total_loss, b.total_loss);
}

// -------------------------------------------- trainer-level differential ---

/// The determinism contract: episodes are keyed by global episode index, so
/// the vectorized collector trains to bit-identical parameters at any lane
/// count. Lane counts cover uneven episode splits (7) and more lanes than
/// episodes (64), against the single-lane baseline.
TEST(PpoVector, TrainingIsInvariantAcrossLaneCounts) {
  const auto factory = [](std::size_t) { return std::make_unique<WalkEnv>(); };

  PpoTrainer baseline(factory, toy_config(), 17);  // rollout_lanes = 1
  std::vector<rl::PpoUpdateStats> baseline_stats;
  for (int u = 0; u < 3; ++u) baseline_stats.push_back(baseline.update());

  for (const std::size_t n : {2u, 7u, 64u}) {
    const std::string label = "rollout_lanes=" + std::to_string(n);
    PpoConfig cfg = toy_config();
    cfg.rollout_lanes = n;
    PpoTrainer trainer(factory, cfg, 17);
    for (int u = 0; u < 3; ++u)
      expect_stats_equal(baseline_stats[static_cast<std::size_t>(u)],
                         trainer.update());
    EXPECT_EQ(baseline.total_steps(), trainer.total_steps()) << label;
    EXPECT_EQ(baseline.policy().flat_params(), trainer.policy().flat_params())
        << "policy params diverged: " << label;
    EXPECT_EQ(baseline.value().flat_params(), trainer.value().flat_params())
        << "value params diverged: " << label;
  }
}

/// Records every reset / action / reward an env sees, so the suite can pin
/// "identical episodes" directly rather than inferring it from parameters.
class RecordingWalkEnv final : public Env {
 public:
  RecordingWalkEnv(std::vector<float>* log) : log_(log) {}
  std::size_t observation_size() const override { return inner_.observation_size(); }
  std::size_t action_count() const override { return inner_.action_count(); }
  std::vector<float> reset(util::Rng& rng) override {
    log_->push_back(-1.0f);  // episode boundary marker
    auto obs = inner_.reset(rng);
    for (float x : obs) log_->push_back(x);
    return obs;
  }
  StepResult step(std::uint32_t action) override {
    auto result = inner_.step(action);
    log_->push_back(static_cast<float>(action));
    log_->push_back(result.reward);
    return result;
  }
  const util::BitVec& action_mask() const override { return inner_.action_mask(); }

 private:
  WalkEnv inner_;
  std::vector<float>* log_;
};

TEST(PpoVector, CollectedEpisodesAndRewardsIdenticalToSingleLaneRollouts) {
  constexpr std::size_t kLanes = 3;
  std::vector<float> single_log;
  std::vector<std::vector<float>> lane_logs(kLanes);

  PpoTrainer single(
      [&](std::size_t) { return std::make_unique<RecordingWalkEnv>(&single_log); },
      toy_config(), 23);

  PpoConfig lanes_cfg = toy_config();
  lanes_cfg.rollout_lanes = kLanes;
  PpoTrainer vectorized(
      [&](std::size_t l) { return std::make_unique<RecordingWalkEnv>(&lane_logs[l]); },
      lanes_cfg, 23);

  constexpr int kUpdates = 2;
  for (int u = 0; u < kUpdates; ++u) {
    single.update();
    vectorized.update();
  }

  // The single lane runs every episode in order. Split its log at the -1
  // reset markers (actions, rewards and observations are never negative)
  // and deal episode e of each update to lane e mod kLanes.
  const std::size_t per_update = lanes_cfg.episodes_per_update;
  std::vector<std::vector<float>> expected(kLanes);
  std::size_t episodes = 0;
  for (const float x : single_log) {
    if (x == -1.0f) ++episodes;
    ASSERT_GT(episodes, 0u) << "log must open with a reset marker";
    expected[((episodes - 1) % per_update) % kLanes].push_back(x);
  }
  EXPECT_EQ(episodes, kUpdates * per_update);
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_FALSE(lane_logs[l].empty());
    EXPECT_EQ(expected[l], lane_logs[l])
        << "lane " << l << " saw a different episode stream than the single lane";
  }
}

// -------------------------------------------------- checkpoint / restore ---

TEST(PpoVector, StateRestoreResumesBatchedTrainingBitIdentically) {
  const auto factory = [](std::size_t) { return std::make_unique<WalkEnv>(); };
  PpoConfig cfg = toy_config();
  cfg.rollout_lanes = 4;

  PpoTrainer reference(factory, cfg, 29);
  reference.update();
  const rl::TrainerState snapshot = reference.state();
  const auto r2 = reference.update();
  const auto r3 = reference.update();

  PpoTrainer resumed(factory, cfg, 999);  // different seed: state must win
  resumed.restore(snapshot);
  const auto s2 = resumed.update();
  const auto s3 = resumed.update();

  expect_stats_equal(r2, s2);
  expect_stats_equal(r3, s3);
  EXPECT_EQ(reference.policy().flat_params(), resumed.policy().flat_params());
  EXPECT_EQ(reference.value().flat_params(), resumed.value().flat_params());
  EXPECT_EQ(reference.total_steps(), resumed.total_steps());
  EXPECT_EQ(reference.total_episodes(), resumed.total_episodes());
}

TEST(PpoVector, CheckpointsArePortableAcrossLaneCounts) {
  // Episode RNG streams are keyed by global episode index, so a snapshot
  // taken under one lane count must resume bit-identically under another —
  // parallelism is a throughput knob, not part of the training trajectory.
  const auto factory = [](std::size_t) { return std::make_unique<WalkEnv>(); };
  PpoConfig four = toy_config();
  four.rollout_lanes = 4;
  PpoConfig two = toy_config();
  two.rollout_lanes = 2;

  PpoTrainer a(factory, four, 31);
  a.update();
  const rl::TrainerState snapshot = a.state();
  const auto a2 = a.update();

  PpoTrainer b(factory, two, 555);
  b.restore(snapshot);
  const auto b2 = b.update();

  expect_stats_equal(a2, b2);
  EXPECT_EQ(a.policy().flat_params(), b.policy().flat_params());
  EXPECT_EQ(a.value().flat_params(), b.value().flat_params());
}

// ------------------------------------- CompatibleSetVectorEnv lock-step ----

struct Fixture {
  netlist::Netlist netlist;
  std::vector<RareNet> rare;
  CompatibilityMatrix matrix;
  std::vector<util::BitVec> signatures;
};

Fixture make_fixture(std::uint64_t seed, std::size_t gates = 220) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 16;
  p.n_outputs = 8;
  p.n_gates = gates;
  p.seed = seed;
  Fixture f{bench_gen::generate_random_circuit(p), {}, {}, {}};
  util::Rng rng(seed * 3 + 1);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.15;
  rcfg.sim_patterns = 1 << 13;
  f.rare = analysis::find_rare_nets(f.netlist, rcfg, rng);
  f.matrix = analysis::build_compatibility(f.netlist, f.rare, {}, rng);
  util::Rng sig_rng(seed * 7 + 5);
  f.signatures =
      analysis::rare_activation_signatures(f.netlist, f.rare, 1 << 13, sig_rng);
  return f;
}

std::uint32_t pick_masked_action(const util::BitVec& mask, util::Rng& rng) {
  const auto indices = mask.to_indices();
  return indices[rng.below(indices.size())];
}

/// Drives a CompatibleSetVectorEnv and N standalone CompatibleSetEnv twins in
/// lock-step with shared per-lane RNG streams and identical actions, and
/// asserts every observable matches at every step: observations, masks,
/// rewards, done flags, members, SAT query counts, and the pooled sets.
void run_lockstep_differential(const Fixture& f, const EnvConfig& cfg,
                               std::size_t n_lanes, std::size_t episodes_per_lane) {
  DistinctSetPool vec_pool;
  DistinctSetPool scalar_pool;
  CompatibleSetVectorEnv venv(f.netlist, f.rare, f.matrix, cfg, &vec_pool, n_lanes);
  std::vector<std::unique_ptr<CompatibleSetEnv>> twins;
  std::vector<util::Rng> reset_rng_v;
  std::vector<util::Rng> reset_rng_s;
  std::vector<util::Rng> action_rng;
  std::vector<std::size_t> remaining(n_lanes, episodes_per_lane);
  std::vector<bool> lane_done(n_lanes, false);

  for (std::size_t l = 0; l < n_lanes; ++l) {
    twins.push_back(std::make_unique<CompatibleSetEnv>(f.netlist, f.rare, f.matrix,
                                                       cfg, &scalar_pool));
    reset_rng_v.emplace_back(0xBEEF + 97 * l);
    reset_rng_s.emplace_back(0xBEEF + 97 * l);
    action_rng.emplace_back(0xF00D + 31 * l);
  }

  auto reset_lane = [&](std::size_t l) {
    // Resetting into an exhausted mask ends the episode immediately; keep
    // drawing until a playable episode starts or the lane's budget runs out.
    while (remaining[l] > 0) {
      venv.reset_lane(l, reset_rng_v[l]);
      const std::vector<float> scalar_obs = twins[l]->reset(reset_rng_s[l]);
      const auto vec_obs = venv.observation(l);
      ASSERT_TRUE(std::equal(vec_obs.begin(), vec_obs.end(), scalar_obs.begin(),
                             scalar_obs.end()));
      ASSERT_EQ(venv.action_mask(l), twins[l]->action_mask());
      if (!venv.action_mask(l).none()) return;
      --remaining[l];
    }
    lane_done[l] = true;
  };
  for (std::size_t l = 0; l < n_lanes; ++l) reset_lane(l);

  util::BitVec active(n_lanes);
  std::vector<std::uint32_t> actions(n_lanes, 0);
  for (;;) {
    active.clear_all();
    for (std::size_t l = 0; l < n_lanes; ++l)
      if (!lane_done[l]) active.set(l);
    if (active.none()) break;

    for (std::size_t l = 0; l < n_lanes; ++l) {
      if (!active.test(l)) continue;
      ASSERT_EQ(venv.action_mask(l), twins[l]->action_mask()) << "lane " << l;
      actions[l] = pick_masked_action(venv.action_mask(l), action_rng[l]);
    }
    venv.step(actions, active);

    for (std::size_t l = 0; l < n_lanes; ++l) {
      if (!active.test(l)) continue;
      const StepResult scalar = twins[l]->step(actions[l]);
      ASSERT_EQ(venv.reward(l), scalar.reward) << "lane " << l;
      ASSERT_EQ(venv.done(l), scalar.done) << "lane " << l;
      const auto vec_obs = venv.observation(l);
      ASSERT_TRUE(std::equal(vec_obs.begin(), vec_obs.end(),
                             scalar.observation.begin(), scalar.observation.end()))
          << "lane " << l;
      ASSERT_EQ(venv.action_mask(l), twins[l]->action_mask()) << "lane " << l;
      const bool over = venv.done(l) || venv.action_mask(l).none();
      if (over) {
        ASSERT_EQ(std::vector<std::uint32_t>(venv.members(l).begin(),
                                             venv.members(l).end()),
                  std::vector<std::uint32_t>(twins[l]->members().begin(),
                                             twins[l]->members().end()))
            << "lane " << l;
        --remaining[l];
        reset_lane(l);
      }
    }
  }

  std::uint64_t scalar_queries = 0;
  for (const auto& twin : twins) scalar_queries += twin->sat_queries();
  EXPECT_EQ(venv.sat_queries(), scalar_queries);
  EXPECT_EQ(vec_pool.size(), scalar_pool.size());
  EXPECT_EQ(vec_pool.k_largest(vec_pool.size()),
            scalar_pool.k_largest(scalar_pool.size()));
}

TEST(VectorEnvDifferential, LanesMatchScalarEnvsAcrossAllModeCombos) {
  const Fixture f = make_fixture(51);
  ASSERT_GE(f.rare.size(), 6u);
  for (const RewardMode reward : {RewardMode::AllSteps, RewardMode::EndOfEpisode}) {
    for (const MaskMode mask : {MaskMode::Pairwise, MaskMode::None}) {
      EnvConfig cfg;
      cfg.reward_mode = reward;
      cfg.mask_mode = mask;
      // Witness signatures on one of the two mask modes per reward mode, so
      // both the witness sweep and the pure-SAT path get differential cover.
      if (mask == MaskMode::Pairwise) cfg.witness_signatures = &f.signatures;
      SCOPED_TRACE(testing::Message() << "reward=" << static_cast<int>(reward)
                                      << " mask=" << static_cast<int>(mask));
      run_lockstep_differential(f, cfg, /*n_lanes=*/5, /*episodes_per_lane=*/3);
    }
  }
}

TEST(VectorEnvDifferential, WitnessSweepFiresAndPreservesTrajectories) {
  const Fixture f = make_fixture(52, 300);
  ASSERT_GE(f.rare.size(), 8u);
  EnvConfig cfg;
  cfg.witness_signatures = &f.signatures;
  DistinctSetPool pool;
  CompatibleSetVectorEnv venv(f.netlist, f.rare, f.matrix, cfg, &pool, 4);
  std::vector<util::Rng> rngs;
  for (std::size_t l = 0; l < 4; ++l) rngs.emplace_back(7 + l);
  for (std::size_t l = 0; l < 4; ++l) venv.reset_lane(l, rngs[l]);
  util::BitVec active(4);
  active.set_all();
  std::vector<std::uint32_t> actions(4, 0);
  util::Rng act_rng(99);
  for (int s = 0; s < 12 && !active.none(); ++s) {
    for (std::size_t l = 0; l < 4; ++l)
      if (active.test(l)) actions[l] = pick_masked_action(venv.action_mask(l), act_rng);
    venv.step(actions, active);
    for (std::size_t l = 0; l < 4; ++l)
      if (active.test(l) && (venv.done(l) || venv.action_mask(l).none()))
        active.set(l, false);
  }
  EXPECT_GT(venv.witness_hits(), 0u)
      << "whole-word witness sweep never answered a joint check";
}

TEST(VectorEnvDifferential, PooledSatDispatchIsBitIdenticalAtEveryLaneCount) {
  // sat_dispatch_threads >= 2 routes lane SAT work — AllSteps joint checks,
  // EndOfEpisode terminal verifications — through a private thread pool.
  // This must be bit-identical to the sequential reference at every lane
  // count (each lane's private oracle sees its scalar twin's exact query
  // stream, whatever thread executes it), so the full lock-step
  // differential — observations, masks, rewards, members, SAT query
  // counts — runs with exact matching.
  const Fixture f = make_fixture(55);
  ASSERT_GE(f.rare.size(), 6u);
  for (const RewardMode mode : {RewardMode::AllSteps, RewardMode::EndOfEpisode}) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      for (const std::size_t threads : {std::size_t{2}, std::size_t{3}}) {
        EnvConfig cfg;
        cfg.reward_mode = mode;
        cfg.sat_dispatch_threads = threads;
        SCOPED_TRACE(testing::Message()
                     << "mode=" << static_cast<int>(mode) << " lanes=" << lanes
                     << " dispatch_threads=" << threads);
        run_lockstep_differential(f, cfg, lanes, /*episodes_per_lane=*/2);
      }
    }
  }
}

/// The EndOfEpisode terminal verification, computed the plain way: a linear
/// scan for the longest satisfiable prefix, then one query per remaining
/// member (greedy repair), every check an unbudgeted query on `oracle`.
/// Counts the prefix checks into `prefix_queries` and the repair checks into
/// `repair_queries`.
std::vector<std::uint32_t> reference_verification(std::span<const std::uint32_t> members,
                                                  std::span<const RareNet> rare,
                                                  sat::NetlistOracle& oracle,
                                                  std::uint64_t& prefix_queries,
                                                  std::uint64_t& repair_queries) {
  std::vector<sat::Constraint> constraints;
  const auto add = [&](std::uint32_t m) {
    constraints.push_back({rare[m].net, rare[m].rare_value});
  };
  std::size_t prefix = 0;
  for (; prefix < members.size(); ++prefix) {
    add(members[prefix]);
    ++prefix_queries;
    if (!oracle.satisfiable(constraints)) break;
  }
  if (prefix == members.size()) return {members.begin(), members.end()};
  constraints.pop_back();
  std::vector<std::uint32_t> kept(members.begin(),
                                  members.begin() + static_cast<std::ptrdiff_t>(prefix));
  for (std::size_t k = prefix + 1; k < members.size(); ++k) {
    add(members[k]);
    ++repair_queries;
    if (oracle.satisfiable(constraints))
      kept.push_back(members[k]);
    else
      constraints.pop_back();
  }
  return kept;
}

struct VerificationCounts {
  std::uint64_t queries = 0;         // the env's SAT queries
  std::uint64_t witness_hits = 0;    // the env's witness-answered checks
  std::uint64_t prefix_queries = 0;  // the reference's prefix checks
  std::uint64_t repair_queries = 0;  // the reference's repair checks
};

/// Plays `episodes` random EndOfEpisode episodes on a 1-lane vector env and
/// checks every verified set against reference_verification on a separate
/// oracle.
VerificationCounts verify_against_reference(const netlist::Netlist& nl,
                                            std::span<const RareNet> rare,
                                            const CompatibilityMatrix& matrix,
                                            const std::vector<util::BitVec>* signatures,
                                            int episodes) {
  VerificationCounts counts;
  EnvConfig cfg;
  cfg.reward_mode = RewardMode::EndOfEpisode;
  cfg.witness_signatures = signatures;
  CompatibleSetVectorEnv venv(nl, rare, matrix, cfg, nullptr, 1);
  sat::NetlistOracle reference_oracle(nl);
  util::Rng reset_rng(5);
  util::Rng action_rng(6);
  util::BitVec active(1);
  active.set(0);
  std::size_t repaired = 0;

  for (int episode = 0; episode < episodes; ++episode) {
    venv.reset_lane(0, reset_rng);
    if (venv.action_mask(0).none()) continue;
    std::vector<std::uint32_t> optimistic(venv.members(0).begin(), venv.members(0).end());
    for (;;) {
      const std::uint32_t action[] = {pick_masked_action(venv.action_mask(0), action_rng)};
      venv.step(action, active);
      // A pairwise mask admits every chosen action until the terminal check.
      optimistic.push_back(action[0]);
      if (venv.done(0)) break;
      EXPECT_EQ(std::vector<std::uint32_t>(venv.members(0).begin(), venv.members(0).end()),
                optimistic);
    }
    const auto expected = reference_verification(optimistic, rare, reference_oracle,
                                                 counts.prefix_queries,
                                                 counts.repair_queries);
    EXPECT_EQ(std::vector<std::uint32_t>(venv.members(0).begin(), venv.members(0).end()),
              expected)
        << "episode " << episode;
    if (expected.size() < optimistic.size()) ++repaired;
  }
  EXPECT_GT(repaired, 0u) << "no episode needed the prefix search or repair";
  EXPECT_EQ(venv.sat_unknowns(), 0u);
  counts.queries = venv.sat_queries();
  counts.witness_hits = venv.witness_hits();
  return counts;
}

TEST(VectorEnvDifferential, EndOfEpisodeVerificationMatchesLinearReference) {
  // Model reuse and trail reuse change how many queries the terminal check
  // makes, never which set it keeps: every verified set must equal the plain
  // linear reference. Without model reuse the env would make one query per
  // repair check plus its prefix search; it must make fewer than the repair
  // checks alone.
  const auto bench = bench_gen::load_benchmark("c2670_like");
  const netlist::Netlist& nl = bench.scan.comb;
  util::Rng rng(17);
  analysis::RareNetConfig rcfg;
  rcfg.sim_patterns = 1 << 14;
  const std::vector<RareNet> rare = analysis::find_rare_nets(nl, rcfg, rng);
  ASSERT_GE(rare.size(), 20u);
  const CompatibilityMatrix matrix = analysis::build_compatibility(nl, rare, {}, rng);

  const auto counts = verify_against_reference(nl, rare, matrix, nullptr, 40);
  EXPECT_LT(counts.queries, counts.prefix_queries + counts.repair_queries);
  EXPECT_LT(counts.queries, counts.repair_queries)
      << "no repair check was answered by a reused model";
}

TEST(VectorEnvDifferential, WitnessedVerificationMatchesLinearReference) {
  // With witness signatures, some checks are answered by simulation and the
  // rest by queries whose models are reused; the sets must still match.
  for (const std::uint64_t seed : {51u, 52u, 53u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const Fixture f = make_fixture(seed, 300);
    ASSERT_GE(f.rare.size(), 8u);
    util::Rng sig_rng(seed + 100);
    const auto signatures =
        analysis::rare_activation_signatures(f.netlist, f.rare, 256, sig_rng);
    const auto counts = verify_against_reference(f.netlist, f.rare, f.matrix, &signatures, 60);
    EXPECT_GT(counts.witness_hits, 0u);
    EXPECT_GT(counts.queries, 0u);
  }
}

// ------------------------------------------------- lane isolation (prop) ---

struct LaneTrace {
  std::vector<float> rewards;
  std::vector<std::vector<float>> observations;
  std::vector<util::BitVec> masks;
  std::vector<bool> dones;
};

/// Randomized property: killing lanes must not perturb survivors. A run where
/// a random subset of lanes goes dead after reset must leave the surviving
/// lanes bit-identical to a smaller batch containing only the survivors, and
/// the dead lanes themselves must stay frozen through every step().
TEST(VectorEnvProperty, DeadLanesStayFrozenAndSurvivorsAreUnaffected) {
  const Fixture f = make_fixture(54);
  ASSERT_GE(f.rare.size(), 6u);
  EnvConfig cfg;
  cfg.witness_signatures = &f.signatures;
  constexpr std::size_t kLanes = 6;

  for (const std::uint64_t trial : {1u, 2u, 3u}) {
    util::Rng trial_rng(trial * 7919);
    // Pick 3 random survivors; the rest go dead immediately after reset.
    std::vector<std::size_t> ids(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) ids[i] = i;
    trial_rng.shuffle(ids);
    const std::vector<std::size_t> survivors(ids.begin(), ids.begin() + 3);

    auto lane_rng = [&](std::size_t id) { return util::Rng(0xA5A5 + 131 * id); };
    auto act_rng = [&](std::size_t id) {
      return util::Rng(trial * 1000003 + 17 * id);
    };

    // --- full batch: all lanes reset, only survivors ever stepped ---------
    DistinctSetPool pool_a;
    CompatibleSetVectorEnv full(f.netlist, f.rare, f.matrix, cfg, &pool_a, kLanes);
    std::vector<util::Rng> reset_rngs;
    std::vector<util::Rng> action_rngs;
    for (std::size_t id = 0; id < kLanes; ++id) {
      reset_rngs.push_back(lane_rng(id));
      action_rngs.push_back(act_rng(id));
      full.reset_lane(id, reset_rngs[id]);
    }
    std::vector<LaneTrace> traces(kLanes);
    util::BitVec active(kLanes);
    std::vector<std::uint32_t> actions(kLanes, 0);
    for (int s = 0; s < 10; ++s) {
      active.clear_all();
      for (const std::size_t id : survivors)
        if (!full.done(id) && !full.action_mask(id).none()) active.set(id);
      if (active.none()) break;

      // Snapshot the dead lanes before stepping the survivors.
      std::vector<std::vector<float>> dead_obs(kLanes);
      std::vector<float> dead_reward(kLanes, 0.0f);
      for (std::size_t id = 0; id < kLanes; ++id) {
        if (active.test(id)) continue;
        const auto o = full.observation(id);
        dead_obs[id].assign(o.begin(), o.end());
        dead_reward[id] = full.reward(id);
      }

      for (std::size_t id = 0; id < kLanes; ++id)
        if (active.test(id))
          actions[id] = pick_masked_action(full.action_mask(id), action_rngs[id]);
      full.step(actions, active);

      for (std::size_t id = 0; id < kLanes; ++id) {
        if (active.test(id)) {
          const auto o = full.observation(id);
          traces[id].rewards.push_back(full.reward(id));
          traces[id].observations.emplace_back(o.begin(), o.end());
          traces[id].masks.push_back(full.action_mask(id));
          traces[id].dones.push_back(full.done(id));
        } else {
          const auto o = full.observation(id);
          EXPECT_TRUE(std::equal(o.begin(), o.end(), dead_obs[id].begin(),
                                 dead_obs[id].end()))
              << "inactive lane " << id << " observation drifted";
          EXPECT_EQ(full.reward(id), dead_reward[id])
              << "inactive lane " << id << " reward drifted";
        }
      }
    }

    // --- survivor-only batch: same identities, same streams, same actions -
    DistinctSetPool pool_b;
    CompatibleSetVectorEnv small(f.netlist, f.rare, f.matrix, cfg, &pool_b,
                                 survivors.size());
    std::vector<util::Rng> small_reset;
    std::vector<util::Rng> small_action;
    for (std::size_t k = 0; k < survivors.size(); ++k) {
      small_reset.push_back(lane_rng(survivors[k]));
      small_action.push_back(act_rng(survivors[k]));
      small.reset_lane(k, small_reset[k]);
    }
    std::vector<LaneTrace> small_traces(survivors.size());
    util::BitVec small_active(survivors.size());
    std::vector<std::uint32_t> small_actions(survivors.size(), 0);
    for (int s = 0; s < 10; ++s) {
      small_active.clear_all();
      for (std::size_t k = 0; k < survivors.size(); ++k)
        if (!small.done(k) && !small.action_mask(k).none()) small_active.set(k);
      if (small_active.none()) break;
      for (std::size_t k = 0; k < survivors.size(); ++k)
        if (small_active.test(k))
          small_actions[k] = pick_masked_action(small.action_mask(k), small_action[k]);
      small.step(small_actions, small_active);
      for (std::size_t k = 0; k < survivors.size(); ++k) {
        if (!small_active.test(k)) continue;
        const auto o = small.observation(k);
        small_traces[k].rewards.push_back(small.reward(k));
        small_traces[k].observations.emplace_back(o.begin(), o.end());
        small_traces[k].masks.push_back(small.action_mask(k));
        small_traces[k].dones.push_back(small.done(k));
      }
    }

    for (std::size_t k = 0; k < survivors.size(); ++k) {
      const LaneTrace& a = traces[survivors[k]];
      const LaneTrace& b = small_traces[k];
      EXPECT_EQ(a.rewards, b.rewards) << "trial " << trial << " survivor " << k;
      EXPECT_EQ(a.observations, b.observations)
          << "trial " << trial << " survivor " << k;
      EXPECT_EQ(a.masks, b.masks) << "trial " << trial << " survivor " << k;
      EXPECT_EQ(a.dones, b.dones) << "trial " << trial << " survivor " << k;
    }
  }
}

// --------------------------------------- trainer on the real environment ---

/// The trainer on the batched CompatibleSetVectorEnv against the same
/// trainer on an EnvVector of scalar CompatibleSetEnvs — the scalar env is
/// the reference. The scalar side runs at 3 lanes (same schedule) and at 1
/// lane (sequential reference).
TEST(PpoVector, LanesMatchScalarEnvsOnCompatibleSetEnv) {
  const Fixture f = make_fixture(55);
  ASSERT_GE(f.rare.size(), 6u);
  for (const RewardMode reward : {RewardMode::AllSteps, RewardMode::EndOfEpisode}) {
    for (const MaskMode mask : {MaskMode::Pairwise, MaskMode::None}) {
      EnvConfig env_cfg;
      env_cfg.reward_mode = reward;
      env_cfg.mask_mode = mask;
      env_cfg.witness_signatures = &f.signatures;

      DistinctSetPool lane_pool;
      PpoConfig lanes_cfg = toy_config();
      lanes_cfg.episodes_per_update = 8;
      lanes_cfg.rollout_lanes = 3;
      PpoTrainer vectorized(
          nullptr, lanes_cfg, 61, [&](std::size_t lanes) {
            return std::make_unique<CompatibleSetVectorEnv>(
                f.netlist, f.rare, f.matrix, env_cfg, &lane_pool, lanes);
          });
      std::vector<rl::PpoUpdateStats> lane_stats;
      for (int u = 0; u < 2; ++u) lane_stats.push_back(vectorized.update());

      for (const std::size_t scalar_lanes : {std::size_t{3}, std::size_t{1}}) {
        SCOPED_TRACE(testing::Message() << "reward=" << static_cast<int>(reward)
                                        << " mask=" << static_cast<int>(mask)
                                        << " scalar_lanes=" << scalar_lanes);
        DistinctSetPool scalar_pool;
        PpoConfig scalar_cfg = lanes_cfg;
        scalar_cfg.rollout_lanes = scalar_lanes;
        PpoTrainer reference(
            [&](std::size_t) {
              return std::make_unique<CompatibleSetEnv>(f.netlist, f.rare, f.matrix,
                                                        env_cfg, &scalar_pool);
            },
            scalar_cfg, 61);

        for (int u = 0; u < 2; ++u)
          expect_stats_equal(reference.update(), lane_stats[static_cast<std::size_t>(u)]);
        EXPECT_EQ(reference.policy().flat_params(), vectorized.policy().flat_params());
        EXPECT_EQ(reference.value().flat_params(), vectorized.value().flat_params());
        EXPECT_EQ(scalar_pool.size(), lane_pool.size());
        EXPECT_EQ(scalar_pool.k_largest(scalar_pool.size()),
                  lane_pool.k_largest(lane_pool.size()));
      }
    }
  }
}

}  // namespace
}  // namespace deterrent
