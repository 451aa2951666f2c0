#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace deterrent::rl {

namespace kernels {
struct MlpKernelTable;
}  // namespace kernels

/// View over one parameter tensor and its gradient accumulator. The Adam
/// optimizer consumes a flat list of these.
struct ParamRef {
  float* values = nullptr;
  float* grads = nullptr;
  std::size_t size = 0;
};

/// Lists the nonzero entries of `row` (±0 counts as zero) into cols/vals
/// from index `used` on, columns ascending, and returns the end of the
/// list. Branch-free: every column is written and only nonzeros advance, so
/// the vectors grow to at least used + row.size() and the entries past the
/// returned end are scratch.
std::size_t append_nonzeros(std::span<const float> row, std::vector<std::uint32_t>& cols,
                            std::vector<float>& vals, std::size_t used);

/// Fully connected multi-layer perceptron with tanh hidden activations and a
/// linear output layer — the policy/value network architecture of the paper's
/// PPO agent (§2.2). Forward and backward passes are hand-written; gradients
/// are validated against finite differences in the test suite.
///
/// forward() is const and thread-safe, enabling lock-free vectorized rollouts
/// (multiple workers run inference on a shared network snapshot, §4.1).
class Mlp {
 public:
  /// layer_sizes = {input, hidden..., output}; weights get orthogonal-ish
  /// scaled-normal init, biases start at zero.
  Mlp(std::vector<std::size_t> layer_sizes, util::Rng& rng);

  std::size_t input_size() const { return layer_sizes_.front(); }
  std::size_t output_size() const { return layer_sizes_.back(); }

  /// Per-sample activation cache for backward().
  struct Workspace {
    std::vector<std::vector<float>> post;  ///< post-activation per layer (incl. output)
  };

  /// Computes the output for one observation. Thread-safe.
  std::vector<float> forward(std::span<const float> input, Workspace& ws) const;

  /// Accumulates parameter gradients for dL/d-output `output_grad`, given the
  /// workspace and input from the matching forward() call.
  void backward(std::span<const float> input, const Workspace& ws,
                std::span<const float> output_grad);

  /// Activation cache for a whole row batch (forward_batch / backward_batch).
  struct BatchWorkspace {
    std::size_t rows = 0;
    std::vector<std::vector<float>> post;  ///< per layer: rows × out, row-major
    std::vector<float> scratch;            ///< transposed input + layer-output tiles
    std::vector<unsigned char> nz;         ///< layer-0 tile: column has a nonzero
    std::vector<std::uint32_t> cols;       ///< layer-0 tile: nonzero column list
    /// Per input row, its nonzero columns (ascending) and their values:
    /// row n owns [row_off[n], row_off[n+1]) (entries past row_off.back()
    /// are stale). Recorded by forward_batch; the first layer's forward
    /// tiles and backward_batch's first-layer weight gradient read them.
    std::vector<std::uint32_t> row_cols;
    std::vector<float> row_vals;
    std::vector<std::uint32_t> row_off;
    /// backward_batch's per-row nonzero output gradients, in the same
    /// [off[n], off[n+1]) layout: the output layer's sparse input.
    std::vector<std::uint32_t> grad_idx;
    std::vector<float> grad_vals;
    std::vector<std::uint32_t> grad_off;
  };

  /// One input row given by its nonzero entries: vals[j] sits at column
  /// cols[j], columns strictly ascending and below input_size(). Every
  /// other column is zero.
  struct SparseRow {
    std::span<const std::uint32_t> cols;
    std::span<const float> vals;
  };

  /// Computes outputs for `rows` stacked observations (row-major, rows ×
  /// input_size) in one matrix–matrix pass. Row r of the returned rows ×
  /// output_size span is bit-identical to forward() on that row alone: every
  /// output element is the same ascending-index accumulation chain. Rows
  /// run in tiles of kernels::kMlpLanes, each tile through every layer in
  /// turn, so a weight matrix streams once per tile instead of once per
  /// row. The kernels (mlp_kernels.hpp, widest backend the host supports;
  /// all backends bit-identical, no FMA contraction) keep several outputs'
  /// add chains in flight per load of the input tile, and the hidden tanh
  /// runs vectorized, bit-exact to fdlibm's tanhf. Input columns that are
  /// zero across the whole tile are skipped in the first layer: each skipped
  /// term is a signed zero added to an accumulator that can never hold -0.0f
  /// (biases start at +0 and IEEE round-to-nearest addition of nonzero terms
  /// cannot produce -0), so the skip is exact — and on this MDP's
  /// mostly-zero indicator observations it removes most of the layer-0 work.
  /// Thread-safe.
  std::span<const float> forward_batch(std::span<const float> input,
                                       std::size_t rows, BatchWorkspace& ws) const;

  /// Sparse-row variant: row r is rows[r]'s nonzero list. Bit-identical to
  /// the span overload on the same rows written out densely (an entry whose
  /// value is ±0 counts as absent, as a dense zero does) — the trainer keeps
  /// each observation as its nonzero list, so neither the collector nor the
  /// minibatch passes rescan or copy dense rows. Thread-safe.
  std::span<const float> forward_batch(std::span<const SparseRow> rows,
                                       BatchWorkspace& ws) const;

  /// Batch counterpart of backward(): accumulates parameter gradients for the
  /// row-major rows × output_grads, given the workspace of the matching
  /// forward_batch(), which holds the activations and each input row's
  /// nonzeros (its gradient lists are reused as scratch). Every element
  /// takes the same terms in the same order as row-by-row backward():
  /// weight/bias gradients rows ascending, input gradients outputs
  /// ascending, and every g == 0 term skipped. The output layer runs one
  /// fused row-outer pass over each row's nonzero output gradients — under
  /// action masking most of a policy row is exact zeros, which this pass
  /// never visits. Hidden layers run two register-blocked passes (weight
  /// gradients over row tiles, then input gradients), and the first layer
  /// walks the per-row nonzero columns of the mostly-zero observations and
  /// computes no input gradient (backward() computes and discards it).
  /// Skipping a g·(±0) term is exact because a gradient accumulator never
  /// holds −0.0f (it starts at +0 and round-to-nearest keeps every
  /// zero-valued sum at +0).
  void backward_batch(BatchWorkspace& ws, std::span<const float> output_grads);

  void zero_grad();

  /// Flat parameter/gradient views for the optimizer.
  std::vector<ParamRef> params();

  /// Copies parameter values from another identically shaped network
  /// (used to snapshot the policy for rollout workers).
  void copy_params_from(const Mlp& other);

  std::size_t param_count() const;

  const std::vector<std::size_t>& layer_sizes() const { return layer_sizes_; }

  /// All parameters as one flat vector, in params() order (per layer:
  /// weights then biases) — the serialization image of the network.
  std::vector<float> flat_params() const;

  /// Restores parameters from a flat_params() image. Throws deterrent::Error
  /// when the size does not match this network's shape.
  void set_flat_params(std::span<const float> flat);

 private:
  /// The tiled forward over the per-row nonzero lists both forward_batch
  /// overloads record in ws.
  std::span<const float> forward_recorded_rows(std::size_t rows,
                                               BatchWorkspace& ws) const;
  /// Output-layer backward_batch step (networks with a hidden layer): writes
  /// dL/d(pre-activation) of the last hidden layer into `grad`.
  void backward_output_layer(BatchWorkspace& ws, const float* output_grads,
                             std::vector<float>& grad);
  /// Layer-0 weight/bias gradients of backward_batch (sparse observations).
  void backward_first_layer(const BatchWorkspace& ws, const float* grad);

  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<float> w;   // row-major out×in
    std::vector<float> b;   // out
    std::vector<float> gw;  // gradient accumulators
    std::vector<float> gb;
  };

  std::vector<std::size_t> layer_sizes_;
  std::vector<Layer> layers_;
  /// SIMD backend for the batched passes, selected at construction
  /// (DETERRENT_FORCE_ISA honored). Never serialized; every backend is
  /// bit-identical, so a checkpoint moves freely between hosts.
  const kernels::MlpKernelTable* kernels_;
};

}  // namespace deterrent::rl
