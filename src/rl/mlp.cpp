#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "rl/mlp_kernels.hpp"
#include "util/assert.hpp"

namespace deterrent::rl {

std::size_t append_nonzeros(std::span<const float> row, std::vector<std::uint32_t>& cols,
                            std::vector<float>& vals, std::size_t used) {
  if (cols.size() < used + row.size()) {
    cols.resize(used + row.size());
    vals.resize(used + row.size());
  }
  std::uint32_t* c = cols.data();
  float* v = vals.data();
  for (std::size_t i = 0; i < row.size(); ++i) {
    c[used] = static_cast<std::uint32_t>(i);
    v[used] = row[i];
    used += row[i] != 0.0f ? 1 : 0;
  }
  return used;
}

Mlp::Mlp(std::vector<std::size_t> layer_sizes, util::Rng& rng)
    : layer_sizes_(std::move(layer_sizes)),
      kernels_(&kernels::select_mlp_kernels()) {
  DETERRENT_ASSERT(layer_sizes_.size() >= 2, "Mlp needs at least input and output");
  layers_.resize(layer_sizes_.size() - 1);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    auto& layer = layers_[l];
    layer.in = layer_sizes_[l];
    layer.out = layer_sizes_[l + 1];
    layer.w.resize(layer.in * layer.out);
    layer.b.assign(layer.out, 0.0f);
    layer.gw.assign(layer.w.size(), 0.0f);
    layer.gb.assign(layer.out, 0.0f);
    // Scaled normal init (Xavier-style); the output layer gets a smaller
    // scale so initial policies are near-uniform and values near zero.
    const bool is_output = l + 1 == layers_.size();
    const double scale =
        (is_output ? 0.01 : 1.0) * std::sqrt(2.0 / static_cast<double>(layer.in));
    for (auto& w : layer.w) w = static_cast<float>(rng.normal() * scale);
  }
}

std::vector<float> Mlp::forward(std::span<const float> input, Workspace& ws) const {
  DETERRENT_ASSERT(input.size() == input_size(), "Mlp::forward input size mismatch");
  ws.post.resize(layers_.size());

  std::span<const float> x = input;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const auto& layer = layers_[l];
    auto& out = ws.post[l];
    out.assign(layer.out, 0.0f);
    for (std::size_t o = 0; o < layer.out; ++o) {
      const float* wrow = layer.w.data() + o * layer.in;
      float acc = layer.b[o];
      for (std::size_t i = 0; i < layer.in; ++i) acc += wrow[i] * x[i];
      out[o] = acc;
    }
    if (l + 1 < layers_.size()) kernels_->tanh(out.data(), out.data(), out.size());
    x = out;
  }
  return ws.post.back();
}

void Mlp::backward(std::span<const float> input, const Workspace& ws,
                   std::span<const float> output_grad) {
  DETERRENT_ASSERT(ws.post.size() == layers_.size(), "workspace/layer mismatch");
  DETERRENT_ASSERT(output_grad.size() == output_size(), "output grad size mismatch");

  std::vector<float> grad(output_grad.begin(), output_grad.end());
  for (std::size_t l = layers_.size(); l-- > 0;) {
    auto& layer = layers_[l];
    const std::span<const float> x =
        l == 0 ? input : std::span<const float>(ws.post[l - 1]);

    // grad currently holds dL/d(pre-activation) of layer l: for hidden layers
    // the tanh derivative was applied by the previous iteration; the output
    // layer is linear.
    std::vector<float> prev_grad(layer.in, 0.0f);
    for (std::size_t o = 0; o < layer.out; ++o) {
      const float g = grad[o];
      if (g == 0.0f) continue;
      float* gw_row = layer.gw.data() + o * layer.in;
      const float* w_row = layer.w.data() + o * layer.in;
      for (std::size_t i = 0; i < layer.in; ++i) {
        gw_row[i] += g * x[i];
        prev_grad[i] += g * w_row[i];
      }
      layer.gb[o] += g;
    }
    if (l > 0) {
      // Chain through the tanh of layer l-1: post = tanh(pre) ⇒ d pre = (1-post²) d post.
      const auto& post = ws.post[l - 1];
      for (std::size_t i = 0; i < post.size(); ++i)
        prev_grad[i] *= 1.0f - post[i] * post[i];
      grad = std::move(prev_grad);
    }
  }
}

std::span<const float> Mlp::forward_batch(std::span<const float> input,
                                          std::size_t rows,
                                          BatchWorkspace& ws) const {
  DETERRENT_ASSERT(input.size() == rows * input_size(),
                   "Mlp::forward_batch input size mismatch");
  const std::size_t in0 = input_size();
  ws.row_off.assign(1, 0);
  for (std::size_t n = 0; n < rows; ++n)
    ws.row_off.push_back(static_cast<std::uint32_t>(append_nonzeros(
        input.subspan(n * in0, in0), ws.row_cols, ws.row_vals, ws.row_off.back())));
  return forward_recorded_rows(rows, ws);
}

std::span<const float> Mlp::forward_batch(std::span<const SparseRow> rows,
                                          BatchWorkspace& ws) const {
  // Copy each row's list, dropping ±0 values the way the dense scan does.
  const std::size_t in0 = input_size();
  ws.row_off.assign(1, 0);
  for (const SparseRow& row : rows) {
    DETERRENT_ASSERT(row.cols.size() == row.vals.size(),
                     "Mlp::forward_batch sparse row cols/vals size mismatch");
    const std::size_t used = ws.row_off.back();
    if (ws.row_cols.size() < used + row.cols.size()) {
      ws.row_cols.resize(used + row.cols.size());
      ws.row_vals.resize(used + row.cols.size());
    }
    std::uint32_t* cols = ws.row_cols.data() + used;
    float* vals = ws.row_vals.data() + used;
    std::size_t count = 0;
    std::size_t next = 0;  // smallest column the next entry may name
    bool ordered = true;
    for (std::size_t j = 0; j < row.cols.size(); ++j) {
      const std::uint32_t c = row.cols[j];
      ordered &= c >= next && c < in0;
      next = std::size_t{c} + 1;
      cols[count] = c;
      vals[count] = row.vals[j];
      count += row.vals[j] != 0.0f ? 1 : 0;
    }
    DETERRENT_ASSERT(ordered,
                     "Mlp::forward_batch sparse row columns must ascend below input_size");
    ws.row_off.push_back(static_cast<std::uint32_t>(used + count));
  }
  return forward_recorded_rows(rows.size(), ws);
}

std::span<const float> Mlp::forward_recorded_rows(std::size_t rows,
                                                  BatchWorkspace& ws) const {
  constexpr std::size_t kTile = kernels::kMlpLanes;
  DETERRENT_ASSERT(rows > 0, "Mlp::forward_batch needs at least one row");
  ws.rows = rows;
  ws.post.resize(layers_.size());
  std::size_t widest = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    ws.post[l].resize(rows * layers_[l].out);
    widest = std::max(widest, layers_[l].out);
  }
  // scratch = the transposed input tile, then two lane-major layer-output
  // tiles that alternate as each layer's result and the next layer's input.
  const std::size_t in0 = input_size();
  ws.scratch.resize(kTile * (in0 + 2 * widest));
  float* const xt0 = ws.scratch.data();
  float* const tiles[2] = {xt0 + kTile * in0, xt0 + kTile * (in0 + widest)};
  // Only the recorded nonzeros are written into the (zeroed) input tile;
  // each tile clears what the previous one wrote. The raw observations of
  // this MDP are mostly-zero indicator vectors, so the first layer also
  // skips the columns that are zero across the whole tile.
  std::fill(xt0, xt0 + kTile * in0, 0.0f);
  ws.nz.assign(in0, 0);
  ws.cols.clear();

  for (std::size_t n0 = 0; n0 < rows; n0 += kTile) {
    const std::size_t tn = std::min(kTile, rows - n0);
    for (const std::uint32_t i : ws.cols) {
      std::fill_n(xt0 + i * kTile, kTile, 0.0f);
      ws.nz[i] = 0;
    }
    // Transpose the tile to lane-major, so the kernels read both the weight
    // rows and the input lanes with unit stride.
    for (std::size_t n = 0; n < tn; ++n)
      for (std::uint32_t j = ws.row_off[n0 + n]; j < ws.row_off[n0 + n + 1]; ++j) {
        xt0[ws.row_cols[j] * kTile + n] = ws.row_vals[j];
        ws.nz[ws.row_cols[j]] = 1;
      }
    ws.cols.clear();
    for (std::size_t i = 0; i < in0; ++i)
      if (ws.nz[i] != 0) ws.cols.push_back(static_cast<std::uint32_t>(i));

    // The tile runs through every layer before the next tile starts: each
    // layer's lane-major output tile is the next layer's input tile as is.
    const float* xt = xt0;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const auto& layer = layers_[l];
      float* acc = tiles[l % 2];
      kernels_->forward_tile(layer.w.data(), layer.b.data(), layer.in, layer.out, xt,
                             l == 0 ? ws.cols.data() : nullptr, ws.cols.size(), acc);
      if (l + 1 < layers_.size()) kernels_->tanh(acc, acc, layer.out * kTile);
      kernels_->tile_to_rows(acc, layer.out, tn, ws.post[l].data() + n0 * layer.out);
      xt = acc;
    }
  }
  return ws.post.back();
}

void Mlp::backward_batch(BatchWorkspace& ws, std::span<const float> output_grads) {
  constexpr std::size_t kTile = kernels::kMlpLanes;
  const std::size_t rows = ws.rows;
  DETERRENT_ASSERT(rows > 0 && ws.post.size() == layers_.size() &&
                       ws.row_off.size() == rows + 1,
                   "Mlp::backward_batch workspace/layer mismatch");
  DETERRENT_ASSERT(output_grads.size() == rows * output_size(),
                   "Mlp::backward_batch output grad size mismatch");

  // grad holds dL/d(pre-activation) of layer l (rows × out): the output
  // layer is linear, and each hidden layer's tanh derivative is applied by
  // the layer above it.
  std::size_t l = layers_.size() - 1;
  const float* grad = output_grads.data();
  std::vector<float> grad_buf;
  std::vector<float> prev_grad;
  if (l > 0) {
    backward_output_layer(ws, grad, grad_buf);
    grad = grad_buf.data();
    --l;
  }
  for (; l > 0; --l) {
    auto& layer = layers_[l];
    // Weight/bias gradients over row tiles (rows ascending per element), so
    // the x tile stays L1-resident while each gw row streams through once
    // per tile; then the input gradients (outputs ascending per element),
    // chained through the previous layer's tanh.
    const float* x = ws.post[l - 1].data();
    for (std::size_t n0 = 0; n0 < rows; n0 += kTile)
      kernels_->grad_weights(grad + n0 * layer.out, x + n0 * layer.in,
                             std::min(kTile, rows - n0), layer.in, layer.out,
                             layer.gw.data(), layer.gb.data());
    prev_grad.resize(rows * layer.in);
    kernels_->grad_inputs(grad, layer.w.data(), rows, layer.in, layer.out, x,
                          prev_grad.data());
    grad_buf.swap(prev_grad);
    grad = grad_buf.data();
  }
  backward_first_layer(ws, grad);
}

void Mlp::backward_output_layer(BatchWorkspace& ws, const float* output_grads,
                                std::vector<float>& grad) {
  // A g == ±0 entry is exactly a term backward() skips, so listing each
  // row's nonzero output gradients gives the fused kernel the same terms in
  // the same order.
  auto& layer = layers_.back();
  const std::size_t out = layer.out;
  ws.grad_off.assign(1, 0);
  for (std::size_t n = 0; n < ws.rows; ++n)
    ws.grad_off.push_back(static_cast<std::uint32_t>(
        append_nonzeros(std::span<const float>(output_grads + n * out, out), ws.grad_idx,
                        ws.grad_vals, ws.grad_off.back())));
  grad.resize(ws.rows * layer.in);
  kernels_->output_backward(ws.grad_off.data(), ws.grad_idx.data(), ws.grad_vals.data(),
                            ws.post[layers_.size() - 2].data(), layer.w.data(), ws.rows,
                            layer.in, layer.gw.data(), layer.gb.data(), grad.data());
}

void Mlp::backward_first_layer(const BatchWorkspace& ws, const float* grad) {
  // The first layer sees the raw mostly-zero observations, so it only
  // touches the nonzero columns forward_batch recorded per row. Skipping a
  // zero column is exact: the term is g·(±0) = ±0, and adding a signed zero
  // to a gradient accumulator never changes it — gw and gb start at +0
  // (zero_grad) and IEEE round-to-nearest keeps zero sums at +0
  // ((+0) + (−0) = +0; nonzero terms that cancel round to +0), so an
  // accumulator never holds −0.0f for a signed zero to flip. By the same
  // argument the kernel need not skip g == 0 terms the way backward() does.
  //
  // The touched columns are gathered into a transposed buffer, one row of
  // `out` gradients per column, so each nonzero of a row updates all
  // outputs with unit stride; rows still arrive in ascending order.
  auto& layer = layers_.front();
  const std::size_t in = layer.in;
  const std::size_t out = layer.out;
  std::vector<std::uint32_t> slot_of(in, 0);  // column → 1 + transposed row
  std::vector<std::uint32_t> touched;         // column of each transposed row
  std::vector<std::uint32_t> slots(ws.row_off.back());
  for (std::size_t j = 0; j < slots.size(); ++j) {
    const std::uint32_t i = ws.row_cols[j];
    if (slot_of[i] == 0) {
      touched.push_back(i);
      slot_of[i] = static_cast<std::uint32_t>(touched.size());
    }
    slots[j] = slot_of[i] - 1;
  }
  std::vector<float> gwt(touched.size() * out);
  for (std::size_t s = 0; s < touched.size(); ++s)
    for (std::size_t o = 0; o < out; ++o) gwt[s * out + o] = layer.gw[o * in + touched[s]];
  for (std::size_t n = 0; n < ws.rows; ++n) {
    const std::uint32_t begin = ws.row_off[n];
    kernels_->grad_weights_cols(grad + n * out, out, ws.row_vals.data() + begin,
                                slots.data() + begin, ws.row_off[n + 1] - begin,
                                gwt.data(), layer.gb.data());
  }
  for (std::size_t s = 0; s < touched.size(); ++s)
    for (std::size_t o = 0; o < out; ++o) layer.gw[o * in + touched[s]] = gwt[s * out + o];
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) {
    std::fill(layer.gw.begin(), layer.gw.end(), 0.0f);
    std::fill(layer.gb.begin(), layer.gb.end(), 0.0f);
  }
}

std::vector<ParamRef> Mlp::params() {
  std::vector<ParamRef> refs;
  refs.reserve(layers_.size() * 2);
  for (auto& layer : layers_) {
    refs.push_back({layer.w.data(), layer.gw.data(), layer.w.size()});
    refs.push_back({layer.b.data(), layer.gb.data(), layer.b.size()});
  }
  return refs;
}

void Mlp::copy_params_from(const Mlp& other) {
  DETERRENT_ASSERT(layer_sizes_ == other.layer_sizes_, "Mlp shape mismatch");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].w = other.layers_[l].w;
    layers_[l].b = other.layers_[l].b;
  }
}

std::size_t Mlp::param_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.w.size() + layer.b.size();
  return total;
}

std::vector<float> Mlp::flat_params() const {
  std::vector<float> flat;
  flat.reserve(param_count());
  for (const auto& layer : layers_) {
    flat.insert(flat.end(), layer.w.begin(), layer.w.end());
    flat.insert(flat.end(), layer.b.begin(), layer.b.end());
  }
  return flat;
}

void Mlp::set_flat_params(std::span<const float> flat) {
  if (flat.size() != param_count())
    throw Error("Mlp::set_flat_params: image has " + std::to_string(flat.size()) +
                " parameters, network needs " + std::to_string(param_count()));
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos), layer.w.size(),
                layer.w.begin());
    pos += layer.w.size();
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos), layer.b.size(),
                layer.b.begin());
    pos += layer.b.size();
  }
}

}  // namespace deterrent::rl
