#include "nn/gru_cell.h"

#include "nn/cell_step.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace pa::nn {

namespace {

using tensor::Tensor;

Tensor OneMinus(const Tensor& x) {
  return tensor::AddScalar(tensor::Scale(x, -1.0f), 1.0f);
}

}  // namespace

GruCell::GruCell(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(tensor::XavierInit({input_dim, 3 * hidden_dim}, rng)),
      w_h_(tensor::XavierInit({hidden_dim, 3 * hidden_dim}, rng)),
      b_(tensor::Tensor::Zeros({1, 3 * hidden_dim}, /*requires_grad=*/true)) {}

tensor::Tensor GruCell::Forward(const tensor::Tensor& x,
                                const tensor::Tensor& h) const {
  if (step::Applies(x, input_dim_, h, hidden_dim_)) {
    return step::Gru(x, h, w_x_, w_h_, b_);
  }
  return ForwardOps(x, h);
}

tensor::Tensor GruCell::ForwardOps(const tensor::Tensor& x,
                                   const tensor::Tensor& h) const {
  const int hd = hidden_dim_;
  Tensor xg = tensor::Add(tensor::MatMul(x, w_x_), b_);
  Tensor hg = tensor::MatMul(h, w_h_);

  Tensor z = tensor::Sigmoid(tensor::Add(tensor::SliceCols(xg, 0, hd),
                                         tensor::SliceCols(hg, 0, hd)));
  Tensor r = tensor::Sigmoid(tensor::Add(tensor::SliceCols(xg, hd, hd),
                                         tensor::SliceCols(hg, hd, hd)));
  // Candidate uses the reset-gated hidden state.
  Tensor n_h =
      tensor::MatMul(tensor::Mul(r, h), tensor::SliceCols(w_h_, 2 * hd, hd));
  Tensor n = tensor::Tanh(tensor::Add(tensor::SliceCols(xg, 2 * hd, hd), n_h));
  return tensor::Add(tensor::Mul(OneMinus(z), n), tensor::Mul(z, h));
}

tensor::Tensor GruCell::InitialState(int batch) const {
  return tensor::Tensor::Zeros({batch, hidden_dim_});
}

std::vector<tensor::Tensor> GruCell::Parameters() const {
  return {w_x_, w_h_, b_};
}

}  // namespace pa::nn
