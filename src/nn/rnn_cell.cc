#include "nn/rnn_cell.h"

#include "nn/cell_step.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace pa::nn {

RnnCell::RnnCell(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(tensor::XavierInit({input_dim, hidden_dim}, rng)),
      w_h_(tensor::XavierInit({hidden_dim, hidden_dim}, rng)),
      b_(tensor::Tensor::Zeros({1, hidden_dim}, /*requires_grad=*/true)) {}

tensor::Tensor RnnCell::Forward(const tensor::Tensor& x,
                                const tensor::Tensor& h) const {
  if (step::Applies(x, input_dim_, h, hidden_dim_)) {
    return step::Rnn(x, h, w_x_, w_h_, b_);
  }
  return ForwardOps(x, h);
}

tensor::Tensor RnnCell::ForwardOps(const tensor::Tensor& x,
                                   const tensor::Tensor& h) const {
  return tensor::Tanh(tensor::Add(
      tensor::Add(tensor::MatMul(x, w_x_), tensor::MatMul(h, w_h_)), b_));
}

tensor::Tensor RnnCell::InitialState(int batch) const {
  return tensor::Tensor::Zeros({batch, hidden_dim_});
}

std::vector<tensor::Tensor> RnnCell::Parameters() const {
  return {w_x_, w_h_, b_};
}

}  // namespace pa::nn
