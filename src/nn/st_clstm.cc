#include "nn/st_clstm.h"

#include "nn/cell_step.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace pa::nn {

namespace {

using tensor::Tensor;

// 1 - x, elementwise.
Tensor OneMinus(const Tensor& x) {
  return tensor::AddScalar(tensor::Scale(x, -1.0f), 1.0f);
}

}  // namespace

StClstmCell::StClstmCell(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(tensor::XavierInit({input_dim, 3 * hidden_dim}, rng)),
      w_h_(tensor::XavierInit({hidden_dim, 3 * hidden_dim}, rng)),
      b_(tensor::Tensor::Zeros({1, 3 * hidden_dim}, /*requires_grad=*/true)),
      w_xt_(tensor::XavierInit({input_dim, hidden_dim}, rng)),
      w_t_(tensor::UniformInit({1, hidden_dim}, 0.1f, rng)),
      b_t_(tensor::Tensor::Full({1, hidden_dim}, 1.0f,
                                /*requires_grad=*/true)),
      w_xd_(tensor::XavierInit({input_dim, hidden_dim}, rng)),
      w_d_(tensor::UniformInit({1, hidden_dim}, 0.1f, rng)),
      b_d_(tensor::Tensor::Full({1, hidden_dim}, 1.0f,
                                /*requires_grad=*/true)) {}

LstmState StClstmCell::Forward(const tensor::Tensor& x, const LstmState& prev,
                               float delta_t, float delta_d) const {
  if (step::Applies(x, input_dim_, prev, hidden_dim_)) {
    return step::StClstm(
        x, prev, delta_t, delta_d,
        {w_x_, w_h_, b_, w_xt_, w_t_, b_t_, w_xd_, w_d_, b_d_});
  }
  return ForwardOps(x, prev, delta_t, delta_d);
}

LstmState StClstmCell::ForwardOps(const tensor::Tensor& x,
                                  const LstmState& prev, float delta_t,
                                  float delta_d) const {
  const int h = hidden_dim_;
  Tensor gates = tensor::Add(
      tensor::Add(tensor::MatMul(x, w_x_), tensor::MatMul(prev.h, w_h_)), b_);
  Tensor i = tensor::Sigmoid(tensor::SliceCols(gates, 0, h));
  Tensor g = tensor::Tanh(tensor::SliceCols(gates, h, h));
  Tensor o = tensor::Sigmoid(tensor::SliceCols(gates, 2 * h, h));

  Tensor t_gate = tensor::Sigmoid(tensor::Add(
      tensor::Add(tensor::MatMul(x, w_xt_), tensor::Scale(w_t_, delta_t)),
      b_t_));
  Tensor d_gate = tensor::Sigmoid(tensor::Add(
      tensor::Add(tensor::MatMul(x, w_xd_), tensor::Scale(w_d_, delta_d)),
      b_d_));

  Tensor effective_i = tensor::Mul(tensor::Mul(i, t_gate), d_gate);
  Tensor c = tensor::Add(tensor::Mul(OneMinus(effective_i), prev.c),
                         tensor::Mul(effective_i, g));
  Tensor hh = tensor::Mul(o, tensor::Tanh(c));
  return {std::move(hh), std::move(c)};
}

LstmState StClstmCell::InitialState(int batch) const {
  return {tensor::Tensor::Zeros({batch, hidden_dim_}),
          tensor::Tensor::Zeros({batch, hidden_dim_})};
}

std::vector<tensor::Tensor> StClstmCell::Parameters() const {
  return {w_x_, w_h_, b_, w_xt_, w_t_, b_t_, w_xd_, w_d_, b_d_};
}

}  // namespace pa::nn
