#ifndef PA_NN_GRU_CELL_H_
#define PA_NN_GRU_CELL_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// Gated recurrent unit (Cho et al., 2014) — the other recurrent family the
/// paper's related work builds on (e.g. the CARA line adds contextual gates
/// to a GRU). Provided so downstream users can swap recurrent cores.
///
///   z = sigmoid(x W_xz + h W_hz + b_z)      (update gate)
///   r = sigmoid(x W_xr + h W_hr + b_r)      (reset gate)
///   n = tanh(x W_xn + (r ∘ h) W_hn + b_n)   (candidate)
///   h' = (1 - z) ∘ n + z ∘ h
class GruCell : public Module {
 public:
  GruCell(int input_dim, int hidden_dim, util::Rng& rng);

  /// x is `[batch, input_dim]`, h is `[batch, hidden_dim]`. Under
  /// inference mode this is the direct step (nn/cell_step.h); otherwise it
  /// is `ForwardOps`.
  tensor::Tensor Forward(const tensor::Tensor& x,
                         const tensor::Tensor& h) const;

  /// The step as a composition of tensor ops (training's autograd path and
  /// the direct step's bitwise reference).
  tensor::Tensor ForwardOps(const tensor::Tensor& x,
                            const tensor::Tensor& h) const;

  tensor::Tensor InitialState(int batch) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  tensor::Tensor w_x_;  // [input_dim, 3 * hidden] for z, r, n.
  tensor::Tensor w_h_;  // [hidden, 3 * hidden]
  tensor::Tensor b_;    // [1, 3 * hidden]
};

}  // namespace pa::nn

#endif  // PA_NN_GRU_CELL_H_
