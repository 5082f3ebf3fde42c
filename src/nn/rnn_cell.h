#ifndef PA_NN_RNN_CELL_H_
#define PA_NN_RNN_CELL_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// Vanilla (Elman) recurrent cell: h' = tanh(x W_x + h W_h + b). The "RNN"
/// baseline of the paper's Tables I–II.
class RnnCell : public Module {
 public:
  RnnCell(int input_dim, int hidden_dim, util::Rng& rng);

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
  tensor::Tensor w_x_;
  tensor::Tensor w_h_;
  tensor::Tensor b_;
};

}  // namespace pa::nn

#endif  // PA_NN_RNN_CELL_H_
