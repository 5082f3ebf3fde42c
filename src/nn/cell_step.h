#ifndef PA_NN_CELL_STEP_H_
#define PA_NN_CELL_STEP_H_

#include "nn/lstm.h"
#include "tensor/tensor.h"

namespace pa::nn::step {

/// Direct inference steps of the recurrent cells.
///
/// Each function runs one step of a cell's fixed equations straight
/// through the active kernel table: the input and recurrent products
/// (`detail::MatMulForward`), then the fused elementwise entries (`add3`,
/// `gate_act`, `cell_update`, `lerp`, `tanh_mul`). There is no autograd
/// graph and no per-op dispatch; interior values live in a per-thread
/// scratch buffer and the outputs are pooled inference tensors.
///
/// Contract, asserted by tests/tensor_fusion_test.cc:
///  - Bit-identical to the cell's op composition (`ForwardOps`) on the same
///    kernel table, under inference mode and on the graph path alike. Each
///    fused kernel computes the exact per-element FP sequence of the op
///    chain it stands for (see kernels.h).
///  - The batch is the row count of `x`; every state has the same rows, so
///    B > 1 runs the same code with a GEMM.
///  - Weights are read through their live storage on every step, so an
///    in-place weight update is visible to the next step.
///
/// Cells call these from `Forward` when `Applies` holds; training (graph
/// mode) and any other shape take the op composition instead.

/// True when the direct step can run: inference mode is on, `x` is
/// `[B, input_dim]` and `state` (both h and c of an LstmState) is
/// `[B, hidden_dim]`.
bool Applies(const tensor::Tensor& x, int input_dim,
             const tensor::Tensor& state, int hidden_dim);
bool Applies(const tensor::Tensor& x, int input_dim, const LstmState& state,
             int hidden_dim);

/// LSTM with gate layout [i, f, g, o]: w_x `[in, 4h]`, w_h `[h, 4h]`,
/// b `[1, 4h]`.
LstmState Lstm(const tensor::Tensor& x, const LstmState& prev,
               const tensor::Tensor& w_x, const tensor::Tensor& w_h,
               const tensor::Tensor& b);

/// The ST-CLSTM parameters, laid out as in `StClstmCell`.
struct StClstmWeights {
  const tensor::Tensor& w_x;   // [in, 3h] for i, g, o.
  const tensor::Tensor& w_h;   // [h, 3h]
  const tensor::Tensor& b;     // [1, 3h]
  const tensor::Tensor& w_xt;  // [in, h] time gate.
  const tensor::Tensor& w_t;   // [1, h]
  const tensor::Tensor& b_t;   // [1, h]
  const tensor::Tensor& w_xd;  // [in, h] distance gate.
  const tensor::Tensor& w_d;   // [1, h]
  const tensor::Tensor& b_d;   // [1, h]
};

LstmState StClstm(const tensor::Tensor& x, const LstmState& prev,
                  float delta_t, float delta_d, const StClstmWeights& w);

/// GRU with gate layout [z, r, n]: w_x `[in, 3h]`, w_h `[h, 3h]`,
/// b `[1, 3h]`. The candidate's recurrent product reads the `[2h, 3h)`
/// column block of w_h in place.
tensor::Tensor Gru(const tensor::Tensor& x, const tensor::Tensor& h,
                   const tensor::Tensor& w_x, const tensor::Tensor& w_h,
                   const tensor::Tensor& b);

/// Elman step h' = tanh(x w_x + h w_h + b). ST-RNN runs it with the
/// weights its interval buckets select.
tensor::Tensor Rnn(const tensor::Tensor& x, const tensor::Tensor& h,
                   const tensor::Tensor& w_x, const tensor::Tensor& w_h,
                   const tensor::Tensor& b);

}  // namespace pa::nn::step

#endif  // PA_NN_CELL_STEP_H_
