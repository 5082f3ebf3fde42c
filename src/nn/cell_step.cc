#include "nn/cell_step.h"

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "tensor/buffer_pool.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace pa::nn::step {

namespace {

using tensor::Tensor;
using tensor::kernels::KernelTable;

// gate_act slice codes.
constexpr uint8_t kSig = 0;
constexpr uint8_t kTanh = 1;

// Interior values of one step (matmul results, gate rows). One buffer per
// thread is enough: steps never nest on a thread, and MatMul's pool fan-out
// makes the calling thread wait rather than run other tasks.
float* Scratch(int64_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < static_cast<size_t>(n)) buf.resize(static_cast<size_t>(n));
  return buf.data();
}

// out = a [m, k] x w [k, n], zero-initialised first like the MatMul op.
void MatMulInto(const float* a, const Tensor& w, float* out, int m) {
  const int k = w.rows(), n = w.cols();
  std::memset(out, 0, sizeof(float) * static_cast<size_t>(m) * n);
  tensor::detail::MatMulForward(a, w.data(), out, m, k, n, 0, n);
}

std::vector<float> Output(int m, int h) {
  return tensor::internal::ThisThreadPool().Acquire(
      static_cast<size_t>(m) * h);
}

Tensor Wrap(int m, int h, std::vector<float> buf) {
  return tensor::detail::MakeInferencePooled({m, h}, std::move(buf));
}

// gates [m, w] = (x w_x + h w_h) + b, b broadcast over rows; `hw` is
// scratch of the same size.
void PreActivation(const KernelTable& kt, const Tensor& x, const Tensor& h,
                   const Tensor& w_x, const Tensor& w_h, const Tensor& b,
                   float* gates, float* hw) {
  const int m = x.rows(), w = w_x.cols();
  MatMulInto(x.data(), w_x, gates, m);
  MatMulInto(h.data(), w_h, hw, m);
  for (int r = 0; r < m; ++r) {
    float* g = gates + static_cast<int64_t>(r) * w;
    kt.add3(g, hw + static_cast<int64_t>(r) * w, b.data(), g, w);
  }
}

// T = sigmoid((x w_xs + w_s * delta) + b_s) for one ST-CLSTM interval gate,
// into `out` [m, h]; `scaled` is [1, h] scratch.
void IntervalGate(const KernelTable& kt, const Tensor& x, const Tensor& w_xs,
                  const Tensor& w_s, float delta, const Tensor& b_s,
                  float* out, float* scaled) {
  const int m = x.rows(), h = w_xs.cols();
  MatMulInto(x.data(), w_xs, out, m);
  kt.mulc(w_s.data(), delta, scaled, h);
  for (int r = 0; r < m; ++r) {
    float* o = out + static_cast<int64_t>(r) * h;
    kt.add3(o, scaled, b_s.data(), o, h);
  }
  kt.sigmoid(out, out, static_cast<int64_t>(m) * h);
}

}  // namespace

bool Applies(const Tensor& x, int input_dim, const Tensor& state,
             int hidden_dim) {
  return tensor::InferenceModeScope::Active() && x.cols() == input_dim &&
         state.rows() == x.rows() && state.cols() == hidden_dim;
}

bool Applies(const Tensor& x, int input_dim, const LstmState& state,
             int hidden_dim) {
  return Applies(x, input_dim, state.h, hidden_dim) &&
         state.c.shape() == state.h.shape();
}

LstmState Lstm(const Tensor& x, const LstmState& prev, const Tensor& w_x,
               const Tensor& w_h, const Tensor& b) {
  const KernelTable& kt = tensor::kernels::Active();
  const int m = x.rows(), h = prev.h.cols();
  const int64_t w = 4 * static_cast<int64_t>(h);
  float* gates = Scratch(2 * m * w);
  PreActivation(kt, x, prev.h, w_x, w_h, b, gates, gates + m * w);
  static constexpr uint8_t kActs[4] = {kSig, kSig, kTanh, kSig};
  kt.gate_act(gates, gates, m, h, kActs, 4);
  std::vector<float> c = Output(m, h), hh = Output(m, h);
  for (int r = 0; r < m; ++r) {
    const float* g = gates + r * w;
    float* cr = c.data() + static_cast<int64_t>(r) * h;
    // c = f*c_prev + i*g; h = o*tanh(c).
    kt.cell_update(g + h, prev.c.data() + static_cast<int64_t>(r) * h, g,
                   g + 2 * h, cr, h);
    kt.tanh_mul(g + 3 * h, cr, hh.data() + static_cast<int64_t>(r) * h, h);
  }
  return {Wrap(m, h, std::move(hh)), Wrap(m, h, std::move(c))};
}

LstmState StClstm(const Tensor& x, const LstmState& prev, float delta_t,
                  float delta_d, const StClstmWeights& w) {
  const KernelTable& kt = tensor::kernels::Active();
  const int m = x.rows(), h = prev.h.cols();
  const int64_t w3 = 3 * static_cast<int64_t>(h), mh = m * int64_t{h};
  float* gates = Scratch(2 * m * w3 + 2 * mh + h);
  float* t_gate = gates + 2 * m * w3;
  float* d_gate = t_gate + mh;
  float* scaled = d_gate + mh;
  PreActivation(kt, x, prev.h, w.w_x, w.w_h, w.b, gates, gates + m * w3);
  static constexpr uint8_t kActs[3] = {kSig, kTanh, kSig};
  kt.gate_act(gates, gates, m, h, kActs, 3);
  IntervalGate(kt, x, w.w_xt, w.w_t, delta_t, w.b_t, t_gate, scaled);
  IntervalGate(kt, x, w.w_xd, w.w_d, delta_d, w.b_d, d_gate, scaled);
  std::vector<float> c = Output(m, h), hh = Output(m, h);
  for (int r = 0; r < m; ++r) {
    const float* g = gates + r * w3;
    const int64_t off = static_cast<int64_t>(r) * h;
    float* eff_i = t_gate + off;
    // ĩ = (i * T) * D; c = ĩ*g + (1 - ĩ)*c_prev; h = o*tanh(c).
    kt.mul(g, eff_i, eff_i, h);
    kt.mul(eff_i, d_gate + off, eff_i, h);
    kt.lerp(eff_i, g + h, prev.c.data() + off, c.data() + off, h);
    kt.tanh_mul(g + 2 * h, c.data() + off, hh.data() + off, h);
  }
  return {Wrap(m, h, std::move(hh)), Wrap(m, h, std::move(c))};
}

Tensor Gru(const Tensor& x, const Tensor& h, const Tensor& w_x,
           const Tensor& w_h, const Tensor& b) {
  const KernelTable& kt = tensor::kernels::Active();
  const int m = x.rows(), hd = h.cols();
  const int64_t w3 = 3 * static_cast<int64_t>(hd);
  float* xg = Scratch(2 * m * w3 + m * int64_t{hd});
  float* hg = xg + m * w3;
  float* rh = hg + m * w3;
  MatMulInto(x.data(), w_x, xg, m);
  for (int r = 0; r < m; ++r) kt.add(xg + r * w3, b.data(), xg + r * w3, w3);
  // Only the z and r columns of h w_h are read; the n block of hg is
  // filled below from the reset-gated state.
  std::memset(hg, 0, sizeof(float) * static_cast<size_t>(m * w3));
  tensor::detail::MatMulForward(h.data(), w_h.data(), hg, m, hd, 3 * hd, 0,
                                2 * hd);
  for (int r = 0; r < m; ++r) {
    float* zr = hg + r * w3;
    kt.add(xg + r * w3, zr, zr, 2 * hd);
    kt.sigmoid(zr, zr, hd);            // z
    kt.sigmoid(zr + hd, zr + hd, hd);  // r
    kt.mul(zr + hd, h.data() + static_cast<int64_t>(r) * hd,
           rh + static_cast<int64_t>(r) * hd, hd);
  }
  // (r ∘ h) W_hn, with W_hn the [2h, 3h) column block of w_h read in place.
  tensor::detail::MatMulForward(rh, w_h.data(), hg, m, hd, 3 * hd, 2 * hd,
                                3 * hd);
  std::vector<float> out = Output(m, hd);
  for (int r = 0; r < m; ++r) {
    const float* xr = xg + r * w3;
    const float* hr = hg + r * w3;
    float* o = out.data() + static_cast<int64_t>(r) * hd;
    // n = tanh(x_n + (r∘h) W_hn); h' = z*h + (1 - z)*n.
    kt.add(xr + 2 * hd, hr + 2 * hd, o, hd);
    kt.tanh(o, o, hd);
    kt.lerp(hr, h.data() + static_cast<int64_t>(r) * hd, o, o, hd);
  }
  return Wrap(m, hd, std::move(out));
}

Tensor Rnn(const Tensor& x, const Tensor& h, const Tensor& w_x,
           const Tensor& w_h, const Tensor& b) {
  const KernelTable& kt = tensor::kernels::Active();
  const int m = x.rows(), hd = h.cols();
  const int64_t mh = m * int64_t{hd};
  float* xw = Scratch(2 * mh);
  std::vector<float> out = Output(m, hd);
  PreActivation(kt, x, h, w_x, w_h, b, xw, xw + mh);
  kt.tanh(xw, out.data(), mh);
  return Wrap(m, hd, std::move(out));
}

}  // namespace pa::nn::step
