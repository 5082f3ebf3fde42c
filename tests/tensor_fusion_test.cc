// Fusion-layer suite: the fused kernels (add3/lerp/axpby/cell_update/
// tanh_mul/gate_act), the Lerp/Axpby ops, the strided slice views, and the
// direct inference steps the recurrent cells run on them (nn/cell_step.h).
//
// The contracts under test, from kernels.h and cell_step.h:
//
//   * Every fused kernel is bit-identical, per table, to the composition of
//     that same table's primitive kernels it replaces (gate_act/tanh_mul
//     call the table's own SigmoidK/TanhK, so this holds even for the
//     expf-based entries).
//   * A cell's direct step (`Forward` under InferenceModeScope) is
//     bit-identical to its op composition (`ForwardOps`) under inference
//     mode and to the graph-building path (ScopedInferenceDisable), at
//     batch 1 and 3, serially and with PA_THREADS > 1.
//   * The direct step reads live weights: an in-place weight update between
//     two steps is visible to the next one.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/pa_seq2seq.h"
#include "nn/cell_step.h"
#include "nn/gru_cell.h"
#include "nn/lstm.h"
#include "nn/rnn_cell.h"
#include "nn/st_clstm.h"
#include "nn/st_rnn_cell.h"
#include "tensor/gradcheck.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pa {
namespace {

using tensor::Shape;
using tensor::Tensor;
namespace kernels = tensor::kernels;

// ---------------------------------------------------------------------------
// Fused kernels vs their primitive compositions, per table.

std::vector<const kernels::KernelTable*> AllTables() {
  std::vector<const kernels::KernelTable*> tables = {&kernels::ScalarTable(),
                                                     &kernels::GenericTable()};
  if (const kernels::KernelTable* avx2 = kernels::Avx2Table()) {
    tables.push_back(avx2);
  }
  return tables;
}

// Deterministic spread over sign / magnitude / fractions; finite, since the
// compositions under test only ever see gate pre-activations and states.
std::vector<float> TestInput(int64_t n, uint32_t salt) {
  std::vector<float> v(static_cast<size_t>(n));
  uint32_t state = 0x9e3779b9u + salt;
  for (int64_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    const float u = static_cast<float>(state >> 8) /
                    static_cast<float>(1u << 24);  // [0, 1)
    v[static_cast<size_t>(i)] = (u - 0.5f) * 12.0f;
  }
  return v;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Length deliberately not a multiple of any vector width.
constexpr int64_t kN = 259;

TEST(FusedKernelTest, Add3MatchesChainedAdds) {
  const auto a = TestInput(kN, 1), b = TestInput(kN, 2), c = TestInput(kN, 3);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), tmp(kN);
    kt->add3(a.data(), b.data(), c.data(), fused.data(), kN);
    kt->add(a.data(), b.data(), tmp.data(), kN);
    kt->add(tmp.data(), c.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, LerpMatchesOneMinusComposition) {
  const auto a = TestInput(kN, 4), b = TestInput(kN, 5);
  auto mask = TestInput(kN, 6);
  for (float& m : mask) m = 1.0f / (1.0f + std::exp(-m));  // masks in (0, 1)
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), om(kN), t(kN);
    kt->lerp(mask.data(), a.data(), b.data(), fused.data(), kN);
    // The unfused form it stands for: (mask * -1 + 1) ⊙ b + mask ⊙ a.
    kt->mulc(mask.data(), -1.0f, om.data(), kN);
    kt->addc(om.data(), 1.0f, om.data(), kN);
    kt->mul(om.data(), b.data(), om.data(), kN);
    kt->mul(mask.data(), a.data(), t.data(), kN);
    kt->add(om.data(), t.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, AxpbyMatchesScaleAddComposition) {
  const auto a = TestInput(kN, 7), b = TestInput(kN, 8);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), t(kN);
    kt->axpby(a.data(), 0.3f, b.data(), 0.7f, fused.data(), kN);
    kt->mulc(a.data(), 0.3f, t.data(), kN);
    kt->mulc(b.data(), 0.7f, ref.data(), kN);
    kt->add(t.data(), ref.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, CellUpdateMatchesMulMulAdd) {
  const auto f = TestInput(kN, 9), c = TestInput(kN, 10);
  const auto i = TestInput(kN, 11), g = TestInput(kN, 12);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), t(kN);
    kt->cell_update(f.data(), c.data(), i.data(), g.data(), fused.data(), kN);
    kt->mul(f.data(), c.data(), t.data(), kN);
    kt->mul(i.data(), g.data(), ref.data(), kN);
    kt->add(t.data(), ref.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, TanhMulMatchesSameTableTanhThenMul) {
  const auto o = TestInput(kN, 13), c = TestInput(kN, 14);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), t(kN);
    kt->tanh_mul(o.data(), c.data(), fused.data(), kN);
    kt->tanh(c.data(), t.data(), kN);
    kt->mul(o.data(), t.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, GateActMatchesPerSliceActivationsAndAliasesInPlace) {
  constexpr int kH = 37;
  constexpr int kSlices = 4;
  const uint8_t acts[kSlices] = {0, 0, 1, 0};  // [i, f, g, o] LSTM layout.
  const auto gates = TestInput(kH * kSlices, 15);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(gates.size()), ref(gates.size());
    kt->gate_act(gates.data(), fused.data(), /*m=*/1, kH, acts, kSlices);
    for (int s = 0; s < kSlices; ++s) {
      const float* in = gates.data() + s * kH;
      float* out = ref.data() + s * kH;
      if (acts[s] == 0) {
        kt->sigmoid(in, out, kH);
      } else {
        kt->tanh(in, out, kH);
      }
    }
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
    // Exact aliasing (out == gates) is the form the direct steps use.
    std::vector<float> inplace = gates;
    kt->gate_act(inplace.data(), inplace.data(), /*m=*/1, kH, acts, kSlices);
    EXPECT_TRUE(BitEqual(inplace, ref)) << kt->name << " in-place";
  }
}

// ---------------------------------------------------------------------------
// Lerp / Axpby ops: forward composition identity + gradients.

TEST(LerpAxpbyOpTest, ForwardMatchesCompositionBitwise) {
  util::Rng rng(21);
  Tensor mask = tensor::Sigmoid(tensor::UniformInit({1, 33}, 2.0f, rng));
  Tensor a = tensor::UniformInit({1, 33}, 3.0f, rng);
  Tensor b = tensor::UniformInit({1, 33}, 3.0f, rng);
  tensor::InferenceModeScope scope;
  Tensor lerp = tensor::Lerp(mask, a, b);
  Tensor lerp_ref = tensor::Add(
      tensor::Mul(tensor::AddScalar(tensor::Scale(mask, -1.0f), 1.0f), b),
      tensor::Mul(mask, a));
  ASSERT_EQ(lerp.shape(), lerp_ref.shape());
  EXPECT_EQ(std::memcmp(lerp.data(), lerp_ref.data(),
                        sizeof(float) * static_cast<size_t>(lerp.numel())),
            0);

  Tensor axpby = tensor::Axpby(a, 0.25f, b, 0.75f);
  Tensor axpby_ref =
      tensor::Add(tensor::Scale(a, 0.25f), tensor::Scale(b, 0.75f));
  EXPECT_EQ(std::memcmp(axpby.data(), axpby_ref.data(),
                        sizeof(float) * static_cast<size_t>(axpby.numel())),
            0);
}

TEST(LerpAxpbyOpTest, GradientsPassFiniteDifferences) {
  util::Rng rng(22);
  Tensor mask = tensor::UniformInit({2, 5}, 0.4f, rng);
  Tensor a = tensor::UniformInit({2, 5}, 1.0f, rng);
  Tensor b = tensor::UniformInit({2, 5}, 1.0f, rng);
  auto lerp_res = tensor::CheckGradients(
      [=] { return tensor::Sum(tensor::Lerp(mask, a, b)); }, {mask, a, b});
  EXPECT_TRUE(lerp_res.ok) << lerp_res.worst_location;
  auto axpby_res = tensor::CheckGradients(
      [=] { return tensor::Sum(tensor::Axpby(a, 0.6f, b, -1.2f)); }, {a, b});
  EXPECT_TRUE(axpby_res.ok) << axpby_res.worst_location;
}

// ---------------------------------------------------------------------------
// Strided slice views.

TEST(StridedViewTest, ViewsMatchCopyingSlices) {
  util::Rng rng(23);
  Tensor a = tensor::UniformInit({5, 12}, 2.0f, rng);
  tensor::InferenceModeScope scope;

  tensor::StridedView cols = tensor::SliceColsView(a, 3, 4);
  Tensor cols_copy = tensor::SliceCols(a, 3, 4);
  ASSERT_EQ(cols.rows, 5);
  ASSERT_EQ(cols.cols, 4);
  EXPECT_FALSE(cols.contiguous());  // 5 rows with row_stride 12 != 4.
  for (int r = 0; r < cols.rows; ++r) {
    EXPECT_EQ(std::memcmp(cols.row(r), cols_copy.data() + r * 4,
                          4 * sizeof(float)),
              0)
        << "row " << r;
  }

  tensor::StridedView rows = tensor::SliceRowsView(a, 1, 3);
  Tensor rows_copy = tensor::SliceRows(a, 1, 3);
  ASSERT_EQ(rows.rows, 3);
  ASSERT_EQ(rows.cols, 12);
  EXPECT_TRUE(rows.contiguous());
  EXPECT_EQ(std::memcmp(rows.data, rows_copy.data(), 3 * 12 * sizeof(float)),
            0);

  // Single-row column slice is contiguous: one flat run of the parent.
  Tensor one = tensor::UniformInit({1, 8}, 1.0f, rng);
  tensor::StridedView v = tensor::SliceColsView(one, 2, 5);
  EXPECT_TRUE(v.contiguous());
  EXPECT_EQ(v.data, one.data() + 2);
}

// ---------------------------------------------------------------------------
// Cell-level parity: direct step vs op composition vs graph.

std::vector<float> Flat(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

std::vector<float> FlatState(const nn::LstmState& s) {
  std::vector<float> out = Flat(s.h);
  const std::vector<float> c = Flat(s.c);
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

// Runs `step` T times, threading the state through, and returns every
// output element of every step concatenated.
template <typename StepFn>
std::vector<float> Rollout(int steps, const StepFn& step) {
  std::vector<float> all;
  for (int t = 0; t < steps; ++t) {
    std::vector<float> out = step(t);
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

// Deterministic [batch, d] input for step t.
Tensor StepInput(int batch, int d, int t, uint32_t salt) {
  return Tensor::FromData(
      {batch, d},
      TestInput(static_cast<int64_t>(batch) * d,
                salt * 131u + static_cast<uint32_t>(t)));
}

// Per-step intervals, varied so the ST cells see changing Δt/Δd (and the
// ST-RNN sweeps its bucket pairs).
float DeltaT(int t) { return 0.25f + 1.2f * static_cast<float>(t % 3); }
float DeltaD(int t) { return 0.3f + 1.5f * static_cast<float>(t % 2); }

constexpr int kSteps = 8;

// One rollout per cell type. `ops` selects ForwardOps, otherwise Forward
// (the direct step under InferenceModeScope, the graph path outside it).
std::vector<float> RollLstm(const nn::LstmCell& cell, bool ops, int batch,
                            uint32_t salt) {
  nn::LstmState state = cell.InitialState(batch);
  return Rollout(kSteps, [&](int t) {
    const Tensor x = StepInput(batch, cell.input_dim(), t, salt);
    state = ops ? cell.ForwardOps(x, state) : cell.Forward(x, state);
    return FlatState(state);
  });
}

std::vector<float> RollStClstm(const nn::StClstmCell& cell, bool ops,
                               int batch, uint32_t salt) {
  nn::LstmState state = cell.InitialState(batch);
  return Rollout(kSteps, [&](int t) {
    const Tensor x = StepInput(batch, cell.input_dim(), t, salt);
    state = ops ? cell.ForwardOps(x, state, DeltaT(t), DeltaD(t))
                : cell.Forward(x, state, DeltaT(t), DeltaD(t));
    return FlatState(state);
  });
}

std::vector<float> RollGru(const nn::GruCell& cell, bool ops, int batch,
                           uint32_t salt) {
  Tensor h = cell.InitialState(batch);
  return Rollout(kSteps, [&](int t) {
    const Tensor x = StepInput(batch, cell.input_dim(), t, salt);
    h = ops ? cell.ForwardOps(x, h) : cell.Forward(x, h);
    return Flat(h);
  });
}

std::vector<float> RollRnn(const nn::RnnCell& cell, bool ops, int batch,
                           uint32_t salt) {
  Tensor h = cell.InitialState(batch);
  return Rollout(kSteps, [&](int t) {
    const Tensor x = StepInput(batch, cell.input_dim(), t, salt);
    h = ops ? cell.ForwardOps(x, h) : cell.Forward(x, h);
    return Flat(h);
  });
}

std::vector<float> RollStRnn(const nn::StRnnCell& cell, int input_dim,
                             bool ops, int batch, uint32_t salt) {
  Tensor h = cell.InitialState(batch);
  return Rollout(2 * kSteps, [&](int t) {
    const Tensor x = StepInput(batch, input_dim, t, salt);
    h = ops ? cell.ForwardOps(x, h, DeltaT(t), DeltaD(t))
            : cell.Forward(x, h, DeltaT(t), DeltaD(t));
    return Flat(h);
  });
}

// Three-way parity harness: `run(ops)` is one rollout. The direct step
// (run(false) under InferenceModeScope), the op composition (run(true)
// under InferenceModeScope) and the graph path (run(false) under
// ScopedInferenceDisable, where Forward takes the op composition with
// autograd) must be bitwise identical.
template <typename RolloutFn>
void ExpectThreeWayParity(const RolloutFn& run, const std::string& what) {
  std::vector<float> direct, ops, graph;
  {
    tensor::InferenceModeScope scope;
    direct = run(false);
    ops = run(true);
  }
  {
    tensor::internal::ScopedInferenceDisable disable;
    graph = run(false);
  }
  EXPECT_FALSE(direct.empty()) << what;
  EXPECT_TRUE(BitEqual(direct, ops)) << what << ": direct vs op composition";
  EXPECT_TRUE(BitEqual(direct, graph)) << what << ": direct vs graph";
}

// All five cells at one shape.
void ExpectAllCellsParity(int in, int hidden, int batch) {
  util::Rng rng(30 + static_cast<uint64_t>(hidden));
  const nn::LstmCell lstm(in, hidden, rng);
  const nn::StClstmCell st_clstm(in, hidden, rng);
  const nn::GruCell gru(in, hidden, rng);
  const nn::RnnCell rnn(in, hidden, rng);
  const nn::StRnnCell st_rnn(in, hidden, rng, /*time_buckets=*/3,
                             /*distance_buckets=*/3);
  const std::string shape = " [B=" + std::to_string(batch) +
                            ", h=" + std::to_string(hidden) + "]";
  ExpectThreeWayParity([&](bool ops) { return RollLstm(lstm, ops, batch, 1); },
                       "lstm" + shape);
  ExpectThreeWayParity(
      [&](bool ops) { return RollStClstm(st_clstm, ops, batch, 3); },
      "st_clstm" + shape);
  ExpectThreeWayParity([&](bool ops) { return RollGru(gru, ops, batch, 4); },
                       "gru" + shape);
  ExpectThreeWayParity([&](bool ops) { return RollRnn(rnn, ops, batch, 5); },
                       "rnn" + shape);
  ExpectThreeWayParity(
      [&](bool ops) { return RollStRnn(st_rnn, in, ops, batch, 6); },
      "st_rnn" + shape);
}

TEST(CellStepTest, LstmThreeWayParity) {
  util::Rng rng(31);
  nn::LstmCell cell(12, 16, rng);
  ExpectThreeWayParity([&](bool ops) { return RollLstm(cell, ops, 1, 1); },
                       "lstm");
}

TEST(CellStepTest, LstmZoneoutEvalThreeWayParity) {
  util::Rng rng(32);
  nn::LstmCell cell(10, 12, rng);
  nn::ZoneoutConfig zoneout;
  zoneout.hidden_prob = 0.1f;
  zoneout.cell_prob = 0.05f;
  util::Rng step_rng(1);
  ExpectThreeWayParity(
      [&](bool ops) {
        nn::LstmState state = cell.InitialState(1);
        return Rollout(kSteps, [&](int t) {
          const Tensor x = StepInput(1, 10, t, 2);
          if (ops) {
            // ForwardZoneout's evaluation blend over the op composition.
            nn::LstmState next = cell.ForwardOps(x, state);
            next.h = tensor::Axpby(state.h, zoneout.hidden_prob, next.h,
                                   1.0f - zoneout.hidden_prob);
            next.c = tensor::Axpby(state.c, zoneout.cell_prob, next.c,
                                   1.0f - zoneout.cell_prob);
            state = next;
          } else {
            state = cell.ForwardZoneout(x, state, zoneout,
                                        /*training=*/false, step_rng);
          }
          return FlatState(state);
        });
      },
      "lstm_zoneout_eval");
}

TEST(CellStepTest, StClstmThreeWayParity) {
  util::Rng rng(33);
  nn::StClstmCell cell(12, 16, rng);
  ExpectThreeWayParity(
      [&](bool ops) { return RollStClstm(cell, ops, 1, 3); }, "st_clstm");
}

TEST(CellStepTest, GruThreeWayParity) {
  util::Rng rng(34);
  nn::GruCell cell(12, 16, rng);
  ExpectThreeWayParity([&](bool ops) { return RollGru(cell, ops, 1, 4); },
                       "gru");
}

TEST(CellStepTest, RnnThreeWayParity) {
  util::Rng rng(35);
  nn::RnnCell cell(12, 16, rng);
  ExpectThreeWayParity([&](bool ops) { return RollRnn(cell, ops, 1, 5); },
                       "rnn");
}

TEST(CellStepTest, StRnnThreeWayParityAcrossBuckets) {
  util::Rng rng(36);
  nn::StRnnCell cell(12, 16, rng, /*time_buckets=*/3, /*distance_buckets=*/3);
  ExpectThreeWayParity(
      [&](bool ops) { return RollStRnn(cell, 12, ops, 1, 6); }, "st_rnn");
}

// Batch is the row count: B = 3 runs the same steps with a GEMM.
TEST(CellStepTest, BatchOfThreeParityAllCells) {
  ExpectAllCellsParity(/*in=*/12, /*hidden=*/16, /*batch=*/3);
}

// PA_THREADS > 1 with a hidden size big enough that the step matmuls cross
// kMatMulParallelFlops and actually run tiled on the pool (row tiles at
// B = 3 for the wide gate products, column tiles otherwise).
TEST(CellStepTest, ThreadedParityAtLargeHidden) {
  util::SetThreadCount(4);
  ExpectAllCellsParity(/*in=*/64, /*hidden=*/160, /*batch=*/1);
  ExpectAllCellsParity(/*in=*/64, /*hidden=*/160, /*batch=*/3);
  util::SetThreadCount(0);
}

TEST(CellStepTest, DirectStepAppliesOnlyUnderInferenceWithMatchingRows) {
  const Tensor x = Tensor::Zeros({3, 8});
  const Tensor h3 = Tensor::Zeros({3, 12});
  const Tensor h1 = Tensor::Zeros({1, 12});
  EXPECT_FALSE(nn::step::Applies(x, 8, h3, 12));  // Graph mode.
  tensor::InferenceModeScope scope;
  EXPECT_TRUE(nn::step::Applies(x, 8, h3, 12));
  EXPECT_FALSE(nn::step::Applies(x, 8, h1, 12));  // Broadcast state.
  EXPECT_FALSE(nn::step::Applies(x, 9, h3, 12));  // Wrong input width.
}

// Perturbs every parameter in place (through the shared storage the cell
// reads), deterministically.
void NudgeWeights(const std::vector<Tensor>& params) {
  for (Tensor p : params) {
    float* d = p.data();
    for (int64_t i = 0; i < p.numel(); ++i) {
      d[i] = d[i] * 1.25f + 0.01f * static_cast<float>(i % 7);
    }
  }
}

// The direct step reads weights through their live storage on every call:
// after an in-place update between two steps, direct == graph again. For
// the GRU this covers the candidate's [2h, 3h) column window of w_h, which
// a folded copy taken at an earlier step would leave stale.
TEST(CellStepTest, InPlaceWeightUpdateIsSeenByTheNextStep) {
  util::Rng rng(38);
  const nn::GruCell gru(8, 12, rng);
  const nn::LstmCell lstm(8, 12, rng);
  const nn::StClstmCell st_clstm(8, 12, rng);
  const nn::StRnnCell st_rnn(8, 12, rng, 2, 2);
  std::vector<Tensor> params;
  std::vector<std::vector<float>> original;
  for (const nn::Module* m :
       std::vector<const nn::Module*>{&gru, &lstm, &st_clstm, &st_rnn}) {
    for (const Tensor& p : m->Parameters()) {
      params.push_back(p);
      original.push_back(Flat(p));
    }
  }
  auto run = [&](bool ops, bool nudge) {
    for (size_t i = 0; i < params.size(); ++i) {
      std::memcpy(params[i].data(), original[i].data(),
                  original[i].size() * sizeof(float));
    }
    Tensor gh = gru.InitialState(2);
    Tensor rh = st_rnn.InitialState(2);
    nn::LstmState ls = lstm.InitialState(2);
    nn::LstmState ss = st_clstm.InitialState(2);
    return Rollout(4, [&](int t) {
      if (nudge && t == 2) NudgeWeights(params);
      const Tensor x = StepInput(2, 8, t, 9);
      gh = ops ? gru.ForwardOps(x, gh) : gru.Forward(x, gh);
      ls = ops ? lstm.ForwardOps(x, ls) : lstm.Forward(x, ls);
      ss = ops ? st_clstm.ForwardOps(x, ss, DeltaT(t), DeltaD(t))
               : st_clstm.Forward(x, ss, DeltaT(t), DeltaD(t));
      rh = ops ? st_rnn.ForwardOps(x, rh, DeltaT(t), DeltaD(t))
               : st_rnn.Forward(x, rh, DeltaT(t), DeltaD(t));
      std::vector<float> out = Flat(gh);
      for (const std::vector<float>& part :
           {FlatState(ls), FlatState(ss), Flat(rh)}) {
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    });
  };
  ExpectThreeWayParity([&](bool ops) { return run(ops, /*nudge=*/true); },
                       "weights updated in place");
  // Sanity: the update does change the outputs.
  std::vector<float> nudged, plain;
  {
    tensor::InferenceModeScope scope;
    nudged = run(false, true);
    plain = run(false, false);
  }
  EXPECT_FALSE(BitEqual(nudged, plain));
}

TEST(CellStepTest, DistinctCellInstancesDoNotShareAnything) {
  util::Rng rng_a(43), rng_b(44);
  nn::RnnCell cell_a(6, 10, rng_a);
  nn::RnnCell cell_b(6, 10, rng_b);  // Different weights, same shapes.
  std::vector<float> a_direct, b_direct, a_ref, b_ref;
  {
    tensor::InferenceModeScope scope;
    // Interleave the two cells so any state shared across instances would
    // cross wires.
    for (int round = 0; round < 2; ++round) {
      a_direct = RollRnn(cell_a, false, 1, 70);
      b_direct = RollRnn(cell_b, false, 1, 71);
    }
    a_ref = RollRnn(cell_a, true, 1, 70);
    b_ref = RollRnn(cell_b, true, 1, 71);
  }
  EXPECT_TRUE(BitEqual(a_direct, a_ref));
  EXPECT_TRUE(BitEqual(b_direct, b_ref));
  EXPECT_FALSE(BitEqual(a_direct, b_direct));  // Sanity: weights do differ.
}

// ---------------------------------------------------------------------------
// PA-Seq2Seq decoder: the decode-only entry point (direct steps) against the
// graph path. The decoder has no op-composition entry under inference mode;
// its cells' direct-vs-ForwardOps parity is covered above.

constexpr int64_t kHour = 3600;

TEST(CellStepTest, PaSeq2SeqDecodeParity) {
  poi::PoiTable pois = [] {
    std::vector<geo::LatLng> coords;
    for (int i = 0; i < 6; ++i) {
      coords.push_back({40.0 + 0.01 * i, -100.0 + 0.005 * i});
    }
    return poi::PoiTable(std::move(coords));
  }();
  augment::PaSeq2SeqConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  config.stage1_epochs = 1;
  config.stage2_epochs = 1;
  config.stage3_epochs = 2;
  config.candidate_radius_km = 0.0;
  config.seed = 5;
  augment::PaSeq2Seq model(pois, config);
  std::vector<poi::CheckinSequence> train(3);
  for (int u = 0; u < 3; ++u) {
    for (int i = 0; i < 40; ++i) {
      train[u].push_back({u, i % 3, i * 3 * kHour, false});
    }
  }
  model.Fit(train);

  poi::CheckinSequence history;
  for (int i = 0; i < 12; ++i) {
    history.push_back({0, i % 3, i * 3 * kHour, false});
  }
  const int64_t next_ts = 12 * 3 * kHour;

  const auto rank_direct = model.RankNext(history, next_ts, 6);
  std::vector<int32_t> rank_graph;
  {
    tensor::internal::ScopedInferenceDisable disable;
    rank_graph = model.RankNext(history, next_ts, 6);
  }
  EXPECT_EQ(rank_direct, rank_graph);
  EXPECT_FALSE(rank_direct.empty());
}

}  // namespace
}  // namespace pa
