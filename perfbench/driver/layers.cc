// The per-layer suite of a traced run: each layer timed in-process around
// its public entry point, under the benchmark's own spans.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "augment/augmenter.h"
#include "augment/pa_seq2seq.h"
#include "common.h"
#include "net/sharded_engine.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "rec/registry.h"
#include "serve/engine.h"
#include "serve/json.h"
#include "serve/model_store.h"
#include "serve/session_store.h"
#include "stats.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/quant.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

namespace poi = pa::poi;
namespace serve = pa::serve;
namespace tensor = pa::tensor;

constexpr int kHidden = 24;  // NeuralRecConfig::hidden_dim default.
constexpr double kLayerBudgetS = 0.08;

uint64_t g_request = 0;

/// Median per-call time (us) of `fn` over timed batches of `batch` calls,
/// one benchmark span per batch.
template <typename Fn>
double PerCallUs(const char* span, int batch, Fn&& fn) {
  std::vector<double> per_call;
  const int64_t start = NowNs();
  while (per_call.size() < 7 ||
         static_cast<double>(NowNs() - start) / 1e9 < kLayerBudgetS) {
    SpanLog::Scope s(span, ++g_request);
    const int64_t t = NowNs();
    for (int i = 0; i < batch; ++i) fn();
    per_call.push_back(static_cast<double>(NowNs() - t) / 1e3 / batch);
  }
  return Median(per_call);
}

const char* SizeLabel(int n) {
  return n == 500 ? "500" : n == 5000 ? "5k" : "50k";
}

/// A 1-epoch `method` model of `data`: cheap to fit, and inference cost
/// does not depend on training. The model points at its POI table, which
/// the returned LoadedModel owns.
std::shared_ptr<serve::LoadedModel> FitSmall(const std::string& method,
                                             const poi::Dataset& data,
                                             uint64_t seed, double* fit_s) {
  auto loaded = std::make_shared<serve::LoadedModel>();
  loaded->name = method;
  loaded->pois = std::make_shared<poi::PoiTable>(data.pois);
  std::unique_ptr<pa::rec::Recommender> model =
      pa::rec::MakeRecommender(method, seed, 0.125);
  SpanLog::Scope s("bench.layer.fit", ++g_request);
  const int64_t t = NowNs();
  model->Fit(data.sequences, *loaded->pois);
  if (fit_s) *fit_s = static_cast<double>(NowNs() - t) / 1e9;
  loaded->model = std::move(model);
  return loaded;
}

std::vector<poi::Checkin> History(const poi::Dataset& data, size_t n) {
  std::vector<poi::Checkin> out;
  for (const auto& seq : data.sequences) {
    for (const auto& c : seq) {
      if (out.size() == n) return out;
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void RunLayerSuite(uint64_t seed, const std::string& scratch, Report* report) {
  SpanLog::Scope suite("bench.layer_suite");
  // Figures of the workload's own EvaluateHr calls in this process, read
  // before the suite adds pool work of its own.
  {
    const std::string reg = pa::obs::MetricRegistry::Global().SnapshotJson();
    report->Layer("layer.eval_user_us",
                  RegistryValue(reg, "eval.user_us", "p50"));
    report->Layer("util.pool.task_wait_us.p50",
                  RegistryValue(reg, "util.pool.task_wait_us", "p50"));
  }

  // JSON layer: the request line a topk client sends, and a 10-id reply.
  {
    const std::string line =
        "{\"op\":\"topk\",\"user\":12345,\"k\":10,\"timestamp\":1500000000}";
    std::map<std::string, serve::JsonValue> parsed;
    report->Layer("layer.json_parse_ns", 1e3 * PerCallUs("bench.layer.json_parse", 2000, [&] {
      parsed.clear();
      serve::ParseFlatObject(line, &parsed);
    }));
    size_t bytes = 0;
    report->Layer("layer.json_write_ns", 1e3 * PerCallUs("bench.layer.json_write", 2000, [&] {
      serve::JsonWriter w;
      w.BeginObject().Field("ok", true).Field("status", "ok")
          .Field("latency_micros", 12.5).Field("trace", "1f2e");
      w.BeginArray("pois");
      for (int64_t id = 100; id < 110; ++id) w.Element(id);
      w.EndArray().EndObject();
      bytes += w.str().size();
    }));
    if (bytes == 0) report->Fail("json writer wrote nothing");
  }

  // Models at the three catalog sizes, each published once. The float
  // models serve every timing below; a copy loaded back from each artifact
  // is quantized for the int8 timings, so the float models stay what the
  // serving workloads publish and serve.
  const std::vector<int> sizes = {500, 5000, 50000};
  std::map<int, std::shared_ptr<serve::LoadedModel>> models, int8_models;
  const std::filesystem::path store_root =
      std::filesystem::path(scratch) / "layer_store";
  for (const int n : sizes) {
    const std::string label = SizeLabel(n);
    const poi::SyntheticLbsn world = MakeWorld(seed, 4, n);
    double fit_s = 0.0;
    models[n] = FitSmall("LSTM", world.observed, seed, &fit_s);
    serve::ModelStore store(store_root / label);
    std::string error;
    if (store.Publish(*models[n]->model, *models[n]->pois, &error) < 0) {
      report->Fail("publish: " + error);
      return;
    }
    std::vector<double> load_ms;
    for (int i = 0; i < 3; ++i) {
      SpanLog::Scope s("bench.layer.artifact_load", ++g_request);
      auto loaded = std::make_shared<serve::LoadedModel>();
      const int64_t t = NowNs();
      if (!store.LoadActive("LSTM", loaded.get(), &error)) {
        report->Fail("load: " + error);
        return;
      }
      load_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
      int8_models[n] = std::move(loaded);
    }
    if (!int8_models[n]->model->QuantizeForServing(&error)) {
      report->Fail("quantize: " + error);
      return;
    }
    if (n != 5000) {
      report->Layer("layer.fit_s." + label, fit_s);
      report->Layer("layer.artifact_load_ms." + label, Median(load_ms));
    }
  }
  {
    std::error_code ec;
    std::filesystem::remove_all(store_root, ec);
  }
  const poi::SyntheticLbsn small = MakeWorld(seed, 4, 500);
  const std::vector<poi::Checkin> history64 = History(small.observed, 64);

  // Projection and select at each size: nn::Linear::Forward against the
  // fused int8 GEMV, then RecSession::TopK minus the projection.
  for (const int n : sizes) {
    pa::util::Rng rng(seed);
    const pa::nn::Linear linear(kHidden, n, rng);
    const tensor::kernels::QuantizedLinear q = tensor::kernels::QuantizeLinear(
        linear.weight().data(), linear.bias().data(), kHidden, n);
    std::vector<float> x(kHidden, 0.25f), out(static_cast<size_t>(n));
    const tensor::Tensor h = tensor::Tensor::FromData({1, kHidden}, x);
    const int batch = std::max(1, 200000 / n);
    const tensor::InferenceModeScope inference;
    float sink = 0.0f;
    const double float_us = PerCallUs("bench.layer.project_float", batch, [&] {
      sink += linear.Forward(h).data()[0];
    });
    const double int8_us = PerCallUs("bench.layer.project_int8", batch, [&] {
      tensor::kernels::QuantizedGemv(q, x.data(), out.data());
    });
    if (!(sink == sink)) report->Fail("projection produced NaN");
    const double float_bytes = 4.0 * (static_cast<double>(kHidden) * n + n);
    const double int8_bytes = static_cast<double>(kHidden) * n + 8.0 * n;
    const std::string label = SizeLabel(n);
    report->Layer("layer.project_us.float." + label, float_us);
    report->Layer("layer.project_us.int8." + label, int8_us);
    report->Layer("layer.project_gbps.float." + label, float_bytes / float_us / 1e3);
    report->Layer("layer.project_gbps.int8." + label, int8_bytes / int8_us / 1e3);

    // The same eight check-ins observed by a float and an int8 session.
    auto float_session = models[n]->model->NewSession(0);
    auto int8_session = int8_models[n]->model->NewSession(0);
    for (int i = 0; i < 8; ++i) {
      float_session->Observe(history64[static_cast<size_t>(i)]);
      int8_session->Observe(history64[static_cast<size_t>(i)]);
    }
    const double topk_float = PerCallUs("bench.layer.topk_float", batch, [&] {
      float_session->TopK(10, 0);
    });
    const double topk_int8 = PerCallUs("bench.layer.topk_int8", batch, [&] {
      int8_session->TopK(10, 0);
    });
    report->Layer("layer.select_us.float." + label, topk_float - float_us);
    report->Layer("layer.select_us.int8." + label, topk_int8 - int8_us);
  }

  // Recurrent step per cell type (RecSession::Observe).
  for (const auto& [method, label] :
       std::vector<std::pair<std::string, std::string>>{
           {"LSTM", "lstm"}, {"ST-CLSTM", "st_clstm"}, {"GRU", "gru"},
           {"RNN", "rnn"}, {"ST-RNN", "st_rnn"}}) {
    const std::shared_ptr<serve::LoadedModel> model =
        label == "lstm" ? models[500]
                        : FitSmall(method, small.observed, seed, nullptr);
    const pa::rec::Recommender& rec = *model->model;
    const tensor::InferenceModeScope inference;
    auto session = rec.NewSession(0);
    size_t i = 0;
    report->Layer("layer.step_us." + label, PerCallUs("bench.layer.step", 64, [&] {
      session->Observe(history64[i++ % history64.size()]);
    }));
  }

  // Session rebuild: a one-session store, two users of 64 check-ins each;
  // every TopK finds its user evicted and replays the history.
  {
    serve::SessionStoreConfig config;
    config.memory_cap_bytes = config.approx_session_bytes;
    serve::SessionStore store(models[500], config);
    for (const auto& c : history64) {
      poi::Checkin a = c, b = c;
      a.user = 1;
      b.user = 2;
      store.Observe(a);
      store.Observe(b);
    }
    const tensor::InferenceModeScope inference;
    int32_t user = 1;
    report->Layer("layer.session_rebuild_us",
                  PerCallUs("bench.layer.session_rebuild", 8, [&] {
                    store.TopK(user, 10, 0);
                    user = 3 - user;
                  }));
  }

  // Shard hop: the same warm request through ShardedEngine (enqueue, shard
  // worker, completion) and directly through serve::Engine.
  {
    serve::TopKRequest request;
    request.user = 7;
    poi::Checkin c = history64[0];
    c.user = 7;
    double direct_us, sharded_us;
    {
      serve::EngineConfig config;
      config.metric_prefix = "perfbench.engine.";
      serve::Engine engine(models[500], config);
      engine.Observe(c);
      direct_us = PerCallUs("bench.layer.engine_topk", 64, [&] { engine.TopK(request); });
    }
    {
      pa::net::ShardedEngineConfig config;
      config.num_shards = 2;
      pa::net::ShardedEngine sharded(models[500], config);
      sharded.Observe(c);
      sharded_us = PerCallUs("bench.layer.sharded_topk", 64, [&] { sharded.TopK(request); });
    }
    report->Layer("layer.shard_hop_us", sharded_us - direct_us);
  }

  // PA-Seq2Seq: a tiny three-stage Fit whose train.stage*/train.item spans
  // (the program's own) give the per-item cost of each stage, then Impute.
  {
    pa::augment::PaSeq2SeqConfig config;
    config.stage1_epochs = 1;
    config.stage2_epochs = 1;
    config.stage3_epochs = 1;
    pa::augment::PaSeq2Seq model(small.observed.pois, config);
    const bool was_tracing = pa::obs::TracingEnabled();
    pa::obs::SetTracingEnabled(true);
    std::vector<pa::obs::TraceEvent> kept = pa::obs::DrainTraceEvents();
    {
      SpanLog::Scope s("bench.layer.seq2seq_fit", ++g_request);
      model.Fit(small.observed.sequences);
    }
    std::vector<pa::obs::TraceEvent> events = pa::obs::DrainTraceEvents();
    pa::obs::SetTracingEnabled(was_tracing);
    for (int stage = 1; stage <= 3; ++stage) {
      const std::string name = "train.stage" + std::to_string(stage);
      double sum_ms = 0.0;
      int items = 0;
      for (const auto& st : events) {
        if (name != st.name) continue;
        for (const auto& e : events) {
          if (std::string("train.item") == e.name && e.start_ns >= st.start_ns &&
              e.start_ns + e.dur_ns <= st.start_ns + st.dur_ns) {
            sum_ms += static_cast<double>(e.dur_ns) / 1e6;
            ++items;
          }
        }
      }
      report->Layer("layer.seq2seq_item_ms.stage" + std::to_string(stage),
                    items ? sum_ms / items : 0.0);
      if (items == 0) report->Fail("no train.item spans under " + name);
    }
    kept.insert(kept.end(), events.begin(), events.end());
    SpanLog::Get().KeepProgramEvents(std::move(kept));

    std::vector<pa::augment::MaskedSequence> masked;
    for (const auto& seq : small.observed.sequences) {
      masked.push_back(pa::augment::MakeMaskedSequence(seq, 3 * 3600, 3));
    }
    size_t i = 0;
    report->Layer("layer.impute_us", PerCallUs("bench.layer.impute", 1, [&] {
      model.Impute(masked[i++ % masked.size()]);
    }));
  }
}

}  // namespace perfbench
