#include "common.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "poi/dataset.h"
#include "serve/json.h"
#include "util/rng.h"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    values_[argv[i] + 2] = argv[i + 1];
  }
}

std::string Flags::Get(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

long long Flags::GetInt(const std::string& key, long long def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "perfbench: bad value for --%s: %s\n", key.c_str(),
                 it->second.c_str());
    std::exit(2);
  }
  return v;
}

double ProcessCpuUs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, the 12th and 13th after ") ".
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 13) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  if (ticks <= 0) return -1.0;
  return static_cast<double>(utime + stime) * 1e6 / static_cast<double>(ticks);
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  if (errors_.size() < 20) errors_.push_back(why);
}

void Report::Print() const {
  pa::serve::JsonWriter w;
  w.BeginObject()
      .Field("correct", correct())
      .Field("attempted", attempted_)
      .Field("failed", failed_);
  for (const auto* group : {&e2e_, &layer_, &info_}) {
    w.RawField(group == &e2e_ ? "e2e" : group == &layer_ ? "layer" : "info",
               [&] {
                 pa::serve::JsonWriter g;
                 g.BeginObject();
                 for (const auto& [name, value] : *group) g.Field(name, value);
                 g.EndObject();
                 return g.str();
               }());
  }
  w.BeginArray("errors");
  for (const std::string& e : errors_) {
    std::string quoted = "\"";
    quoted += pa::serve::EscapeJson(e);
    quoted += '"';
    w.RawElement(quoted);
  }
  w.EndArray().EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Enable() {
  enabled_ = true;
  pa::obs::SetTracingEnabled(true);
  // A program span opened on this thread tells Write() which trace thread
  // index this thread has, so the benchmark's spans nest with the
  // program's in one per-thread timeline.
  const pa::obs::TraceSpan marker("perfbench.thread_marker");
  marker_id_ = marker.id();
}

SpanLog::Scope::Scope(const char* name, uint64_t request) {
  SpanLog& log = Get();
  if (!log.enabled_) return;
  Span s;
  s.name = name;
  s.id = pa::obs::internal::NextSpanId();
  s.parent = log.open_.empty() ? 0 : log.open_.back();
  s.request = request;
  s.start_ns = pa::obs::TraceClockNs();
  index_ = log.spans_.size();
  log.spans_.push_back(s);
  log.open_.push_back(s.id);
}

SpanLog::Scope::~Scope() {
  if (index_ == SIZE_MAX) return;
  SpanLog& log = Get();
  log.spans_[index_].end_ns = pa::obs::TraceClockNs();
  log.open_.pop_back();
}

void SpanLog::KeepProgramEvents(std::vector<pa::obs::TraceEvent> events) {
  kept_.insert(kept_.end(), events.begin(), events.end());
}

bool SpanLog::Write(const std::string& path) {
  std::vector<pa::obs::TraceEvent> events = std::move(kept_);
  for (auto& e : pa::obs::DrainTraceEvents()) events.push_back(e);
  uint32_t tid = 0;
  for (const auto& e : events) {
    if (e.id == marker_id_) tid = e.tid;
  }
  for (const Span& s : spans_) {
    pa::obs::TraceEvent e;
    e.name = s.name;
    e.start_ns = s.start_ns;
    e.dur_ns = s.end_ns - s.start_ns;
    e.tid = tid;
    e.id = s.id;
    // Every benchmark span carries a request id (a root's own id when the
    // caller gave none), so the exporter keeps its parent link.
    e.trace_id = s.request != 0 ? s.request : s.id;
    e.parent_id = s.parent;
    events.push_back(e);
  }
  std::ofstream out(path);
  out << pa::obs::ChromeTraceJson(events);
  return static_cast<bool>(out);
}

poi::SyntheticLbsn MakeWorld(uint64_t seed, int num_users, int num_pois) {
  // Mirrors `pa_serve publish`'s synthetic path, so the benchmark and a
  // publish with the same seed and POI count share one POI world.
  poi::LbsnProfile profile = poi::GowallaProfile();
  profile.num_users = num_users;
  profile.num_pois = num_pois;
  pa::util::Rng rng(seed);
  return poi::GenerateLbsn(profile, rng);
}

WarmTest SplitWarmTest(const poi::Dataset& dataset) {
  const poi::Split split = poi::ChronologicalSplit(dataset);
  WarmTest out;
  out.warmup = split.train;
  for (size_t u = 0; u < out.warmup.size() && u < split.validation.size();
       ++u) {
    out.warmup[u].insert(out.warmup[u].end(), split.validation[u].begin(),
                         split.validation[u].end());
  }
  out.test = split.test;
  return out;
}

}  // namespace perfbench
