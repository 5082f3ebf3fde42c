// The serving workloads: a single-threaded load generator multiplexing two
// NDJSON connections against a running `pa_serve listen --shards 2`, plus
// the in-process checks of what the server answered.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "eval/hr_metric.h"
#include "serve/model_store.h"
#include "stats.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

namespace poi = pa::poi;

constexpr int kTopK = 10;
constexpr int kConnections = 2;
constexpr size_t kWindow = 64;  // Requests in flight per connection.
constexpr size_t kMaxLiveBatches = 8;  // Stream lookahead, in batches.
constexpr int64_t kIdleTimeoutNs = 20'000'000'000;  // No reply for 20 s.

// The published model of both workloads: `pa_serve publish` trains an LSTM
// on the first kTrainUsers users of the fixed world.
constexpr int kTrainUsers = 64;
constexpr int kNumPois = 500;
constexpr const char* kEpochsScale = "1";

/// Traffic make-up of each serving workload (README "Workloads").
struct ServeSpec {
  int traffic_users = 0;  // Distinct users per round.
  // serve_churn only.
  int churn_length = 0;   // Check-ins per user per round (<= 64).
  int churn_seeded = 0;   // Of which observed before the first topk.
  int churn_probes = 0;   // Strict topk probes after each flip.
};

ServeSpec SpecFor(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve_hot") {
    s.traffic_users = 200;
  } else if (workload == "serve_churn") {
    s.traffic_users = 768;
    s.churn_length = 40;
    s.churn_seeded = 12;
    s.churn_probes = 32;
  }
  return s;
}

/// Users [first, first + count) of `data` as a dataset of their own.
poi::Dataset UserBlock(const poi::Dataset& data, int first, int count) {
  poi::Dataset out;
  out.pois = data.pois;
  out.sequences.assign(data.sequences.begin() + first,
                       data.sequences.begin() + first + count);
  return out;
}

struct Op {
  enum class Kind : uint8_t { kObserve, kTopK, kActivate };
  Kind kind = Kind::kObserve;
  bool strict = false;
  bool hr_case = false;  // Judged for hr10 (first measured round).
  int round = -1;        // Measured round, or -1 (warm-up, not measured).
  int conn = 0;
  int32_t truth = -1;
  int sample = -1;       // Index into Load::samples when replayed.
  std::string line;
};

struct Sample {
  int world_user = 0;
  int rounds_before = 0;  // Full test passes observed before this round.
  int position = 0;       // Check-ins of this round observed before.
  int64_t timestamp = 0;
  std::vector<int32_t> answer;
  bool answered = false;
};

struct Inflight {
  const Op* op;
  int64_t sent_ns;
  uint64_t batch;  // Stream index of the batch the op belongs to.
};

/// Ops of one batch of a closed-loop stream, split by connection.
struct Batch {
  std::vector<Op> ops;
  std::vector<std::vector<const Op*>> per_conn;
  size_t unanswered = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<Inflight> inflight;
};

/// Everything the replies of one run are checked and measured against.
struct Load {
  int num_pois = 0;
  bool churn = false;
  // Latency samples per measured round.
  std::vector<std::vector<double>> topk_us, observe_us;
  double rtt_sum_us = 0.0;  // Over every replied op, for the stage check.
  uint64_t rtt_count = 0;
  uint64_t sent = 0, answered = 0, attempted = 0, failed = 0;
  uint64_t expected_failures = 0;
  HitCounter hr;
  std::vector<Sample> samples;
  Report* report = nullptr;
};

void ParseIds(std::string_view line, std::vector<int32_t>* ids) {
  ids->clear();
  const size_t at = line.find("\"pois\":[");
  if (at == std::string_view::npos) return;
  size_t i = at + 8;
  while (i < line.size() && line[i] != ']') {
    char* end = nullptr;
    const long v = std::strtol(line.data() + i, &end, 10);
    if (end == line.data() + i) return;
    ids->push_back(static_cast<int32_t>(v));
    i = static_cast<size_t>(end - line.data());
    if (i < line.size() && line[i] == ',') ++i;
  }
}

std::string ErrorCode(std::string_view line) {
  const size_t at = line.find("\"code\":\"");
  if (at == std::string_view::npos) return "?";
  const size_t end = line.find('"', at + 8);
  return std::string(line.substr(at + 8, end - at - 8));
}

std::vector<double>& RoundSamples(std::vector<std::vector<double>>& rounds,
                                  int round) {
  if (rounds.size() <= static_cast<size_t>(round)) rounds.resize(round + 1);
  return rounds[static_cast<size_t>(round)];
}

void OnReply(Load& load, const Op& op, std::string_view line, double rtt_us) {
  ++load.answered;
  load.rtt_sum_us += rtt_us;
  ++load.rtt_count;
  if (op.round >= 0) ++load.attempted;
  const bool ok = line.rfind("{\"ok\":true", 0) == 0;
  if (!ok) {
    const std::string code = ErrorCode(line);
    if (op.round >= 0) ++load.failed;
    if (op.hr_case) load.hr.AddFailed();
    // The one failure serve_churn expects today: SwapModel wipes every
    // history, so a strict topk after a flip answers unknown_user.
    if (load.churn && op.strict && code == "unknown_user") {
      ++load.expected_failures;
    } else {
      load.report->Fail("request failed (" + code + "): " + op.line);
    }
    return;
  }
  if (op.kind == Op::Kind::kObserve) {
    if (op.round >= 0) RoundSamples(load.observe_us, op.round).push_back(rtt_us);
    return;
  }
  if (op.kind != Op::Kind::kTopK) return;
  thread_local std::vector<int32_t> ids;
  ParseIds(line, &ids);
  bool valid = ids.size() == static_cast<size_t>(kTopK);
  for (size_t i = 0; valid && i < ids.size(); ++i) {
    valid = ids[i] >= 0 && ids[i] < load.num_pois &&
            std::find(ids.begin(), ids.begin() + i, ids[i]) == ids.begin() + i;
  }
  if (!valid) {
    load.report->Fail("malformed topk answer: " + std::string(line));
    return;
  }
  if (op.round >= 0) RoundSamples(load.topk_us, op.round).push_back(rtt_us);
  if (op.hr_case) load.hr.Add(ids, op.truth);
  if (op.sample >= 0) {
    Sample& s = load.samples[static_cast<size_t>(op.sample)];
    s.answer = ids;
    s.answered = true;
  }
}

class Client {
 public:
  explicit Client(Load* load) : load_(load) {}
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }

  bool Connect(int port) {
    for (int i = 0; i < kConnections; ++i) {
      Conn c;
      c.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c.fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        close(c.fd);
        return false;
      }
      const int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
    return true;
  }

  /// Closed loop over a stream of batches: each connection keeps up to
  /// kWindow of its ops in flight and writes every refill in one send.
  /// `next` is asked for another batch whenever a connection has sent all
  /// it has, and returns false when no more should start. A connection
  /// moves on to the next batch without waiting for the last one to be
  /// answered, so batches are only accounting marks and the stream drains
  /// once, at its end. `done_ns` gets the time each batch was answered.
  bool RunStream(const std::function<bool(std::vector<Op>*)>& next,
                 std::vector<int64_t>* done_ns) {
    if (broken_) return false;
    live_.clear();
    first_live_ = 0;
    std::vector<uint64_t> batch(conns_.size(), 0);
    std::vector<size_t> pos(conns_.size(), 0);
    bool more = true;
    for (;;) {
      while (!live_.empty() && live_.front().unanswered == 0) {
        if (done_ns) done_ns->push_back(last_reply_ns_);
        live_.pop_front();
        ++first_live_;
      }
      const int64_t now = NowNs();
      for (size_t c = 0; c < conns_.size(); ++c) {
        Conn& conn = conns_[c];
        while (conn.inflight.size() < kWindow) {
          // A batch retired while this connection's cursor sat at its end.
          if (batch[c] < first_live_) batch[c] = first_live_, pos[c] = 0;
          if (batch[c] - first_live_ == live_.size()) {
            // A bounded lookahead keeps memory small. It must not be one
            // batch: the connections drift apart by more than that, and a
            // connection left waiting with nothing to send would not ACK
            // the server's last replies (see README, TCP_NODELAY).
            if (!more || live_.size() == kMaxLiveBatches) break;
            Batch& b = live_.emplace_back();
            if (!next(&b.ops)) {
              live_.pop_back();
              more = false;
              break;
            }
            b.per_conn.resize(conns_.size());
            for (const Op& op : b.ops) {
              b.per_conn[static_cast<size_t>(op.conn)].push_back(&op);
            }
            b.unanswered = b.ops.size();
            continue;
          }
          const auto& mine = live_[batch[c] - first_live_].per_conn[c];
          if (pos[c] == mine.size()) {
            ++batch[c];
            pos[c] = 0;
            continue;
          }
          Enqueue(conn, mine[pos[c]++], now, batch[c]);
        }
      }
      if (live_.empty() && !more) return true;
      if (!Pump(/*wait_ns=*/1'000'000'000)) return Abandon();
    }
  }

  /// One batch, answered in full before returning.
  bool RunBatch(std::vector<Op> ops) {
    bool given = false;
    return RunStream([&](std::vector<Op>* out) {
      if (given) return false;
      *out = std::move(ops);
      return given = true;
    }, nullptr);
  }

  /// Sends one control line on connection 0 once everything is quiet and
  /// returns its reply.
  std::string Call(const std::string& line) {
    if (broken_) return "";
    Conn& conn = conns_[0];
    conn.out += line;
    conn.out += '\n';
    reply_.clear();
    want_raw_ = true;
    const int64_t start = NowNs();
    while (want_raw_ && NowNs() - start < kIdleTimeoutNs) {
      if (!Pump(100'000'000)) {
        Abandon();
        break;
      }
    }
    want_raw_ = false;
    return reply_;
  }

 private:
  /// After a transport failure: forget the requests in flight (their ops
  /// may not outlive this call) and refuse further calls.
  bool Abandon() {
    for (Conn& c : conns_) c.inflight.clear();
    live_.clear();
    broken_ = true;
    return false;
  }

  bool InFlight() const {
    for (const Conn& c : conns_) {
      if (!c.inflight.empty()) return true;
    }
    return false;
  }

  void Enqueue(Conn& conn, const Op* op, int64_t now, uint64_t batch) {
    conn.out += op->line;
    conn.out += '\n';
    conn.inflight.push_back({op, now, batch});
    ++load_->sent;
  }

  bool Flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      conn.out_off += static_cast<size_t>(n);
    }
    conn.out.clear();
    conn.out_off = 0;
    return true;
  }

  /// Writes what is pending, waits up to `wait_ns` for replies and handles
  /// every complete reply line.
  bool Pump(int64_t wait_ns) {
    pollfd fds[kConnections];
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (!Flush(conns_[c])) {
        load_->report->Fail("send failed");
        return false;
      }
      fds[c] = {conns_[c].fd,
                static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT)),
                0};
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ppoll(fds, conns_.size(), &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) {
      if (NowNs() - last_reply_ns_ > kIdleTimeoutNs && (InFlight() || want_raw_)) {
        load_->report->Fail("no reply from the server for 20 s");
        return false;
      }
      return true;
    }
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!Read(conns_[c])) return false;
      }
    }
    return true;
  }

  bool Read(Conn& conn) {
    char buf[1 << 16];
    const ssize_t n = recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) {
      load_->report->Fail("server closed the connection");
      return false;
    }
    if (n < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    conn.in.append(buf, static_cast<size_t>(n));
    const int64_t now = NowNs();
    last_reply_ns_ = now;
    size_t start = 0;
    for (size_t nl; (nl = conn.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      const std::string_view line(conn.in.data() + start, nl - start);
      if (conn.inflight.empty()) {
        if (want_raw_) {
          reply_ = std::string(line);
          want_raw_ = false;
          continue;
        }
        load_->report->Fail("reply with no request in flight");
        return false;
      }
      const Inflight f = conn.inflight.front();
      conn.inflight.pop_front();
      OnReply(*load_, *f.op, line, static_cast<double>(now - f.sent_ns) / 1e3);
      --live_[f.batch - first_live_].unanswered;
    }
    conn.in.erase(0, start);
    return true;
  }

  Load* load_;
  std::vector<Conn> conns_;
  std::deque<Batch> live_;   // Batches of the stream not yet answered.
  uint64_t first_live_ = 0;  // Stream index of live_.front().
  int64_t last_reply_ns_ = NowNs();
  bool want_raw_ = false;
  bool broken_ = false;
  std::string reply_;
};

std::string ObserveLine(int32_t user, const poi::Checkin& c) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"op\":\"observe\",\"user\":%d,\"poi\":%d,\"timestamp\":%lld}",
                user, c.poi, static_cast<long long>(c.timestamp));
  return buf;
}

std::string TopKLine(int32_t user, int64_t timestamp, bool strict) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"op\":\"topk\",\"user\":%d,\"k\":%d,\"timestamp\":%lld%s}",
                user, kTopK, static_cast<long long>(timestamp),
                strict ? ",\"strict\":true" : "");
  return buf;
}

Op MakeObserve(int32_t user, const poi::Checkin& c, int round) {
  Op op;
  op.kind = Op::Kind::kObserve;
  op.conn = user % kConnections;
  op.round = round;
  op.line = ObserveLine(user, c);
  return op;
}

Op MakeTopK(int32_t user, const poi::Checkin& next, bool strict, int round) {
  Op op;
  op.kind = Op::Kind::kTopK;
  op.conn = user % kConnections;
  op.round = round;
  op.strict = strict;
  op.hr_case = round == 0;
  op.truth = next.poi;
  op.line = TopKLine(user, next.timestamp, strict);
  return op;
}

/// A sampled topk answer is replayed in-process on every 97th topk, up to
/// this many per run.
constexpr int kSampleEvery = 97;
constexpr size_t kMaxSamples = 48;

void MaybeSample(Load& load, Op& op, uint64_t* topk_counter, int world_user,
                 int rounds_before, int position, int64_t timestamp) {
  if ((*topk_counter)++ % kSampleEvery != 0) return;
  if (load.samples.size() >= kMaxSamples) return;
  op.sample = static_cast<int>(load.samples.size());
  load.samples.push_back({world_user, rounds_before, position, timestamp, {},
                          false});
}

/// Topk-then-observe pairs over the test check-ins, interleaved across
/// users position by position (serve_hot).
std::vector<Op> TestRound(Load& load, const WarmTest& split, int round,
                          uint64_t* topk_counter) {
  std::vector<Op> ops;
  size_t longest = 0;
  for (const auto& t : split.test) longest = std::max(longest, t.size());
  for (size_t j = 0; j < longest; ++j) {
    for (size_t u = 0; u < split.test.size(); ++u) {
      if (j >= split.test[u].size()) continue;
      const poi::Checkin& c = split.test[u][j];
      const int32_t user = static_cast<int32_t>(u);
      Op topk = MakeTopK(user, c, /*strict=*/false, round);
      MaybeSample(load, topk, topk_counter, static_cast<int>(u), round,
                  static_cast<int>(j), c.timestamp);
      ops.push_back(std::move(topk));
      ops.push_back(MakeObserve(user, c, round));
    }
  }
  return ops;
}

/// `seq` cut or cycled to exactly `length` check-ins with increasing
/// timestamps, so every churn user issues the same number of ops.
poi::CheckinSequence FixedLength(const poi::CheckinSequence& seq, int length) {
  poi::CheckinSequence out;
  if (seq.empty()) return out;
  const int64_t span = seq.back().timestamp - seq.front().timestamp + 3 * 3600;
  for (int i = 0; i < length; ++i) {
    const size_t n = seq.size();
    poi::Checkin c = seq[static_cast<size_t>(i) % n];
    c.timestamp += span * static_cast<int64_t>(static_cast<size_t>(i) / n);
    out.push_back(c);
  }
  return out;
}

/// One serve_churn round over fresh user ids: interleaved observes and
/// topk-then-observe pairs across every user (so nearly every request
/// misses the LRU and rebuilds its session from history), then a quiesced
/// model flip, then strict topk probes for users seen before the flip.
struct ChurnRound {
  std::vector<Op> traffic;
  Op flip;
  std::vector<Op> probes;
};

ChurnRound MakeChurnRound(Load& load, const ServeSpec& spec,
                          const std::vector<poi::CheckinSequence>& streams,
                          int round, uint64_t* topk_counter) {
  ChurnRound r;
  const int32_t base = 1'000'000 + round * spec.traffic_users;
  for (int j = 0; j + 1 < spec.churn_length; ++j) {
    for (int u = 0; u < spec.traffic_users; ++u) {
      const poi::Checkin& c = streams[static_cast<size_t>(u)][static_cast<size_t>(j)];
      if (j >= spec.churn_seeded) {
        Op topk = MakeTopK(base + u, c, /*strict=*/false, round);
        MaybeSample(load, topk, topk_counter, u, 0, j, c.timestamp);
        r.traffic.push_back(std::move(topk));
      }
      r.traffic.push_back(MakeObserve(base + u, c, round));
    }
  }
  r.flip.kind = Op::Kind::kActivate;
  r.flip.round = round;
  r.flip.line = "{\"op\":\"activate\",\"version\":1}";
  for (int u = 0; u < spec.churn_probes; ++u) {
    const poi::Checkin& last =
        streams[static_cast<size_t>(u)][static_cast<size_t>(spec.churn_length - 1)];
    r.probes.push_back(MakeTopK(base + u, last, /*strict=*/true, round));
  }
  return r;
}

double JsonNumberAfter(const std::string& json, size_t from) {
  size_t i = from;
  while (i < json.size() && (json[i] == ' ' || json[i] == ':')) ++i;
  return std::strtod(json.c_str() + i, nullptr);
}

}  // namespace

double RegistryValue(const std::string& json, const std::string& name,
                     const std::string& field) {
  const size_t at = json.find("\"" + name + "\"");
  if (at == std::string::npos) return -1.0;
  const size_t after = at + name.size() + 2;
  if (field.empty()) return JsonNumberAfter(json, after);
  const size_t close = json.find('}', after);
  const size_t f = json.find("\"" + field + "\"", after);
  if (f == std::string::npos || f > close) return -1.0;
  return JsonNumberAfter(json, f + field.size() + 2);
}

namespace {

/// Session-store counters summed over shards.
struct SessionCounts {
  double hits = 0.0;
  double misses = 0.0;
  double evictions = 0.0;
};

double RegistrySum(const std::string& json, const std::string& prefix,
                   const std::string& suffix) {
  double sum = 0.0;
  for (int shard = 0; shard < 64; ++shard) {
    const double v =
        RegistryValue(json, prefix + std::to_string(shard) + suffix, "");
    if (v < 0) break;
    sum += v;
  }
  return sum;
}

SessionCounts ReadSessionCounts(const std::string& registry) {
  SessionCounts c;
  c.hits = RegistrySum(registry, "serve.shard", ".sessions.hits");
  c.misses = RegistrySum(registry, "serve.shard", ".sessions.misses");
  c.evictions = RegistrySum(registry, "serve.shard", ".sessions.evictions");
  return c;
}

/// Reads the server-registry layer figures from the "registry" object of a
/// stats reply. `carried` adds session counters of stores a model flip has
/// since replaced.
void RecordRegistryLayers(const std::string& registry, Report* report,
                          const SessionCounts& carried) {
  for (const char* hist : {"net.parse_us", "net.serialize_us",
                           "net.write_wait_us", "net.queue_wait_us",
                           "serve.compute_us"}) {
    report->Layer(std::string(hist) + ".p50",
                  RegistryValue(registry, hist, "p50"));
  }
  report->Layer("net.queue_wait_us.p99",
                RegistryValue(registry, "net.queue_wait_us", "p99"));
  const SessionCounts now = ReadSessionCounts(registry);
  const double hits = carried.hits + now.hits;
  const double misses = carried.misses + now.misses;
  report->Layer("serve.session.hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->Layer("serve.session.rebuilds",
                std::max(0.0, RegistryValue(registry, "serve.session.rebuilds", "")));
  report->Layer("serve.session.evictions", carried.evictions + now.evictions);
  const double pool_hits = RegistryValue(registry, "tensor.pool.hits", "");
  const double pool_misses = RegistryValue(registry, "tensor.pool.misses", "");
  report->Layer("tensor.pool.reuse_ratio",
                pool_hits + pool_misses > 0
                    ? pool_hits / (pool_hits + pool_misses)
                    : 0.0);
}

}  // namespace

int PrintServePlan(const std::string& workload) {
  const ServeSpec spec = SpecFor(workload);
  if (spec.traffic_users == 0) return 2;
  std::printf("\"--seed\",\"%llu\",\"--users\",\"%d\",\"--pois\",\"%d\","
              "\"--epochs-scale\",\"%s\"",
              static_cast<unsigned long long>(kWorldSeed), kTrainUsers,
              kNumPois, kEpochsScale);
  return 0;
}

int RunServe(const Flags& flags) {
  const std::string workload = flags.Get("workload");
  const ServeSpec spec = SpecFor(workload);
  if (spec.traffic_users == 0) {
    std::fprintf(stderr, "perfbench: unknown serving workload %s\n",
                 workload.c_str());
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = static_cast<double>(flags.GetInt("seconds", 10));
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const int server_pid = static_cast<int>(flags.GetInt("server-pid", 0));
  const std::string store_dir = flags.Get("store");
  const std::string trace_out = flags.Get("trace-out");
  if (!trace_out.empty()) SpanLog::Get().Enable();

  Report report;
  Load load;
  load.report = &report;
  load.num_pois = kNumPois;
  load.churn = workload == "serve_churn";

  // The program's answers are checked against the same artifact, loaded
  // in-process.
  pa::serve::ModelStore store(store_dir);
  pa::serve::LoadedModel loaded;
  std::string error;
  if (!store.LoadActive("LSTM", &loaded, &error)) {
    std::fprintf(stderr, "perfbench: cannot load the published model: %s\n",
                 error.c_str());
    return 2;
  }
  // The fixed world the model was published from. The traffic is its
  // training users (returning users the model knows) followed by a block of
  // users new to the model; the seed picks the block.
  const int64_t gen_start = NowNs();
  const int new_users = spec.traffic_users - kTrainUsers;
  const poi::SyntheticLbsn world =
      MakeWorld(kWorldSeed, kTrainUsers + kUserBlocks * new_users, kNumPois);
  poi::Dataset traffic = UserBlock(world.observed, 0, kTrainUsers);
  {
    const poi::Dataset block = UserBlock(
        world.observed,
        kTrainUsers + static_cast<int>(seed % kUserBlocks) * new_users,
        new_users);
    traffic.sequences.insert(traffic.sequences.end(), block.sequences.begin(),
                             block.sequences.end());
  }
  report.Info("world_gen_s", static_cast<double>(NowNs() - gen_start) / 1e9);
  if (loaded.pois->size() != world.observed.pois.size()) {
    report.Fail("published POI table differs from the benchmark's world");
  } else {
    for (int p = 0; p < loaded.pois->size(); ++p) {
      if (!(loaded.pois->coord(p) == world.observed.pois.coord(p))) {
        report.Fail("published POI coordinates differ from the world's");
        break;
      }
    }
  }
  const WarmTest split = SplitWarmTest(traffic);
  std::vector<poi::CheckinSequence> streams;
  if (load.churn) {
    for (const auto& seq : traffic.sequences) {
      streams.push_back(FixedLength(seq, spec.churn_length));
    }
  }

  Client client(&load);
  if (!client.Connect(port)) {
    std::fprintf(stderr, "perfbench: cannot connect to 127.0.0.1:%d\n", port);
    return 2;
  }

  // Warm-up histories (not measured): every user's training + validation
  // check-ins, interleaved across users.
  if (!load.churn) {
    std::vector<Op> seed_ops;
    size_t longest = 0;
    for (const auto& w : split.warmup) longest = std::max(longest, w.size());
    for (size_t j = 0; j < longest; ++j) {
      for (size_t u = 0; u < split.warmup.size(); ++u) {
        if (j < split.warmup[u].size()) {
          seed_ops.push_back(MakeObserve(static_cast<int32_t>(u),
                                         split.warmup[u][j], -1));
        }
      }
    }
    SpanLog::Scope span("bench.seed_histories");
    client.RunBatch(std::move(seed_ops));
  }

  const double cpu0 = ProcessCpuUs(server_pid);
  const int64_t t0 = NowNs();
  uint64_t topk_counter = 0;
  int rounds = 0;
  SessionCounts carried;
  std::vector<double> round_rate;
  if (load.churn) {
    while (rounds == 0 ||
           static_cast<double>(NowNs() - t0) / 1e9 < seconds) {
      SpanLog::Scope span("bench.round", static_cast<uint64_t>(rounds + 1));
      const int64_t round_start = NowNs();
      const uint64_t round_ops = load.attempted;
      ChurnRound r = MakeChurnRound(load, spec, streams, rounds, &topk_counter);
      if (!client.RunBatch(std::move(r.traffic))) break;
      // Quiesced barrier: everything answered, then the flip alone. A flip
      // replaces the session store and its counters, so they are read
      // (outside the measured ops) just before it.
      const SessionCounts before =
          ReadSessionCounts(client.Call("{\"op\":\"stats\"}"));
      carried.hits += before.hits;
      carried.misses += before.misses;
      carried.evictions += before.evictions;
      ++load.sent;
      const int64_t flip_start = NowNs();
      const std::string reply = client.Call(r.flip.line);
      OnReply(load, r.flip, reply, static_cast<double>(NowNs() - flip_start) / 1e3);
      if (!client.RunBatch(std::move(r.probes))) break;
      // Per-round throughput; the run reports the median, so a host stall
      // inside one round moves one round's figure.
      round_rate.push_back(static_cast<double>(load.attempted - round_ops) /
                           (static_cast<double>(NowNs() - round_start) / 1e9));
      ++rounds;
    }
  } else {
    // One stream of whole rounds: each connection runs on into the next
    // round while the last is still being answered, so only the end of the
    // run drains the pipeline.
    std::vector<size_t> round_size;
    std::vector<int64_t> round_done;
    SpanLog::Scope span("bench.rounds");
    client.RunStream([&](std::vector<Op>* ops) {
      if (rounds > 0 && static_cast<double>(NowNs() - t0) / 1e9 >= seconds) {
        return false;
      }
      *ops = TestRound(load, split, rounds++, &topk_counter);
      round_size.push_back(ops->size());
      return true;
    }, &round_done);
    // Per-round throughput, from one round's last answer to the next's.
    int64_t previous = t0;
    for (size_t r = 0; r < round_done.size(); ++r) {
      round_rate.push_back(static_cast<double>(round_size[r]) /
                           (static_cast<double>(round_done[r] - previous) / 1e9));
      previous = round_done[r];
    }
  }
  const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
  const double cpu1 = ProcessCpuUs(server_pid);

  const std::string stats = client.Call("{\"op\":\"stats\"}");
  const size_t reg_at = stats.find("\"registry\":");
  const std::string registry =
      reg_at == std::string::npos ? "" : stats.substr(reg_at);
  if (registry.empty()) report.Fail("stats reply has no registry");
  const double rss_mb = PeakRssMb(server_pid);

  // --- Checks ---------------------------------------------------------
  if (load.answered != load.sent) {
    report.Fail("answered " + std::to_string(load.answered) + " of " +
                std::to_string(load.sent) + " ops sent");
  }
  if (load.failed != load.expected_failures) {
    report.Fail("unexpected failures");
  }
  {
    SpanLog::Scope span("bench.check.replay");
    const pa::tensor::InferenceModeScope inference;
    int mismatches = 0;
    for (const Sample& s : load.samples) {
      if (!s.answered) continue;
      auto session = loaded.model->NewSession(0);
      if (load.churn) {
        for (int i = 0; i < s.position; ++i) {
          session->Observe(streams[static_cast<size_t>(s.world_user)]
                                  [static_cast<size_t>(i)]);
        }
      } else {
        const size_t u = static_cast<size_t>(s.world_user);
        for (const auto& c : split.warmup[u]) session->Observe(c);
        for (int r = 0; r < s.rounds_before; ++r) {
          for (const auto& c : split.test[u]) session->Observe(c);
        }
        for (int i = 0; i < s.position; ++i) session->Observe(split.test[u][i]);
      }
      const std::vector<int32_t> replayed = session->TopK(kTopK, s.timestamp);
      if (replayed != s.answer && mismatches++ == 0) {
        std::fprintf(stderr,
                     "perfbench: sample mismatch: user %d round %d position %d: "
                     "served %d %d %d..., replayed %d %d %d...\n",
                     s.world_user, s.rounds_before, s.position, s.answer[0],
                     s.answer[1], s.answer[2], replayed[0], replayed[1],
                     replayed[2]);
      }
    }
    report.Info("check.replayed_samples", static_cast<double>(load.samples.size()));
    if (mismatches) {
      report.Fail(std::to_string(mismatches) +
                  " sampled TCP answers differ from an in-process replay");
    }
  }

  // Offline HR@10 on the same artifact and split; on serve_hot (every
  // session live, no eviction, no flip) it must equal the online figure
  // exactly.
  pa::eval::HrResult offline;
  std::vector<poi::CheckinSequence> warm = split.warmup, test = split.test;
  if (load.churn) {
    for (size_t u = 0; u < streams.size(); ++u) {
      const auto& s = streams[u];
      warm[u].assign(s.begin(), s.begin() + spec.churn_seeded);
      test[u].assign(s.begin() + spec.churn_seeded, s.end() - 1);
    }
  }
  const std::vector<double> eval_s = Repeat(0.5, 3, [&] {
    SpanLog::Scope span("bench.eval_hr");
    offline = pa::eval::EvaluateHr(*loaded.model, warm, test);
  });
  if (workload == "serve_hot" && offline.hr10 != load.hr.Ratio()) {
    report.Fail("online hr10 " + std::to_string(load.hr.Ratio()) +
                " != EvaluateHr " + std::to_string(offline.hr10));
  }
  report.Info("check.offline_hr10", offline.hr10);

  // Stage means (all request classes together: the registry does not split
  // them by op) against the client's mean round trip.
  std::vector<double> stage_means;
  for (const char* h : {"net.parse_us", "net.queue_wait_us", "serve.compute_us",
                        "net.serialize_us", "net.write_wait_us"}) {
    stage_means.push_back(std::max(0.0, RegistryValue(registry, h, "mean")));
  }
  const double client_rtt =
      load.rtt_count ? load.rtt_sum_us / static_cast<double>(load.rtt_count) : 0;
  double stage_sum = 0.0;
  for (double m : stage_means) stage_sum += m;
  report.Info("check.stage_sum_us", stage_sum);
  report.Info("check.client_mean_rtt_us", client_rtt);
  if (!StagesWithinRoundTrip(stage_means, client_rtt)) {
    report.Fail("server stage means sum to " + std::to_string(stage_sum) +
                " us, above the client mean round trip " +
                std::to_string(client_rtt) + " us");
  }

  // --- Figures --------------------------------------------------------
  report.Count(load.attempted, load.failed);
  const RoundsSummary topk = SummarizeRounds(load.topk_us);
  const RoundsSummary observe = SummarizeRounds(load.observe_us);
  report.E2e("throughput_ops_s", Median(round_rate));
  report.E2e("topk_p50_us", topk.p50);
  report.E2e("topk_p99_us", topk.tail);
  report.E2e("observe_p99_us", observe.tail);
  // Whole run: /proc CPU time ticks at 10 ms, too coarse for one round.
  report.E2e("server_cpu_us_per_op",
             (cpu1 - cpu0) / static_cast<double>(
                                 std::max<uint64_t>(1, load.attempted)));
  report.E2e("peak_rss_mb", rss_mb);
  report.E2e("hr10", load.hr.Ratio());
  report.Info("eval_cases_s", static_cast<double>(offline.num_cases) / Median(eval_s));
  report.Info("rounds", rounds);
  report.Info("measured_s", elapsed);
  report.Info("topk.samples", static_cast<double>(topk.n));
  report.Info("topk.tail_quantile", topk.tail_q);
  report.Info("observe.tail_quantile", observe.tail_q);
  report.Info("hr10.cases", static_cast<double>(load.hr.cases()));
  RecordRegistryLayers(registry, &report, carried);

  if (!trace_out.empty()) {
    RunLayerSuite(seed, flags.Get("scratch", "."), &report);
    if (!SpanLog::Get().Write(trace_out)) report.Fail("cannot write trace");
  }
  report.Print();
  return 0;
}

}  // namespace perfbench
