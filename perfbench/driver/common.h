// Shared pieces of the benchmark driver: flags, clocks, /proc readers, the
// benchmark's own span log and the seeded worlds every workload draws from.
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "poi/synthetic.h"

namespace perfbench {

namespace poi = ::pa::poi;

/// --key value flags.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Get(const std::string& key, const std::string& def = "") const;
  long long GetInt(const std::string& key, long long def) const;

 private:
  std::map<std::string, std::string> values_;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// utime + stime of a process in microseconds, from /proc/<pid>/stat;
/// -1 when unreadable.
double ProcessCpuUs(int pid);
/// Peak resident set (VmHWM) of a process in MB, from /proc/<pid>/status;
/// -1 when unreadable.
double PeakRssMb(int pid);

/// Accumulates end-to-end, per-layer and informational figures plus the
/// correctness verdict, and prints them as the driver's one result line.
class Report {
 public:
  void E2e(const std::string& name, double value) { e2e_[name] = value; }
  void Layer(const std::string& name, double value) { layer_[name] = value; }
  void Info(const std::string& name, double value) { info_[name] = value; }
  void Fail(const std::string& why);
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return errors_.empty(); }
  void Print() const;

 private:
  std::map<std::string, double> e2e_, layer_, info_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The benchmark's own spans around its in-process calls into the program
/// (name, start, end, parent, request id), kept in memory and written at
/// the end together with the program's own spans as Chrome Trace JSON.
/// Disabled (every call a no-op) outside a traced run.
class SpanLog {
 public:
  static SpanLog& Get();
  /// Turns recording on, together with the program's process tracing.
  void Enable();

  class Scope {
   public:
    Scope(const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    size_t index_ = SIZE_MAX;
  };

  /// Holds program spans drained early (by a layer that reads them) so
  /// Write still exports them.
  void KeepProgramEvents(std::vector<pa::obs::TraceEvent> events);
  /// Drains the program's spans and writes both sets to `path`.
  bool Write(const std::string& path);

 private:
  struct Span {
    const char* name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
  };
  bool enabled_ = false;
  uint64_t marker_id_ = 0;
  std::vector<Span> spans_;
  std::vector<pa::obs::TraceEvent> kept_;
  std::vector<uint64_t> open_;  // Ids of the currently open scopes.
};

/// The synthetic Gowalla-profile world a workload draws from. The POI world
/// depends only on (seed, num_pois); user u's trajectory only on (seed, u),
/// so a world with more users extends one with fewer.
poi::SyntheticLbsn MakeWorld(uint64_t seed, int num_users, int num_pois);

/// Every workload's world (and so each serving workload's published model)
/// is generated from this fixed seed: HR@10 then compares runs of one model
/// on one map instead of swinging with the map. `--seed` picks which block
/// of that world's users, of kUserBlocks, makes the workload's inputs.
constexpr uint64_t kWorldSeed = 20260819;
constexpr int kUserBlocks = 8;

/// Prints the `pa_serve publish` arguments of a serving workload as JSON
/// array elements; 2 for an unknown workload.
int PrintServePlan(const std::string& workload);

/// Per-user warm-up (training + validation check-ins) and test check-ins of
/// the chronological split `eval::EvaluateHr` is run with.
struct WarmTest {
  std::vector<poi::CheckinSequence> warmup;
  std::vector<poi::CheckinSequence> test;
};
WarmTest SplitWarmTest(const poi::Dataset& dataset);

/// Runs `fn` until at least `min_seconds` and `min_reps` repetitions have
/// passed; returns the per-repetition wall time in seconds.
template <typename Fn>
std::vector<double> Repeat(double min_seconds, int min_reps, Fn&& fn) {
  std::vector<double> out;
  const int64_t start = NowNs();
  while (static_cast<int>(out.size()) < min_reps ||
         static_cast<double>(NowNs() - start) / 1e9 < min_seconds) {
    const int64_t t0 = NowNs();
    fn();
    out.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return out;
}

int RunServe(const Flags& flags);
/// Times every named layer in-process and records them on `report`.
/// `scratch` is a directory the suite may create model stores under.
void RunLayerSuite(uint64_t seed, const std::string& scratch, Report* report);
/// Value of instrument `name` in a registry snapshot JSON: a counter or
/// gauge, or with `field` (e.g. "p50") that field of a histogram. -1 when
/// the instrument does not exist.
double RegistryValue(const std::string& json, const std::string& name,
                     const std::string& field);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
