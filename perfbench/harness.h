#ifndef RELDIV_PERFBENCH_HARNESS_H_
#define RELDIV_PERFBENCH_HARNESS_H_

// Shared pieces of the repository benchmark (see WORKLOADS.md): the run
// configuration, the metric sink that becomes the final JSON line, sample
// statistics, span recording around public library calls, and the
// order-independent quotient digests the answer checks compare.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every workload to seconds-scale sizes (self-test only; the
  /// numbers of a tiny run mean nothing).
  bool tiny = false;
  std::string out_dir = ".";
  std::string git_sha = "none";
  std::string src_digest = "none";
};

/// Named metrics in emission order; becomes the "metrics" object.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Nearest-rank percentile (bench::PercentileNs) and median of a sample.
double Percentile(const std::vector<double>& samples, double p);
inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50);
}
double Max(const std::vector<double>& samples);
/// Mean of the samples between the 5th and the 95th percentile.
double TrimmedMean(const std::vector<double>& samples);

/// The layers spans are recorded for, named after the src/ modules, plus
/// the benchmark's own code. (The obs layer has no public call to wrap;
/// it is measured by toggling telemetry instead.)
enum class Layer {
  kStorage,
  kPlanner,
  kExec,
  kDivision,
  kParallel,
  kService,
  kQcache,
  kBench,
};
inline constexpr Layer kAllLayers[] = {
    Layer::kStorage,  Layer::kPlanner, Layer::kExec,   Layer::kDivision,
    Layer::kParallel, Layer::kService, Layer::kQcache, Layer::kBench};
const char* LayerName(Layer layer);

/// Spans recorded by the benchmark around its calls into the library, via
/// TraceRecorder::Complete. Every span carries its own `id`, the `req`
/// (request) it belongs to and its `parent` span in the event args. A span
/// that ran inside a call shared by several requests (a ticket's queue wait
/// and execution inside RunUntilIdle) also names that call's span as
/// `within`. A disabled tracer (the untraced run) has no recorder and
/// records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return recorder_ != nullptr; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Microseconds on the recorder's timeline.
  uint64_t ToMicros(Clock::time_point t) const;

  /// Records one finished span. No-op when disabled.
  void Record(const char* name, Layer layer, Clock::time_point start,
              Clock::time_point end, uint64_t req, uint64_t parent,
              uint64_t id, uint64_t within = 0);

  size_t num_spans() const;

  /// Per-layer self time in microseconds: each span's duration minus the
  /// part of it covered by its child spans and the spans recorded within
  /// it, summed per layer. Each interval thus counts once, in the layer of
  /// the innermost span that covers it.
  std::map<Layer, double> SelfTimeUs() const;

  reldiv::Status WriteFile(const std::string& path) const;

 private:
  struct SpanRec {
    uint64_t id;
    uint64_t parent;
    uint64_t within;
    Layer layer;
    uint64_t start_us;
    uint64_t end_us;
  };

  std::unique_ptr<reldiv::TraceRecorder> recorder_;
  Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
};

/// RAII span: records [construction, End()/destruction) on a tracer.
class Span {
 public:
  Span(Tracer* tracer, const char* name, Layer layer, uint64_t req,
       uint64_t parent)
      : tracer_(tracer),
        name_(name),
        layer_(layer),
        req_(req),
        parent_(parent),
        id_(tracer->enabled() ? tracer->NewId() : 0),
        start_(Clock::now()) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }
  void End() {
    if (ended_) return;
    ended_ = true;
    tracer_->Record(name_, layer_, start_, Clock::now(), req_, parent_, id_);
  }

 private:
  Tracer* tracer_;
  const char* name_;
  Layer layer_;
  uint64_t req_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
  bool ended_ = false;
};

/// Order-independent fingerprint of a quotient: row count plus a sum of
/// mixed per-row hashes, so a changed, missing or extra row changes it.
/// Quotient columns are int64 throughout the benchmark.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void AddRow(const int64_t* values, size_t n);
  void Add(const reldiv::Tuple& tuple);
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};
Digest DigestOf(const std::vector<reldiv::Tuple>& rows);

/// True when `actual`, once sorted, equals the sorted `expected` row for
/// row. `what` names the query in the error.
reldiv::Status CheckSortedEqual(std::vector<reldiv::Tuple> actual,
                                const std::vector<reldiv::Tuple>& expected,
                                const std::string& what);

/// Process peak resident set size in MB.
double PeakRssMb();

/// One workload run: fills `metrics` with the end-to-end metrics (untraced
/// run) or the per-layer metrics (traced run) and counts operations.
struct RunResult {
  MetricSink metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  reldiv::Status status;  ///< non-OK: a wrong answer or a broken run
};

}  // namespace perfbench

#endif  // RELDIV_PERFBENCH_HARNESS_H_
