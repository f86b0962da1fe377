#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "bench/bench_util.h"

namespace perfbench {

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.emplace_back(name, std::make_pair(value, unit));
}

std::string MetricSink::ToJson() const {
  std::string json = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const auto& [name, value_unit] = entries_[i];
    double value = value_unit.first;
    if (!std::isfinite(value)) value = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            value_unit.second + "\"}";
  }
  return json + "}";
}

double Percentile(const std::vector<double>& samples, double p) {
  return reldiv::bench::PercentileNs(samples, p);
}

double Max(const std::vector<double>& samples) {
  return samples.empty() ? 0 : *std::max_element(samples.begin(),
                                                 samples.end());
}

double TrimmedMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const size_t cut = sorted.size() / 20;
  double sum = 0;
  for (size_t i = cut; i < sorted.size() - cut; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * cut);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStorage:
      return "storage";
    case Layer::kPlanner:
      return "planner";
    case Layer::kExec:
      return "exec";
    case Layer::kDivision:
      return "division";
    case Layer::kParallel:
      return "parallel";
    case Layer::kService:
      return "service";
    case Layer::kQcache:
      return "qcache";
    case Layer::kBench:
      return "bench";
  }
  return "unknown";
}

Tracer::Tracer(bool enabled) {
  if (enabled) recorder_ = std::make_unique<reldiv::TraceRecorder>();
  origin_ = Clock::now();
}

uint64_t Tracer::ToMicros(Clock::time_point t) const {
  if (t <= origin_) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
          .count());
}

void Tracer::Record(const char* name, Layer layer, Clock::time_point start,
                    Clock::time_point end, uint64_t req, uint64_t parent,
                    uint64_t id, uint64_t within) {
  if (recorder_ == nullptr) return;
  const uint64_t start_us = ToMicros(start);
  const uint64_t end_us = std::max(start_us, ToMicros(end));
  reldiv::TraceRecorder::Args args{{"id", id}, {"req", req}, {"parent", parent}};
  if (within != 0) args.emplace_back("within", within);
  recorder_->Complete(name, LayerName(layer), start_us, end_us - start_us,
                      0, std::move(args));
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRec{id, parent, within, layer, start_us, end_us});
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<Layer, double> Tracer::SelfTimeUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const SpanRec& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_us, span.end_us);
    }
    if (span.within != 0) {
      children[span.within].emplace_back(span.start_us, span.end_us);
    }
  }
  std::map<Layer, double> self;
  for (Layer layer : kAllLayers) self[layer] = 0;
  for (const SpanRec& span : spans_) {
    uint64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      uint64_t cursor = span.start_us;
      for (const auto& [kid_start, kid_end] : kids) {
        const uint64_t lo = std::max(kid_start, cursor);
        const uint64_t hi = std::min(kid_end, span.end_us);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[span.layer] +=
        static_cast<double>(span.end_us - span.start_us - covered);
  }
  return self;
}

reldiv::Status Tracer::WriteFile(const std::string& path) const {
  if (recorder_ == nullptr) return reldiv::Status::OK();
  return recorder_->WriteFile(path);
}

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

void Digest::AddRow(const int64_t* values, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ull + n;
  for (size_t i = 0; i < n; ++i) {
    h = Mix(h ^ static_cast<uint64_t>(values[i]));
  }
  rows++;
  sum += h;
}

void Digest::Add(const reldiv::Tuple& tuple) {
  int64_t values[8];
  const size_t n = std::min<size_t>(tuple.size(), 8);
  for (size_t i = 0; i < n; ++i) values[i] = tuple.value(i).int64();
  AddRow(values, n);
}

Digest DigestOf(const std::vector<reldiv::Tuple>& rows) {
  Digest digest;
  for (const reldiv::Tuple& row : rows) digest.Add(row);
  return digest;
}

reldiv::Status CheckSortedEqual(std::vector<reldiv::Tuple> actual,
                                const std::vector<reldiv::Tuple>& expected,
                                const std::string& what) {
  std::sort(actual.begin(), actual.end());
  if (actual.size() != expected.size()) {
    return reldiv::Status::Internal(
        what + ": quotient has " + std::to_string(actual.size()) +
        " rows, expected " + std::to_string(expected.size()));
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i]) {
      return reldiv::Status::Internal(what + ": quotient row " +
                                      std::to_string(i) + " is " +
                                      actual[i].ToString() + ", expected " +
                                      expected[i].ToString());
    }
  }
  return reldiv::Status::OK();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace perfbench
