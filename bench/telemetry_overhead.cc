// Telemetry overhead ablation (DESIGN.md §14): the batch-native
// scan → filter → hash-division chain — the tree's hottest probe loop —
// executed under the three process telemetry modes.
//
//   off        RELDIV_TELEMETRY=off semantics: every instrumentation site
//              reduces to one relaxed mode load and a predicted branch.
//   counting   the default registered-but-idle state: counters and gauges
//              update (relaxed atomic adds), no clocks, no histograms.
//   sampling   full sampling: clock reads plus histogram records at the
//              latency sites (grant latency, disk transfers, query wall).
//
// All three lanes must produce the identical quotient and identical Table 1
// counters — telemetry observes the execution, it never changes it — and
// the headline gate holds counting-mode overhead over off at <= 2% of
// best-of-reps wall time (`telemetry_overhead_gate`). Wall time is noisy at
// the few-percent scale, so a failed gate re-measures both lanes a few
// times before it is believed; in smoke mode the gate is reported but not
// enforced.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "division/hash_division.h"
#include "exec/filter.h"
#include "exec/scan.h"
#include "obs/telemetry.h"

namespace reldiv {
namespace {

struct Measurement {
  std::string label;
  double wall_ms = 1e300;  // best across repetitions
  std::vector<double> wall_samples_ms;
  CpuCounters counters;
  std::vector<Tuple> quotient;
};

double Now() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kOverheadGate = 1.02;  // counting vs off, best-of-reps

struct Harness {
  std::unique_ptr<Database> db;
  ResolvedDivision resolved;
  DivisionOptions options;
  int64_t divisor_count = 0;
  uint64_t dividend_tuples = 0;

  /// Scan → Filter(divisor_id < |S|) → HashDivisionOperator; the dividend is
  /// (quotient_id, divisor_id) and foreign divisor values lie above |S|.
  std::unique_ptr<Operator> MakePlan() const {
    ExecContext* ctx = db->ctx();
    const int64_t limit = divisor_count;
    auto filter = std::make_unique<FilterOperator>(
        std::make_unique<ScanOperator>(ctx, resolved.dividend),
        [limit](const Tuple& t) { return t.value(1).int64() < limit; });
    return std::make_unique<HashDivisionOperator>(
        ctx, std::move(filter),
        std::make_unique<ScanOperator>(ctx, resolved.divisor),
        resolved.match_attrs, resolved.quotient_attrs, options);
  }
};

Result<Harness> BuildHarness() {
  // Same scan-heavy regime as bench/batch_vs_tuple.cc: five sixths of the
  // dividend pays only the scan and filter, the rest the hash-division
  // probes — where telemetry overhead would show if any instrumentation
  // leaked into the per-tuple path.
  WorkloadSpec spec;
  spec.divisor_cardinality = 50;
  spec.quotient_candidates = bench::SmokeMode() ? 80 : 2000;
  spec.candidate_completeness = 1.0;
  spec.nonmatching_tuples = bench::SmokeMode() ? 20000 : 500000;
  spec.seed = 17;
  GeneratedWorkload workload = GenerateWorkload(spec);

  Harness h;
  h.dividend_tuples = workload.dividend.size();
  DatabaseOptions db_options;
  db_options.pool_bytes = 0;  // unbounded pool: keep the loop CPU-bound
  RELDIV_ASSIGN_OR_RETURN(h.db, Database::Open(db_options));
  Relation dividend, divisor;
  RELDIV_RETURN_NOT_OK(
      LoadWorkload(h.db.get(), workload, "to", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  RELDIV_ASSIGN_OR_RETURN(h.resolved, ResolveDivision(query));
  h.options.expected_divisor_cardinality = spec.divisor_cardinality;
  h.options.expected_quotient_cardinality = spec.quotient_candidates;
  h.divisor_count = static_cast<int64_t>(spec.divisor_cardinality);
  return h;
}

Status MeasureLane(Harness* h, TelemetryMode mode, int repetitions,
                   Measurement* m) {
  const TelemetryMode previous = Telemetry::SetMode(mode);
  Status status = [&]() -> Status {
    for (int rep = 0; rep < repetitions; ++rep) {
      RELDIV_RETURN_NOT_OK(h->db->buffer_manager()->FlushAll());
      RELDIV_RETURN_NOT_OK(h->db->buffer_manager()->DropAll());
      const CpuCounters before = *h->db->counters();
      std::unique_ptr<Operator> plan = h->MakePlan();
      const double t0 = Now();
      RELDIV_ASSIGN_OR_RETURN(std::vector<Tuple> quotient,
                              CollectAll(plan.get()));
      const double wall_ms = Now() - t0;
      CpuCounters delta = *h->db->counters();
      delta.comparisons -= before.comparisons;
      delta.hashes -= before.hashes;
      delta.moves -= before.moves;
      delta.bit_ops -= before.bit_ops;
      if (m->wall_samples_ms.empty()) {
        m->counters = delta;
        std::sort(quotient.begin(), quotient.end());
        m->quotient = std::move(quotient);
      } else if (delta.comparisons != m->counters.comparisons ||
                 delta.hashes != m->counters.hashes ||
                 delta.moves != m->counters.moves ||
                 delta.bit_ops != m->counters.bit_ops) {
        return Status::Internal("cost counters drifted between repetitions");
      }
      m->wall_ms = std::min(m->wall_ms, wall_ms);
      m->wall_samples_ms.push_back(wall_ms);
    }
    return Status::OK();
  }();
  Telemetry::SetMode(previous);
  return status;
}

Status Run(bench::BenchReporter* report) {
  const int kRepetitions = bench::SmokeMode() ? 2 : 7;
  const int kGateRetries = 3;
  RELDIV_ASSIGN_OR_RETURN(Harness h, BuildHarness());

  // Warm the registry so no lane pays first-touch registration: one throwaway
  // run under full sampling registers (and caches) every instrument the
  // measured path can reach.
  {
    Measurement warmup;
    warmup.label = "warmup";
    RELDIV_RETURN_NOT_OK(
        MeasureLane(&h, TelemetryMode::kSampling, 1, &warmup));
  }

  std::printf("=== Telemetry overhead: scan -> filter -> hash-division "
              "under off / counting / sampling ===\n\n");
  std::printf("dividend %llu tuples; best of %d runs per lane; gate: "
              "counting <= %.0f%% of off\n\n",
              static_cast<unsigned long long>(h.dividend_tuples), kRepetitions,
              (kOverheadGate - 1.0) * 100.0);

  const struct {
    TelemetryMode mode;
    const char* label;
  } kLanes[] = {{TelemetryMode::kOff, "off"},
                {TelemetryMode::kCounting, "counting"},
                {TelemetryMode::kSampling, "sampling"}};

  std::vector<Measurement> measurements(3);
  double overhead_counting = 0;
  bool gate_ok = false;
  for (int attempt = 0; attempt <= kGateRetries; ++attempt) {
    for (size_t i = 0; i < 3; ++i) {
      measurements[i] = Measurement{};
      measurements[i].label = kLanes[i].label;
      RELDIV_RETURN_NOT_OK(MeasureLane(&h, kLanes[i].mode, kRepetitions,
                                       &measurements[i]));
    }
    overhead_counting = measurements[1].wall_ms / measurements[0].wall_ms;
    gate_ok = overhead_counting <= kOverheadGate;
    if (gate_ok) break;
    std::printf("  gate miss on attempt %d (counting/off = %.4f) — "
                "re-measuring\n",
                attempt + 1, overhead_counting);
  }

  // Telemetry must be invisible to the computation: identical quotient and
  // identical Table 1 counters in every mode.
  const Measurement& base = measurements[0];
  for (const Measurement& m : measurements) {
    if (m.quotient != base.quotient) {
      return Status::Internal("quotient differs between off and " + m.label);
    }
    if (m.counters.comparisons != base.counters.comparisons ||
        m.counters.hashes != base.counters.hashes ||
        m.counters.moves != base.counters.moves ||
        m.counters.bit_ops != base.counters.bit_ops) {
      return Status::Internal("Table 1 counters differ between off and " +
                              m.label);
    }
  }

  const double overhead_sampling =
      measurements[2].wall_ms / measurements[0].wall_ms;
  std::printf("  %10s | %10s %14s %10s\n", "mode", "wall ms", "tuples/sec",
              "vs off");
  bench::Rule(52);
  for (const Measurement& m : measurements) {
    std::printf("  %10s | %10.2f %14.0f %9.4fx\n", m.label.c_str(), m.wall_ms,
                static_cast<double>(h.dividend_tuples) / (m.wall_ms / 1000.0),
                m.wall_ms / base.wall_ms);
  }
  std::printf("\ncounting-mode overhead: %.2f%% (gate %.0f%%): %s\n"
              "sampling-mode overhead: %.2f%%\n\n",
              (overhead_counting - 1.0) * 100.0,
              (kOverheadGate - 1.0) * 100.0,
              gate_ok ? "PASS" : "FAIL",
              (overhead_sampling - 1.0) * 100.0);

  for (const Measurement& m : measurements) {
    bench::BenchRow* row = report->AddRow(m.label);
    for (double sample : m.wall_samples_ms) row->AddWallMs(sample);
    row->counters = m.counters;
    row->AddValue("best_wall_ms", m.wall_ms);
    row->AddValue("tuples_per_sec", static_cast<double>(h.dividend_tuples) /
                                        (m.wall_ms / 1000.0));
    row->AddValue("quotient_tuples", static_cast<double>(m.quotient.size()));
    row->AddValue("overhead_vs_off", m.wall_ms / base.wall_ms);
  }
  report->AddParam("dividend_tuples", static_cast<double>(h.dividend_tuples));
  report->AddParam("overhead_counting", overhead_counting);
  report->AddParam("overhead_sampling", overhead_sampling);
  report->AddParam("telemetry_overhead_gate", kOverheadGate);
  report->AddParam("gate_ok", gate_ok ? 1 : 0);

  if (!gate_ok && !bench::SmokeMode()) {
    return Status::Internal("telemetry counting-mode overhead gate failed");
  }
  return Status::OK();
}

}  // namespace
}  // namespace reldiv

int main() {
  reldiv::bench::BenchReporter report("telemetry_overhead");
  report.AddParam("smoke", reldiv::bench::SmokeMode() ? 1 : 0);
  const reldiv::Status status = reldiv::Run(&report);
  if (!status.ok()) {
    std::fprintf(stderr, "telemetry_overhead failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return report.WriteFile() ? 0 : 1;
}
