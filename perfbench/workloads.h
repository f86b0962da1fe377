#ifndef RELDIV_PERFBENCH_WORKLOADS_H_
#define RELDIV_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common/status.h"
#include "perfbench/harness.h"

namespace perfbench {

/// paper_cold: the §5.1 system, one cold query at a time.
RunResult RunPaperCold(const RunConfig& config);

/// service_churn: the DivisionService and its quotient cache under queries
/// and catalog writes.
RunResult RunServiceChurn(const RunConfig& config);

/// The service, qcache, obs and load-generator per-layer metrics. Every
/// workload emits the full set, so paper_cold (where these layers do no
/// work) emits zeros.
struct ServiceLayers {
  /// Open loop at the workload's fixed rate: latency from the scheduled
  /// send time (p99: median over windows of 1000 requests).
  double open_p50 = 0, open_p99 = 0;
  double submit_us = 0;      ///< p50 DivisionService::Submit
  double drain_us = 0;       ///< p50 DivisionService::RunUntilIdle
  double queue_wait_p50 = 0, queue_wait_p99 = 0;
  double exec_hit_p50 = 0, exec_hit_p99 = 0, exec_miss_p50 = 0;
  double admission_rejects = 0, grant_timeouts = 0, queue_depth_high_water = 0;
  double late_p50 = 0, late_p99 = 0, late_max = 0;
  double check_us = 0;       ///< p50 time to verify one answer
  double hit_ratio = 0, evictions = 0, incremental_updates = 0,
         invalidations = 0;
  double write_p50 = 0, write_p99 = 0;
  /// Closed loop with nproc in flight, telemetry on and off.
  double capacity_nproc_qps = 0, capacity_qps_off = 0, hit_share = 0;

  void Add(MetricSink* sink) const;
};

/// Adds self.<layer>_us (self time per operation), trace.spans and
/// trace.overhead_frac.
void AddTraceSummary(MetricSink* sink, const Tracer& tracer,
                     double overhead_frac, double operations);

/// Writes the traced run's spans to <out_dir>/<workload>_seed<n>_trace.json.
reldiv::Status WriteTrace(const RunConfig& config, const Tracer& tracer);

}  // namespace perfbench

#endif  // RELDIV_PERFBENCH_WORKLOADS_H_
