#ifndef RELDIV_COMMON_METRIC_NAMES_H_
#define RELDIV_COMMON_METRIC_NAMES_H_

namespace reldiv {

/// Single source of truth for every metric, gauge, and counter field name
/// emitted by the tree. Three consumers keep each other honest:
///
///   - serializers (CpuCounters::ToJson, DiskStats::ToJson, ExportGauges
///     implementations, the telemetry exporters) reference these constants
///     instead of repeating string literals;
///   - tools/bench_report.py parses the `bench-schema:` blocks below and
///     fails validate/diff when its COUNTER_KEYS/IO_KEYS drift from them;
///   - tools/analyze.py (telemetry-names rule) rejects MetricRegistry
///     registration sites that pass a raw string literal instead of a
///     constant from this header.
///
/// The bench-schema blocks are machine-parsed: keep one `inline constexpr
/// char kX[] = "name";` per line between a `// bench-schema: <section>`
/// marker and the following `// bench-schema: end`.
namespace metric_names {

// bench-schema: counters
inline constexpr char kComparisons[] = "comparisons";
inline constexpr char kHashes[] = "hashes";
inline constexpr char kMoves[] = "moves";
inline constexpr char kBitOps[] = "bit_ops";
// bench-schema: end

// bench-schema: io
inline constexpr char kTransfers[] = "transfers";
inline constexpr char kSeeks[] = "seeks";
inline constexpr char kKbytes[] = "kbytes";
inline constexpr char kReads[] = "reads";
inline constexpr char kWrites[] = "writes";
// bench-schema: end

// ---- Per-operator gauges (Operator::ExportGauges keys; rendered by the
// QueryProfile tree and EXPLAIN ANALYZE). ----
inline constexpr char kGaugeBitmapFillRatio[] = "bitmap_fill_ratio";
inline constexpr char kGaugeDivisorCount[] = "divisor_count";
inline constexpr char kGaugeQuotientCandidates[] = "quotient_candidates";
inline constexpr char kGaugeHashMemoryBytes[] = "hash_memory_bytes";
inline constexpr char kGaugeEarlyOutputHits[] = "early_output_hits";
inline constexpr char kGaugeParallelFragments[] = "parallel_fragments";
inline constexpr char kGaugeInMemory[] = "in_memory";
inline constexpr char kGaugeInitialRuns[] = "initial_runs";
inline constexpr char kGaugeIntermediateMerges[] = "intermediate_merges";
inline constexpr char kGaugeExchangeFragments[] = "exchange_fragments";
inline constexpr char kGaugeExchangeDop[] = "exchange_dop";
inline constexpr char kGaugePhasesRun[] = "phases_run";
inline constexpr char kGaugeRepartitions[] = "repartitions";
inline constexpr char kGaugeEscalations[] = "escalations";
inline constexpr char kGaugeRestarts[] = "restarts";
inline constexpr char kGaugeFallbackTaken[] = "fallback_taken";

// ---- Process-wide telemetry (obs/telemetry.h MetricRegistry). Prometheus
// naming conventions: `_total` suffix on monotone counters, unit suffix on
// histograms. ----

// TaskScheduler (exec/scheduler.cc).
inline constexpr char kSchedTasksTotal[] = "reldiv_scheduler_tasks_total";
inline constexpr char kSchedStealsTotal[] = "reldiv_scheduler_steals_total";
inline constexpr char kSchedQueueDepthHighWater[] =
    "reldiv_scheduler_queue_depth_high_water";
inline constexpr char kSchedBusyMicros[] = "reldiv_scheduler_busy_us";
inline constexpr char kSchedIdleMicros[] = "reldiv_scheduler_idle_us";

// MemoryPool (storage/memory_manager.cc).
inline constexpr char kMemGrantDenialsTotal[] =
    "reldiv_mem_grant_denials_total";
inline constexpr char kMemHighWaterBytes[] = "reldiv_mem_high_water_bytes";
inline constexpr char kMemGrantLatencyMicros[] = "reldiv_mem_grant_latency_us";
inline constexpr char kMemGrantWaitsTotal[] = "reldiv_mem_grant_waits_total";
inline constexpr char kMemGrantTimeoutsTotal[] =
    "reldiv_mem_grant_timeouts_total";

// SimDisk / BufferManager (storage/disk.cc, storage/buffer_manager.cc).
inline constexpr char kDiskTransfersTotal[] = "reldiv_disk_transfers_total";
inline constexpr char kDiskSeeksTotal[] = "reldiv_disk_seeks_total";
inline constexpr char kDiskTransferSectors[] = "reldiv_disk_transfer_sectors";
inline constexpr char kBufferHitsTotal[] = "reldiv_buffer_hits_total";
inline constexpr char kBufferMissesTotal[] = "reldiv_buffer_misses_total";
inline constexpr char kBufferEvictionsTotal[] = "reldiv_buffer_evictions_total";

// Interconnect (parallel/network.cc); labelled per sending node.
inline constexpr char kNetMessagesTotal[] = "reldiv_net_messages_total";
inline constexpr char kNetBytesTotal[] = "reldiv_net_bytes_total";
inline constexpr char kNetRetriesTotal[] = "reldiv_net_retries_total";

// Query layer (exec/operator.cc, planner/explain.cc); labelled per
// algorithm where noted.
inline constexpr char kQueryWallMicros[] = "reldiv_query_wall_us";
inline constexpr char kQueryFailuresTotal[] = "reldiv_query_failures_total";

// Observability internals.
inline constexpr char kTraceSpansDropped[] = "reldiv_trace_spans_dropped";
inline constexpr char kFailpointFiresTotal[] = "reldiv_failpoint_fires_total";
inline constexpr char kFallbacksTotal[] = "reldiv_fallbacks_total";
inline constexpr char kRepartitionsTotal[] = "reldiv_repartitions_total";

// Adaptive re-planning (planner/adaptive.cc). kReplansTotal is labelled by
// trigger ("divisor-cardinality", "quotient-growth", "memory-pressure",
// "dividend-cardinality"); the checkpoint counter counts divergence probes
// whether or not they fire.
inline constexpr char kReplansTotal[] = "reldiv_replans_total";
inline constexpr char kReplanCheckpointsTotal[] =
    "reldiv_replan_checkpoints_total";
inline constexpr char kReplanStatsCacheHitsTotal[] =
    "reldiv_replan_stats_cache_hits_total";
inline constexpr char kReplanStatsCacheEntries[] =
    "reldiv_replan_stats_cache_entries";
inline constexpr char kStatsCacheEvictions[] = "reldiv_stats_cache_evictions";

// DivisionService (service/service.cc). Queue/latency series are labelled
// per tenant; the rest are process-wide.
inline constexpr char kServiceQueriesTotal[] = "reldiv_service_queries_total";
inline constexpr char kServiceAdmissionRejectsTotal[] =
    "reldiv_service_admission_rejects_total";
inline constexpr char kServiceCancelledTotal[] =
    "reldiv_service_cancelled_total";
inline constexpr char kServiceGrantTimeoutsTotal[] =
    "reldiv_service_grant_timeouts_total";
inline constexpr char kServiceActiveQueries[] =
    "reldiv_service_active_queries";
inline constexpr char kServiceQueueDepthHighWater[] =
    "reldiv_service_queue_depth_high_water";
inline constexpr char kServiceQueueWaitMicros[] =
    "reldiv_service_queue_wait_us";
inline constexpr char kServiceQueryLatencyMicros[] =
    "reldiv_service_query_latency_us";

// Quotient cache (service/quotient_cache.cc).
inline constexpr char kQcacheHitsTotal[] = "reldiv_qcache_hits_total";
inline constexpr char kQcacheMissesTotal[] = "reldiv_qcache_misses_total";
inline constexpr char kQcacheInvalidationsTotal[] =
    "reldiv_qcache_invalidations_total";
inline constexpr char kQcacheIncrementalUpdatesTotal[] =
    "reldiv_qcache_incremental_updates_total";
inline constexpr char kQcacheEvictionsTotal[] = "reldiv_qcache_evictions_total";
inline constexpr char kQcacheEntries[] = "reldiv_qcache_entries";

}  // namespace metric_names
}  // namespace reldiv

#endif  // RELDIV_COMMON_METRIC_NAMES_H_
