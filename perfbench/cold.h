#ifndef RELDIV_PERFBENCH_COLD_H_
#define RELDIV_PERFBENCH_COLD_H_

// Cold single-query execution of the division kinds the benchmark compares:
// the four algorithms (aggregation ones with their semi-join), hash-division
// with intra-query fragments at dop 4, and the §6 shared-nothing engine.
// Every query starts with an empty buffer pool and its quotient is checked.

#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/tuple.h"
#include "division/division.h"
#include "exec/database.h"
#include "perfbench/harness.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"

namespace perfbench {

struct ColdKind {
  const char* name;
  reldiv::DivisionAlgorithm algorithm;
  size_t fragments;  ///< DivisionOptions::parallel_fragments
  size_t dop;        ///< ExecContext::set_dop for the query
  bool engine;       ///< ParallelHashDivisionEngine instead of a plan
};

/// The six kinds, in the order a workload cycles through them.
const std::vector<ColdKind>& ColdKinds();

/// Opens a database with `options` and loads `dividend` and `divisor` into
/// tables "dividend" and "divisor" through Database::Insert, timing the
/// dividend's inserts into `insert_us` when non-null (TimedInserts).
reldiv::Result<std::unique_ptr<reldiv::Database>> LoadColdDatabase(
    const reldiv::DatabaseOptions& options,
    const reldiv::Schema& dividend_schema,
    const std::vector<reldiv::Tuple>& dividend,
    const reldiv::Schema& divisor_schema,
    const std::vector<reldiv::Tuple>& divisor,
    std::vector<double>* insert_us);

/// dividend ÷ divisor on a database LoadColdDatabase made, matching every
/// divisor column.
reldiv::Result<reldiv::DivisionQuery> ColdDivisionQuery(reldiv::Database* db);

/// Inserts `rows` into `table` one Database::Insert at a time and appends
/// the mean insert time of every run of kInsertGroup inserts to
/// `insert_us` (timing single sub-microsecond inserts would mostly measure
/// the clock).
inline constexpr size_t kInsertGroup = 256;
reldiv::Status TimedInserts(reldiv::Database* db, const std::string& table,
                            const std::vector<reldiv::Tuple>& rows,
                            std::vector<double>* insert_us);

/// One query's inputs: the stored tables for plan-based kinds, the same
/// rows as vectors for the engine, and the sorted expected quotient.
struct ColdQuery {
  reldiv::DivisionQuery query;
  const std::vector<reldiv::Tuple>* dividend_rows;
  const std::vector<reldiv::Tuple>* divisor_rows;
  const std::vector<reldiv::Tuple>* expected;
  std::string label;
};

/// Runs cold queries and keeps per-kind samples. The simulated disk never
/// reclaims the temporary files a query writes, so callers load a fresh
/// database every few queries (see WORKLOADS.md) and pass it to each call.
class ColdRunner {
 public:
  explicit ColdRunner(Tracer* tracer);

  /// Runs `kind` once on `query` over `db`, checks the quotient, and
  /// records its latency and layer breakdown. A wrong answer is an Internal
  /// status.
  reldiv::Status Run(reldiv::Database* db, const ColdKind& kind,
                     const ColdQuery& query);

  /// Cold full scan of `relation` through the scan operator (traced runs).
  reldiv::Status Scan(reldiv::Database* db, const reldiv::Relation& relation);

  /// Latency samples (ms) of every query run, all kinds together.
  const std::vector<double>& all_ms() const { return all_ms_; }
  double busy_ms() const { return busy_ms_; }
  uint64_t queries() const { return all_ms_.size(); }
  /// Trimmed mean latency of `kind` (TrimmedMean): the host's speed moves
  /// in streaks of seconds, which makes a kind's samples bimodal, and the
  /// median of a bimodal sample jumps between the modes as their shares
  /// change from run to run.
  double MeanMs(const std::string& kind) const;

  /// Adds `<kind>_ms`, MeanMs of each of the six kinds (untraced run).
  void AddEndToEnd(MetricSink* sink) const;
  /// Adds the storage/planner/exec/cpu/parallel per-layer metrics.
  void AddPerLayer(MetricSink* sink) const;

 private:
  struct KindStats {
    std::vector<double> ms;
    std::vector<double> plan_us, open_ms, drain_ms, close_ms;
    reldiv::DiskStats io;         ///< summed over the kind's queries
    reldiv::BufferStats buffer;   ///< summed hits/fixes
    reldiv::CpuCounters cpu;      ///< last query's exact deltas
    uint64_t runs = 0;
    std::vector<double> max_node_ms, net_kb, filtered;
  };

  reldiv::Status RunPlan(reldiv::Database* db, const ColdKind& kind,
                         const ColdQuery& query, uint64_t req, uint64_t parent,
                         KindStats* stats);
  reldiv::Status RunEngine(const ColdQuery& query, uint64_t req,
                           uint64_t parent, KindStats* stats);
  reldiv::Status DropPool(reldiv::Database* db, uint64_t req, uint64_t parent);

  Tracer* tracer_;
  std::vector<std::pair<std::string, KindStats>> kinds_;
  std::vector<double> all_ms_;
  std::vector<double> scan_ms_;
  double busy_ms_ = 0;
};

}  // namespace perfbench

#endif  // RELDIV_PERFBENCH_COLD_H_
