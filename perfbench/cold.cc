#include "perfbench/cold.h"

#include <algorithm>
#include <memory>

#include "exec/batch.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "parallel/parallel_hash_division.h"

namespace perfbench {

using reldiv::DivisionAlgorithm;
using reldiv::Status;

const std::vector<ColdKind>& ColdKinds() {
  static const std::vector<ColdKind> kinds = {
      {"naive", DivisionAlgorithm::kNaive, 0, 1, false},
      {"sort_agg_join", DivisionAlgorithm::kSortAggregateWithJoin, 0, 1,
       false},
      {"hash_agg_join", DivisionAlgorithm::kHashAggregateWithJoin, 0, 1,
       false},
      {"hash_div", DivisionAlgorithm::kHashDivision, 0, 1, false},
      {"hash_div_dop4", DivisionAlgorithm::kHashDivision, 16, 4, false},
      {"engine_4node", DivisionAlgorithm::kHashDivision, 0, 1, true},
  };
  return kinds;
}

reldiv::Status TimedInserts(reldiv::Database* db, const std::string& table,
                            const std::vector<reldiv::Tuple>& rows,
                            std::vector<double>* insert_us) {
  for (size_t at = 0; at < rows.size(); at += kInsertGroup) {
    const size_t end = std::min(rows.size(), at + kInsertGroup);
    const Clock::time_point t0 = Clock::now();
    for (size_t k = at; k < end; ++k) {
      RELDIV_RETURN_NOT_OK(db->Insert(table, rows[k]));
    }
    if (insert_us != nullptr) {
      insert_us->push_back(UsBetween(t0, Clock::now()) /
                           static_cast<double>(end - at));
    }
  }
  return Status::OK();
}

reldiv::Result<std::unique_ptr<reldiv::Database>> LoadColdDatabase(
    const reldiv::DatabaseOptions& options,
    const reldiv::Schema& dividend_schema,
    const std::vector<reldiv::Tuple>& dividend,
    const reldiv::Schema& divisor_schema,
    const std::vector<reldiv::Tuple>& divisor,
    std::vector<double>* insert_us) {
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<reldiv::Database> db,
                          reldiv::Database::Open(options));
  RELDIV_RETURN_NOT_OK(db->CreateTable("dividend", dividend_schema).status());
  RELDIV_RETURN_NOT_OK(db->CreateTable("divisor", divisor_schema).status());
  RELDIV_RETURN_NOT_OK(TimedInserts(db.get(), "dividend", dividend,
                                    insert_us));
  RELDIV_RETURN_NOT_OK(TimedInserts(db.get(), "divisor", divisor, nullptr));
  return db;
}

reldiv::Result<reldiv::DivisionQuery> ColdDivisionQuery(reldiv::Database* db) {
  reldiv::DivisionQuery query;
  RELDIV_ASSIGN_OR_RETURN(query.dividend, db->GetTable("dividend"));
  RELDIV_ASSIGN_OR_RETURN(query.divisor, db->GetTable("divisor"));
  for (const reldiv::Field& field : query.divisor.schema.fields()) {
    query.match_attrs.push_back(field.name);
  }
  return query;
}

ColdRunner::ColdRunner(Tracer* tracer) : tracer_(tracer) {
  for (const ColdKind& kind : ColdKinds()) {
    kinds_.emplace_back(kind.name, KindStats{});
  }
}

Status ColdRunner::DropPool(reldiv::Database* db, uint64_t req,
                            uint64_t parent) {
  Span span(tracer_, "storage.drop_pool", Layer::kStorage, req, parent);
  RELDIV_RETURN_NOT_OK(db->buffer_manager()->FlushAll());
  return db->buffer_manager()->DropAll();
}

Status ColdRunner::Run(reldiv::Database* db, const ColdKind& kind,
                       const ColdQuery& query) {
  KindStats* stats = nullptr;
  for (auto& [name, kind_stats] : kinds_) {
    if (name == kind.name) stats = &kind_stats;
  }
  const uint64_t req = tracer_->enabled() ? tracer_->NewId() : 0;
  Span root(tracer_, "cold_query", Layer::kBench, req, 0);
  RELDIV_RETURN_NOT_OK(DropPool(db, req, root.id()));
  const Clock::time_point t0 = Clock::now();
  RELDIV_RETURN_NOT_OK(kind.engine ? RunEngine(query, req, root.id(), stats)
                                   : RunPlan(db, kind, query, req, root.id(),
                                             stats));
  const double ms = MsSince(t0);
  stats->ms.push_back(ms);
  stats->runs++;
  all_ms_.push_back(ms);
  busy_ms_ += ms;
  return Status::OK();
}

Status ColdRunner::RunPlan(reldiv::Database* db, const ColdKind& kind,
                           const ColdQuery& query, uint64_t req,
                           uint64_t parent, KindStats* stats) {
  reldiv::ExecContext* ctx = db->ctx();
  const reldiv::DiskStats io_before = db->disk()->stats();
  const reldiv::BufferStats buf_before = db->buffer_manager()->stats();
  const reldiv::CpuCounters cpu_before = *db->counters();
  ctx->ResetMoveAccumulator();
  ctx->set_dop(kind.dop);
  reldiv::DivisionOptions options;
  options.parallel_fragments = kind.fragments;

  std::vector<reldiv::Tuple> quotient;
  Status status = [&]() -> Status {
    Clock::time_point t = Clock::now();
    std::unique_ptr<reldiv::Operator> plan;
    {
      Span span(tracer_, "planner.make_plan", Layer::kPlanner, req, parent);
      RELDIV_ASSIGN_OR_RETURN(
          plan, reldiv::MakeDivisionPlan(ctx, query.query, kind.algorithm,
                                         options));
    }
    stats->plan_us.push_back(UsBetween(t, Clock::now()));
    t = Clock::now();
    {
      Span span(tracer_, "division.open", Layer::kDivision, req, parent);
      RELDIV_RETURN_NOT_OK(plan->Open());
    }
    stats->open_ms.push_back(MsSince(t));
    t = Clock::now();
    {
      Span span(tracer_, "exec.drain", Layer::kExec, req, parent);
      reldiv::TupleBatch batch;
      bool has_more = true;
      while (has_more) {
        RELDIV_RETURN_NOT_OK(plan->NextBatch(&batch, &has_more));
        for (reldiv::Tuple& tuple : batch) quotient.push_back(tuple);
      }
    }
    stats->drain_ms.push_back(MsSince(t));
    t = Clock::now();
    {
      Span span(tracer_, "exec.close", Layer::kExec, req, parent);
      RELDIV_RETURN_NOT_OK(plan->Close());
    }
    stats->close_ms.push_back(MsSince(t));
    return Status::OK();
  }();
  ctx->set_dop(1);
  RELDIV_RETURN_NOT_OK(status);

  stats->io += db->disk()->stats() - io_before;
  const reldiv::BufferStats buf_after = db->buffer_manager()->stats();
  stats->buffer.fixes += buf_after.fixes - buf_before.fixes;
  stats->buffer.hits += buf_after.hits - buf_before.hits;
  stats->cpu = *db->counters() - cpu_before;
  return CheckSortedEqual(std::move(quotient), *query.expected,
                          query.label + " " + kind.name);
}

Status ColdRunner::RunEngine(const ColdQuery& query, uint64_t req,
                             uint64_t parent, KindStats* stats) {
  reldiv::ParallelDivisionOptions options;
  options.num_nodes = 4;
  options.strategy = reldiv::PartitionStrategy::kDivisor;
  options.use_bit_vector_filter = true;
  reldiv::ParallelHashDivisionEngine engine(options);
  reldiv::ParallelDivisionResult result;
  {
    Span span(tracer_, "parallel.execute", Layer::kParallel, req, parent);
    RELDIV_ASSIGN_OR_RETURN(
        result, engine.Execute(query.query.dividend.schema,
                               query.query.divisor.schema,
                               *query.dividend_rows, *query.divisor_rows,
                               {1}));
  }
  stats->max_node_ms.push_back(result.max_node_ms);
  stats->net_kb.push_back(static_cast<double>(result.network_bytes) / 1024.0);
  stats->filtered.push_back(static_cast<double>(result.tuples_filtered));
  return CheckSortedEqual(std::move(result.quotient), *query.expected,
                          query.label + " engine_4node");
}

Status ColdRunner::Scan(reldiv::Database* db,
                        const reldiv::Relation& relation) {
  const uint64_t req = tracer_->enabled() ? tracer_->NewId() : 0;
  Span root(tracer_, "cold_scan", Layer::kBench, req, 0);
  RELDIV_RETURN_NOT_OK(DropPool(db, req, root.id()));
  const Clock::time_point t0 = Clock::now();
  {
    Span span(tracer_, "storage.scan", Layer::kStorage, req, root.id());
    reldiv::ScanOperator scan(db->ctx(), relation);
    RELDIV_RETURN_NOT_OK(scan.Open());
    reldiv::TupleBatch batch;
    bool has_more = true;
    while (has_more) {
      RELDIV_RETURN_NOT_OK(scan.NextBatch(&batch, &has_more));
    }
    RELDIV_RETURN_NOT_OK(scan.Close());
  }
  scan_ms_.push_back(MsSince(t0));
  return Status::OK();
}

double ColdRunner::MeanMs(const std::string& kind) const {
  for (const auto& [name, stats] : kinds_) {
    if (name == kind) return TrimmedMean(stats.ms);
  }
  return 0;
}

void ColdRunner::AddEndToEnd(MetricSink* sink) const {
  for (const auto& [name, stats] : kinds_) {
    sink->Add(name + "_ms", TrimmedMean(stats.ms), "ms");
  }
}

void ColdRunner::AddPerLayer(MetricSink* sink) const {
  sink->Add("storage.scan_ms", Median(scan_ms_), "ms");
  for (const auto& [name, stats] : kinds_) {
    if (name == "engine_4node") continue;
    const double runs = static_cast<double>(std::max<uint64_t>(stats.runs, 1));
    sink->Add("storage.disk_reads." + name,
              static_cast<double>(stats.io.read_transfers) / runs, "count");
    sink->Add("storage.disk_writes." + name,
              static_cast<double>(stats.io.write_transfers) / runs, "count");
    sink->Add("storage.disk_seeks." + name,
              static_cast<double>(stats.io.seeks) / runs, "count");
    sink->Add("storage.disk_kb." + name,
              static_cast<double>(stats.io.sectors_transferred) / runs, "KB");
    sink->Add("storage.buf_hit_ratio." + name,
              stats.buffer.fixes == 0
                  ? 0
                  : static_cast<double>(stats.buffer.hits) /
                        static_cast<double>(stats.buffer.fixes),
              "fraction");
    sink->Add("planner.plan_us." + name, Median(stats.plan_us), "us");
    sink->Add("exec.open_ms." + name, Median(stats.open_ms), "ms");
    sink->Add("exec.drain_ms." + name, Median(stats.drain_ms), "ms");
    sink->Add("exec.close_ms." + name, Median(stats.close_ms), "ms");
    sink->Add("cpu.comparisons." + name,
              static_cast<double>(stats.cpu.comparisons), "count");
    sink->Add("cpu.hashes." + name, static_cast<double>(stats.cpu.hashes),
              "count");
    sink->Add("cpu.moves." + name, static_cast<double>(stats.cpu.moves),
              "count");
    sink->Add("cpu.bit_ops." + name, static_cast<double>(stats.cpu.bit_ops),
              "count");
  }
  const double dop4 = MeanMs("hash_div_dop4");
  sink->Add("exec.dop4_speedup", dop4 > 0 ? MeanMs("hash_div") / dop4 : 0,
            "ratio");
  for (const auto& [name, stats] : kinds_) {
    if (name != "engine_4node") continue;
    sink->Add("parallel.max_node_ms", Median(stats.max_node_ms), "ms");
    sink->Add("parallel.net_kb", Median(stats.net_kb), "KB");
    sink->Add("parallel.filtered_tuples", Median(stats.filtered), "count");
  }
}

}  // namespace perfbench
