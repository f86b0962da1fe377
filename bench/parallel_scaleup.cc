// Experiment E4 (§6): hash-division on a simulated shared-nothing machine.
// Sweeps the number of nodes for both partitioning strategies and reports
// the slowest node's local division time (the parallel section's critical
// path), interconnect traffic, and the effect of Babb bit-vector filtering
// on the number of dividend tuples shipped. §6 is qualitative in the paper;
// this bench quantifies its claims on this implementation. Each row also
// reports the wall time of the whole Execute call and its ratio to the same
// configuration at one node. A wall-clock part then runs 1 and 4 nodes
// (divisor partitioning, filter on) interleaved and fails when the 4-node
// median wall exceeds 0.67x the 1-node one (full mode, at least 4 hardware
// threads).
//
// The second section applies the same §6 quotient-partitioning idea INSIDE
// one node: the dividend is hash-fragmented on the quotient attributes and
// the fragments are divided concurrently on the morsel scheduler's worker
// lanes against one shared read-only divisor table. Speedup is reported two
// ways — wall clock (bounded by the host's core count) and the critical
// path under the Table 1 unit times (the busiest lane's priced work, which
// is machine-independent). Counter totals are asserted bit-identical across
// worker counts: lanes may only change WHO does the work, never the work.
// The operator-path part runs the whole plan, fragmented at dop 1/4/8 and
// serial, and fails when the fragmented dop-4 wall exceeds 1.5x the serial
// plan's (full mode, at least 4 hardware threads).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>
#include <thread>

#include "bench/bench_util.h"
#include "division/hash_division.h"
#include "exec/exchange.h"
#include "exec/mem_source.h"
#include "exec/scheduler.h"
#include "parallel/parallel_hash_division.h"
#include "parallel/partitioner.h"

namespace reldiv {
namespace {

/// Interleaved rounds of the §6 engine's 1-node/4-node wall comparison.
constexpr int kEngineRounds = 5;
/// The 4-node engine may take at most this fraction of the 1-node engine's
/// median wall time (full mode, >= 4 hardware threads).
constexpr double kMaxEngineVs1Node = 0.67;
/// Interleaved rounds of the operator-path comparison.
constexpr int kOperatorRounds = 5;
/// The fragmented plan at dop 4 may take at most this multiple of the
/// serial plan's median wall time (full mode, >= 4 hardware threads).
constexpr double kMaxVsSerialAtDop4 = 1.5;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One engine run over `workload`, checked against the expected quotient
/// size; `*wall_ms` is the wall time of the whole Execute call.
Result<ParallelDivisionResult> RunEngine(const GeneratedWorkload& workload,
                                         const ParallelDivisionOptions& options,
                                         double* wall_ms) {
  ParallelHashDivisionEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  RELDIV_ASSIGN_OR_RETURN(
      ParallelDivisionResult result,
      engine.Execute(workload.dividend_schema, workload.divisor_schema,
                     workload.dividend, workload.divisor, {1}));
  *wall_ms = MsSince(start);
  if (result.quotient.size() != workload.expected_quotient.size()) {
    return Status::Internal("parallel division produced a wrong-sized "
                            "quotient");
  }
  return result;
}

Status Run(bench::BenchReporter* report) {
  std::printf("=== Experiment E4: multi-processor hash-division (§6) "
              "===\n\n");
  // Smoke mode: ~20x smaller dividend, same sweep structure.
  const uint64_t shrink = bench::SmokeMode() ? 20 : 1;
  WorkloadSpec spec;
  spec.divisor_cardinality = 100;
  spec.quotient_candidates = 5000 / shrink;
  spec.candidate_completeness = 0.6;
  spec.nonmatching_tuples = 200000 / shrink;  // §6: filtering pays off
  spec.seed = 66;
  GeneratedWorkload workload = GenerateWorkload(spec);
  std::printf("Workload: |S|=%llu, |R|=%zu tuples (%llu non-matching), "
              "|Q|=%zu\n\n",
              static_cast<unsigned long long>(spec.divisor_cardinality),
              workload.dividend.size(),
              static_cast<unsigned long long>(spec.nonmatching_tuples),
              workload.expected_quotient.size());

  std::printf("%-10s %5s %7s | %12s %10s %9s %9s %12s %10s %9s\n",
              "strategy", "nodes", "filter", "node cpu ms", "speedup",
              "wall ms", "vs 1 node", "net bytes", "net msgs", "filtered");
  bench::Rule(112);

  auto make_options = [](PartitionStrategy strategy, size_t nodes,
                         bool filter) {
    ParallelDivisionOptions options;
    options.num_nodes = nodes;
    options.strategy = strategy;
    options.use_bit_vector_filter = filter;
    options.bit_vector_bits = 64 * 1024;
    return options;
  };
  double single_node_ms = 0;
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    double one_node_wall[2] = {0, 0};  // by filter off/on
    for (size_t nodes : {1, 2, 4, 8}) {
      for (bool filter : {false, true}) {
        double wall = 0;
        RELDIV_ASSIGN_OR_RETURN(
            ParallelDivisionResult result,
            RunEngine(workload, make_options(strategy, nodes, filter),
                      &wall));
        if (nodes == 1) one_node_wall[filter] = wall;
        const double vs_1node = wall / one_node_wall[filter];
        const char* name =
            strategy == PartitionStrategy::kQuotient ? "quotient" : "divisor";
        if (strategy == PartitionStrategy::kQuotient && nodes == 1 &&
            !filter) {
          single_node_ms = result.max_node_cpu_ms;
        }
        std::printf("%-10s %5zu %7s | %12.1f %9.2fx %9.1f %8.2fx %12llu "
                    "%10llu %9llu\n",
                    name, nodes, filter ? "on" : "off",
                    result.max_node_cpu_ms,
                    single_node_ms > 0 ? single_node_ms /
                                             result.max_node_cpu_ms
                                       : 0.0,
                    wall, vs_1node,
                    static_cast<unsigned long long>(result.network_bytes),
                    static_cast<unsigned long long>(result.network_messages),
                    static_cast<unsigned long long>(result.tuples_filtered));
        bench::BenchRow* row = report->AddRow(
            std::string(name) + " nodes=" + std::to_string(nodes) +
            (filter ? " filter=on" : " filter=off"));
        row->AddWallMs(wall);
        row->AddValue("vs_1node", vs_1node);
        for (const NodeExecutionMetrics& node : result.node_metrics) {
          row->counters += node.cpu;
        }
        row->AddValue("max_node_cpu_ms", result.max_node_cpu_ms);
        row->AddValue("max_node_ms", result.max_node_ms);
        row->AddValue("network_bytes",
                      static_cast<double>(result.network_bytes));
        row->AddValue("network_messages",
                      static_cast<double>(result.network_messages));
        row->AddValue("tuples_filtered",
                      static_cast<double>(result.tuples_filtered));
        row->AddValue("tuples_shipped",
                      static_cast<double>(result.tuples_shipped));
        row->AddValue("speedup", single_node_ms > 0
                                     ? single_node_ms / result.max_node_cpu_ms
                                     : 0.0);
      }
    }
  }

  std::printf("\nSpeedup reference: single-node local division costs %.1f ms "
              "(operation counters x Table 1 unit times, so host thread\n"
              "scheduling cannot distort it); the slowest node's cost "
              "shrinks roughly linearly with nodes — the local operators "
              "work completely independently (§6).\n",
              single_node_ms);
  std::printf("Bit-vector filtering drops dividend tuples with no divisor "
              "record before they are shipped; with %llu foreign tuples the "
              "network byte column shrinks accordingly (§6, Babb 1979).\n",
              static_cast<unsigned long long>(spec.nonmatching_tuples));

  // Wall clock: senders, receivers and local divisions run as scheduler
  // tasks, so 4 nodes must beat 1 where there are cores to run them. The
  // two configurations alternate round by round, so a drift in host speed
  // hits both alike; each reports its median wall.
  std::printf("\nWall clock (divisor partitioning, filter on, median of %d "
              "interleaved runs):\n",
              kEngineRounds);
  const size_t kWallNodes[] = {1, 4};
  std::vector<double> walls[2];
  for (int round = 0; round < kEngineRounds; ++round) {
    for (size_t k = 0; k < 2; ++k) {
      double wall = 0;
      RELDIV_RETURN_NOT_OK(
          RunEngine(workload,
                    make_options(PartitionStrategy::kDivisor, kWallNodes[k],
                                 /*filter=*/true),
                    &wall)
              .status());
      walls[k].push_back(wall);
    }
  }
  const double one_node_ms = bench::PercentileNs(walls[0], 50);
  double vs_1node_at_4 = 0;
  for (size_t k = 0; k < 2; ++k) {
    const double wall = bench::PercentileNs(walls[k], 50);
    const double vs_1node = wall / one_node_ms;
    if (kWallNodes[k] == 4) vs_1node_at_4 = vs_1node;
    std::printf("  nodes=%zu: wall %.1f ms (%.2fx 1 node)\n", kWallNodes[k],
                wall, vs_1node);
    bench::BenchRow* row = report->AddRow(
        "wall divisor nodes=" + std::to_string(kWallNodes[k]) + " filter=on");
    for (double ms : walls[k]) row->AddWallMs(ms);
    row->AddValue("vs_1node", vs_1node);
  }
  const unsigned hw_threads = std::thread::hardware_concurrency();
  if (bench::SmokeMode() || hw_threads < 4) {
    std::printf("  vs_1node gate skipped (%s): nodes=4 reads %.2fx 1 node\n",
                bench::SmokeMode() ? "smoke mode" : "fewer than 4 hardware "
                                                    "threads",
                vs_1node_at_4);
  } else if (vs_1node_at_4 > kMaxEngineVs1Node) {
    char message[128];
    std::snprintf(message, sizeof message,
                  "4-node engine wall is %.2fx the 1-node engine's, above "
                  "the %.2fx gate",
                  vs_1node_at_4, kMaxEngineVs1Node);
    return Status::Internal(message);
  }
  return Status::OK();
}

Status RunIntraNode(bench::BenchReporter* report) {
  std::printf("\n=== Intra-node morsel scale-up: hash-division across "
              "worker lanes ===\n\n");
  // Table 4's heaviest column (|S|=250, |Q|=2500, R = Q x S); smoke mode
  // shrinks the quotient column, keeping the sweep structure.
  const uint64_t shrink = bench::SmokeMode() ? 20 : 1;
  GeneratedWorkload workload = GenerateWorkload(PaperCell(250, 2500 / shrink));
  constexpr size_t kFragments = 16;
  const std::vector<size_t> match_attrs = {1};     // divisor_id
  const std::vector<size_t> quotient_attrs = {0};  // quotient key

  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(bench::PaperDatabaseOptions()));
  ExecContext* ctx = db->ctx();

  // Divisor table built ONCE; every fragment probes it read-only — §6's
  // quotient partitioning keeps the divisor table resident across phases.
  DivisionOptions division_options;
  HashDivisionCore base(ctx, match_attrs, quotient_attrs, division_options);
  {
    MemSourceOperator divisor_source(workload.divisor_schema,
                                     workload.divisor);
    RELDIV_RETURN_NOT_OK(
        base.BuildDivisorTable(&divisor_source, workload.divisor.size()));
  }

  // Decompose the dividend once, before the sweep: fragment contents depend
  // only on the data and kFragments, never on the worker count.
  std::vector<std::vector<Tuple>> fragments_in(kFragments);
  for (const Tuple& tuple : workload.dividend) {
    fragments_in[HashPartitionOf(tuple, quotient_attrs, kFragments)]
        .push_back(tuple);
  }

  std::printf("Workload: |S|=%zu, |R|=%zu, |Q|=%zu, %zu quotient "
              "fragments\n\n",
              workload.divisor.size(), workload.dividend.size(),
              workload.expected_quotient.size(), kFragments);
  std::printf("%7s | %9s %13s %13s %12s %6s\n", "threads", "wall ms",
              "crit path ms", "model speedup", "wall speedup", "lanes");
  bench::Rule(70);

  double crit1 = 0;
  double wall1 = 0;
  CpuCounters totals1;
  size_t quotient1 = 0;
  double speedup_at_4 = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    FragmentContexts fragment_ctxs(ctx, kFragments);
    std::vector<std::vector<Tuple>> outs(kFragments);
    std::vector<size_t> lane_of(kFragments, 0);
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = TaskScheduler::Global().ParallelFor(
        threads, kFragments, [&](size_t f) -> Status {
          ExecContext* fctx = fragment_ctxs.fragment(f);
          HashDivisionCore core(fctx, match_attrs, quotient_attrs,
                                division_options);
          core.BorrowDivisorTable(base);
          RELDIV_RETURN_NOT_OK(core.ResetQuotientTable(
              fragments_in[f].empty() ? 1 : fragments_in[f].size()));
          for (const Tuple& tuple : fragments_in[f]) {
            RELDIV_RETURN_NOT_OK(core.Consume(tuple, nullptr));
          }
          RELDIV_RETURN_NOT_OK(core.EmitComplete(&outs[f]));
          lane_of[f] = TaskScheduler::CurrentLane();
          return Status::OK();
        });
    const double wall = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    // Critical path under the Table 1 unit times for the static round-robin
    // fragment-to-lane assignment — the intra-node analogue of E4's
    // max_node_cpu_ms, deterministic and machine-independent. The
    // work-stealing runtime can only do better than this assignment (on a
    // host with fewer cores than lanes the OBSERVED assignment collapses
    // toward lane 0, which says something about the host, not the plan).
    double lane_ms[TaskScheduler::kMaxLanes] = {0};
    CpuCounters totals;
    size_t quotient_size = 0;
    for (size_t f = 0; f < kFragments; ++f) {
      lane_ms[f % threads] += CpuCostMs(fragment_ctxs.counters(f));
      totals += fragment_ctxs.counters(f);
      quotient_size += outs[f].size();
    }
    fragment_ctxs.MergeInto(ctx);
    RELDIV_RETURN_NOT_OK(status);
    double crit = 0;
    for (double ms : lane_ms) crit = std::max(crit, ms);
    size_t lanes_used = 1;
    {
      std::vector<bool> seen(TaskScheduler::kMaxLanes, false);
      for (size_t f = 0; f < kFragments; ++f) seen[lane_of[f]] = true;
      lanes_used = static_cast<size_t>(
          std::count(seen.begin(), seen.end(), true));
    }

    if (quotient_size != workload.expected_quotient.size()) {
      return Status::Internal("intra-node division produced a wrong-sized "
                              "quotient");
    }
    if (threads == 1) {
      crit1 = crit;
      wall1 = wall;
      totals1 = totals;
      quotient1 = quotient_size;
    }
    if (totals.comparisons != totals1.comparisons ||
        totals.hashes != totals1.hashes || totals.moves != totals1.moves ||
        totals.bit_ops != totals1.bit_ops || quotient_size != quotient1) {
      return Status::Internal(
          "lane equivalence violated: counter totals moved with the worker "
          "count");
    }
    const double model_speedup = crit > 0 ? crit1 / crit : 0;
    const double wall_speedup = wall > 0 ? wall1 / wall : 0;
    if (threads == 4) speedup_at_4 = model_speedup;
    std::printf("%7zu | %9.1f %13.1f %12.2fx %11.2fx %6zu\n", threads, wall,
                crit, model_speedup, wall_speedup, lanes_used);

    bench::BenchRow* row =
        report->AddRow("intra threads=" + std::to_string(threads));
    row->AddWallMs(wall);
    row->counters += totals;
    row->AddValue("fragments", static_cast<double>(kFragments));
    row->AddValue("crit_path_cpu_ms", crit);
    row->AddValue("speedup", model_speedup);
    row->AddValue("wall_speedup", wall_speedup);
    row->AddValue("lanes_used", static_cast<double>(lanes_used));
    row->AddValue("quotient_tuples", static_cast<double>(quotient_size));
  }
  if (speedup_at_4 < 2.5) {
    return Status::Internal("critical-path speedup at 4 threads fell below "
                            "2.5x — fragment load is badly skewed");
  }

  // End-to-end operator path: the same plan driven through
  // DivisionOptions::parallel_fragments + ExecContext::dop, against the
  // serial plan (parallel_fragments = 0) as the wall-clock baseline. The
  // repartition adds one Hash per dividend tuple over the section above,
  // but the fragmented totals must again be identical at every worker
  // count. The configurations run interleaved, round by round, so a drift
  // in host speed hits all of them alike; each reports its median wall.
  std::printf("\nOperator path (DivisionOptions::parallel_fragments=%zu vs "
              "the serial plan, median of %d interleaved runs):\n",
              kFragments, kOperatorRounds);
  // The serial plan holds every candidate's bit map in one quotient table,
  // which outgrows the paper's 256 KB pool at |Q|=2500 (the fragmented plan
  // only holds its running fragments' tables), so both plans run on a
  // database whose pool fits the serial one.
  DatabaseOptions operator_db_options = bench::PaperDatabaseOptions();
  operator_db_options.pool_bytes = 16 * kDefaultBufferPoolBytes;
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> operator_db,
                          Database::Open(operator_db_options));
  ExecContext* operator_ctx = operator_db->ctx();
  Relation dividend, divisor;
  RELDIV_RETURN_NOT_OK(LoadWorkload(operator_db.get(), workload, "intra",
                                    &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  struct OperatorRun {
    const char* label;
    size_t fragments;  ///< DivisionOptions::parallel_fragments; 0 = serial
    size_t dop;
    std::vector<double> wall_ms;
    ExperimentalCost cost;  ///< the last run's (counters are per-run fixed)
  };
  std::vector<OperatorRun> runs = {
      {"serial", 0, 1, {}, {}},
      {"dop=1", kFragments, 1, {}, {}},
      {"dop=4", kFragments, 4, {}, {}},
      {"dop=8", kFragments, 8, {}, {}},
  };
  std::optional<CpuCounters> fragmented_totals;
  for (int round = 0; round < kOperatorRounds; ++round) {
    for (OperatorRun& run : runs) {
      DivisionOptions options;
      options.parallel_fragments = run.fragments;
      operator_ctx->set_dop(run.dop);
      uint64_t quotient_size = 0;
      Result<ExperimentalCost> cost = bench::RunDivision(
          operator_db.get(), query, DivisionAlgorithm::kHashDivision, options,
          &quotient_size);
      operator_ctx->set_dop(1);
      RELDIV_RETURN_NOT_OK(cost.status());
      if (quotient_size != workload.expected_quotient.size()) {
        return Status::Internal("operator-path quotient has the wrong size");
      }
      if (run.fragments > 0) {
        const CpuCounters& got = cost.value().cpu_counters;
        if (!fragmented_totals.has_value()) fragmented_totals = got;
        if (got.comparisons != fragmented_totals->comparisons ||
            got.hashes != fragmented_totals->hashes ||
            got.moves != fragmented_totals->moves ||
            got.bit_ops != fragmented_totals->bit_ops) {
          return Status::Internal("operator-path counters moved with dop");
        }
      }
      run.wall_ms.push_back(cost.value().wall_ms);
      run.cost = cost.value();
    }
  }
  const double serial_ms = bench::PercentileNs(runs[0].wall_ms, 50);
  double vs_serial_at_4 = 0;
  for (OperatorRun& run : runs) {
    const double wall = bench::PercentileNs(run.wall_ms, 50);
    const bool fragmented = run.fragments > 0;
    const double vs_serial = serial_ms > 0 ? wall / serial_ms : 0;
    if (fragmented && run.dop == 4) vs_serial_at_4 = vs_serial;
    std::printf("  %-6s: wall %.1f ms", run.label, wall);
    if (fragmented) std::printf(" (%.2fx serial)", vs_serial);
    std::printf(", cpu %.1f ms, io %.1f ms%s\n", run.cost.cpu_ms,
                run.cost.io_ms,
                fragmented ? ", counters identical to dop=1" : "");
    bench::BenchRow* row =
        report->AddRow(std::string("operator ") + run.label);
    for (double ms : run.wall_ms) row->AddWallMs(ms);
    row->counters += run.cost.cpu_counters;
    row->io = run.cost.io_stats;
    row->AddValue("cpu_ms", run.cost.cpu_ms);
    row->AddValue("io_ms", run.cost.io_ms);
    row->AddValue("quotient_tuples",
                  static_cast<double>(workload.expected_quotient.size()));
    if (fragmented) row->AddValue("vs_serial", vs_serial);
  }
  // Regression guard: the fragmented plan must not fall far behind the
  // serial one where there are cores to run it on. Smoke workloads are too
  // small for a wall-clock verdict.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  if (bench::SmokeMode() || hw_threads < 4) {
    std::printf("  vs_serial gate skipped (%s): dop=4 reads %.2fx serial\n",
                bench::SmokeMode() ? "smoke mode" : "fewer than 4 hardware "
                                                    "threads",
                vs_serial_at_4);
  } else if (vs_serial_at_4 > kMaxVsSerialAtDop4) {
    char message[128];
    std::snprintf(message, sizeof message,
                  "operator-path dop=4 wall is %.2fx the serial plan's, "
                  "above the %.1fx gate",
                  vs_serial_at_4, kMaxVsSerialAtDop4);
    return Status::Internal(message);
  }

  std::printf(
      "\nHost has %u hardware thread(s): wall-clock speedup saturates there, "
      "so the acceptance figure is the critical-path column —\na round-robin "
      "fragment-to-lane assignment priced with the Table 1 unit times "
      "(work stealing can only beat it). Counter totals\nare asserted "
      "bit-identical across worker counts: only lane ASSIGNMENT varies with "
      "threads; decomposition never does.\n",
      hw_threads);
  return Status::OK();
}

}  // namespace
}  // namespace reldiv

int main() {
  reldiv::bench::BenchReporter report("parallel_scaleup");
  report.AddParam("smoke", reldiv::bench::SmokeMode() ? 1 : 0);
  reldiv::Status status = reldiv::Run(&report);
  if (status.ok()) status = reldiv::RunIntraNode(&report);
  if (!status.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", status.ToString().c_str());
    return 1;
  }
  return report.WriteFile() ? 0 : 1;
}
