// Batch-vs-tuple execution: throughput of the batch-native
// scan → filter → hash-division pipeline as a function of the batch size.
//
// The batch-size-1 row is the tuple lane: the plan is drained through the
// classic Volcano Next() protocol (CollectAllTupleAtATime, execution batch
// capacity 1), paying one virtual-call round trip through the whole operator
// chain per tuple — the paper's §5.1 execution model. The remaining rows
// drain the same plan through NextBatch() at increasing batch capacities.
// Batching amortizes the iteration protocol and overlaps the memory stalls
// of independent hash probes without changing any of the per-tuple work, so
// the quotient and the Table 1 operation counts must be identical in every
// row; the bench fails if they are not.
//
// The workload is scan-heavy on purpose: five sixths of the dividend fails
// the filter predicate, so most tuples pay the iteration protocol and only
// the surviving sixth pays the division probes. That is the regime the
// refactor targets — per-tuple interpretation overhead dominating cheap
// per-tuple work — and it is where tuple-at-a-time execution loses the most.
//
// A second section times the division kernels in both variants directly —
// scalar reference vs SIMD — on flat arrays, giving per-kernel
// `simd_speedup` ratios independent of the pipeline around them.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "division/hash_division.h"
#include "exec/filter.h"
#include "exec/kernels/kernels.h"
#include "exec/scan.h"

namespace reldiv {
namespace {

constexpr size_t kBatchSizes[] = {1, 64, 256, 1024, 4096};

struct Measurement {
  size_t batch_size = 0;
  bool tuple_lane = false;
  double wall_ms = 0;
  double cpu_ms = 0;
  std::vector<double> wall_samples_ms;
  CpuCounters counters;
  uint64_t quotient_tuples = 0;
  std::vector<Tuple> quotient;
};

Status Run(bench::BenchReporter* report) {
  const int kRepetitions = bench::SmokeMode() ? 2 : 5;
  // Dividend: 100k matching tuples (2000 candidates × 50 divisor tuples)
  // plus 500k foreign ones the filter removes (selectivity ~17%).
  // Smoke mode shrinks both sides ~25x.
  WorkloadSpec spec;
  spec.divisor_cardinality = 50;
  spec.quotient_candidates = bench::SmokeMode() ? 80 : 2000;
  spec.candidate_completeness = 1.0;
  spec.nonmatching_tuples = bench::SmokeMode() ? 20000 : 500000;
  spec.seed = 77;
  GeneratedWorkload workload = GenerateWorkload(spec);
  const uint64_t dividend_tuples = workload.dividend.size();

  DatabaseOptions db_options;
  db_options.pool_bytes = 0;  // unbounded pool: keep the pipeline CPU-bound
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(db_options));
  Relation dividend, divisor;
  RELDIV_RETURN_NOT_OK(
      LoadWorkload(db.get(), workload, "bt", &dividend, &divisor));
  const int64_t divisor_count =
      static_cast<int64_t>(spec.divisor_cardinality);

  auto make_plan = [&]() -> std::unique_ptr<Operator> {
    // Dividend is (quotient_id, divisor_id); valid divisor values are
    // [0, |S|), foreign ones lie above.
    auto scan = std::make_unique<ScanOperator>(db->ctx(), dividend);
    auto filter = std::make_unique<FilterOperator>(
        std::move(scan), [divisor_count](const Tuple& t) {
          return t.value(1).int64() < divisor_count;
        });
    DivisionOptions options;
    options.expected_divisor_cardinality = spec.divisor_cardinality;
    options.expected_quotient_cardinality = spec.quotient_candidates;
    options.early_output = true;  // fully pipelined in both lanes (§3.3)
    return std::make_unique<HashDivisionOperator>(
        db->ctx(), std::move(filter),
        std::make_unique<ScanOperator>(db->ctx(), divisor),
        std::vector<size_t>{1}, std::vector<size_t>{0}, options);
  };

  {
    auto plan = make_plan();
    if (!plan->IsBatchNative()) {
      return Status::Internal("pipeline is expected to be batch-native");
    }
  }

  std::printf("=== Batch-vs-tuple execution: scan -> filter(17%%) -> "
              "hash-division (early output) ===\n\n");
  std::printf("dividend %llu tuples, divisor %llu, quotient %llu; best of %d "
              "runs per size\n",
              static_cast<unsigned long long>(dividend_tuples),
              static_cast<unsigned long long>(spec.divisor_cardinality),
              static_cast<unsigned long long>(spec.quotient_candidates),
              kRepetitions);
  std::printf("batch size 1 = Volcano Next() drain (tuple-at-a-time "
              "protocol)\n\n");
  std::printf("  %10s | %10s %12s %14s %10s\n", "batch size", "wall ms",
              "cpu-model ms", "tuples/sec", "speedup");
  bench::Rule(66);

  std::vector<Measurement> measurements;
  for (size_t batch_size : kBatchSizes) {
    Measurement m;
    m.batch_size = batch_size;
    m.tuple_lane = batch_size == 1;
    m.wall_ms = 1e300;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      db->ctx()->set_batch_capacity(batch_size);
      RELDIV_RETURN_NOT_OK(db->buffer_manager()->FlushAll());
      RELDIV_RETURN_NOT_OK(db->buffer_manager()->DropAll());
      db->ctx()->ResetMoveAccumulator();
      const CpuCounters before = *db->counters();
      auto plan = make_plan();
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<Tuple> quotient;
      if (m.tuple_lane) {
        RELDIV_ASSIGN_OR_RETURN(quotient,
                                CollectAllTupleAtATime(plan.get()));
      } else {
        RELDIV_ASSIGN_OR_RETURN(quotient, CollectAll(plan.get(), batch_size));
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      CpuCounters delta = *db->counters();
      delta.comparisons -= before.comparisons;
      delta.hashes -= before.hashes;
      delta.moves -= before.moves;
      delta.bit_ops -= before.bit_ops;
      if (rep == 0) {
        m.counters = delta;
        m.quotient_tuples = quotient.size();
        std::sort(quotient.begin(), quotient.end());
        m.quotient = std::move(quotient);
        m.cpu_ms = CpuCostMs(delta);
      } else if (delta.comparisons != m.counters.comparisons ||
                 delta.hashes != m.counters.hashes ||
                 delta.moves != m.counters.moves ||
                 delta.bit_ops != m.counters.bit_ops) {
        return Status::Internal("cost counters drifted between repetitions");
      }
      m.wall_ms = std::min(m.wall_ms, wall_ms);
      m.wall_samples_ms.push_back(wall_ms);
    }
    measurements.push_back(std::move(m));
  }
  db->ctx()->set_batch_capacity(kDefaultBatchCapacity);

  // Cross-lane invariants: the tuple lane and every batch size must produce
  // the identical quotient and identical Table 1 operation counts.
  const Measurement& base = measurements.front();
  for (const Measurement& m : measurements) {
    if (m.quotient != base.quotient) {
      return Status::Internal("quotient differs across batch sizes");
    }
    if (m.counters.comparisons != base.counters.comparisons ||
        m.counters.hashes != base.counters.hashes ||
        m.counters.moves != base.counters.moves ||
        m.counters.bit_ops != base.counters.bit_ops) {
      return Status::Internal("cost counters differ across batch sizes");
    }
  }

  for (const Measurement& m : measurements) {
    const double tuples_per_sec =
        static_cast<double>(dividend_tuples) / (m.wall_ms / 1000.0);
    const double speedup = base.wall_ms / m.wall_ms;
    std::printf("  %10zu | %10.2f %12.2f %14.0f %9.2fx\n", m.batch_size,
                m.wall_ms, m.cpu_ms, tuples_per_sec, speedup);
  }
  std::printf("\nquotient and Table 1 counters identical across the tuple "
              "lane and all batch sizes\n(Comp %llu, Hash %llu, Move %llu, "
              "Bit %llu)\n\n",
              static_cast<unsigned long long>(base.counters.comparisons),
              static_cast<unsigned long long>(base.counters.hashes),
              static_cast<unsigned long long>(base.counters.moves),
              static_cast<unsigned long long>(base.counters.bit_ops));

  // Machine-readable mirror of the table above, one JSON record per size.
  for (const Measurement& m : measurements) {
    const double tuples_per_sec =
        static_cast<double>(dividend_tuples) / (m.wall_ms / 1000.0);
    std::printf(
        "{\"bench\":\"batch_vs_tuple\",\"batch_size\":%zu,"
        "\"lane\":\"%s\",\"wall_ms\":%.3f,\"cpu_ms\":%.3f,"
        "\"comparisons\":%llu,\"hashes\":%llu,\"moves\":%llu,"
        "\"bit_ops\":%llu,\"dividend_tuples\":%llu,"
        "\"quotient_tuples\":%llu,\"tuples_per_sec\":%.0f,"
        "\"speedup_vs_batch_1\":%.3f}\n",
        m.batch_size, m.tuple_lane ? "tuple" : "batch", m.wall_ms, m.cpu_ms,
        static_cast<unsigned long long>(m.counters.comparisons),
        static_cast<unsigned long long>(m.counters.hashes),
        static_cast<unsigned long long>(m.counters.moves),
        static_cast<unsigned long long>(m.counters.bit_ops),
        static_cast<unsigned long long>(dividend_tuples),
        static_cast<unsigned long long>(m.quotient_tuples), tuples_per_sec,
        base.wall_ms / m.wall_ms);
    bench::BenchRow* row = report->AddRow(
        (m.tuple_lane ? std::string("tuple-lane batch=")
                      : std::string("batch-lane batch=")) +
        std::to_string(m.batch_size));
    row->wall_ns.reserve(m.wall_samples_ms.size());
    for (double sample : m.wall_samples_ms) row->AddWallMs(sample);
    row->counters = m.counters;
    row->AddValue("best_wall_ms", m.wall_ms);
    row->AddValue("cpu_ms", m.cpu_ms);
    row->AddValue("tuples_per_sec", tuples_per_sec);
    row->AddValue("speedup_vs_batch_1", base.wall_ms / m.wall_ms);
    row->AddValue("quotient_tuples", static_cast<double>(m.quotient_tuples));
  }
  return Status::OK();
}

// --- SIMD vs scalar kernel micro-section -----------------------------------

/// Best-of-reps milliseconds for `iters` runs of `fn`.
template <typename Fn>
double TimeMs(int reps, int iters, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

void RunKernelMicro(bench::BenchReporter* report) {
  const size_t n = bench::SmokeMode() ? 1 << 12 : 1 << 20;
  const int reps = bench::SmokeMode() ? 2 : 5;
  const int iters = bench::SmokeMode() ? 2 : 8;
  Rng rng(3);
  std::vector<int64_t> keys(n);
  for (int64_t& k : keys) k = static_cast<int64_t>(rng.Next());
  std::vector<uint64_t> hashes(n);
  std::vector<uint64_t> words(n / 64, ~uint64_t{0});
  std::vector<uint8_t> mask(n);
  volatile uint64_t sink = 0;  // defeats dead-code elimination

  struct Kernel {
    const char* name;
    double scalar_ms;
    double simd_ms;
  };
  std::vector<Kernel> kernels_run;

  kernels_run.push_back(
      {"hash_int64",
       TimeMs(reps, iters,
              [&] {
                kernels::HashInt64KeysScalar(keys.data(), n, hashes.data());
                sink = sink + hashes[0];
              }),
       !kernels::SimdAvailable()
           ? 0
           : TimeMs(reps, iters, [&] {
               kernels::HashInt64KeysSimd(keys.data(), n, hashes.data());
               sink = sink + hashes[0];
             })});
  kernels_run.push_back(
      {"all_words_set",
       TimeMs(reps, iters,
              [&] {
                sink = sink + (kernels::AllWordsSetScalar(words.data(), n)
                                   ? 1
                                   : 0);
              }),
       !kernels::SimdAvailable()
           ? 0
           : TimeMs(reps, iters, [&] {
               sink = sink + (kernels::AllWordsSetSimd(words.data(), n)
                                  ? 1
                                  : 0);
             })});
  kernels_run.push_back(
      {"popcount_words",
       TimeMs(reps, iters,
              [&] {
                sink = sink + kernels::PopcountWordsScalar(words.data(),
                                                     words.size());
              }),
       !kernels::SimdAvailable()
           ? 0
           : TimeMs(reps, iters, [&] {
               sink = sink +
                   kernels::PopcountWordsSimd(words.data(), words.size());
             })});
  kernels_run.push_back(
      {"compare_int64",
       TimeMs(reps, iters,
              [&] {
                sink = sink + kernels::CompareInt64Scalar(
                    keys.data(), n, kernels::CmpOp::kLt, 0, mask.data());
              }),
       !kernels::SimdAvailable()
           ? 0
           : TimeMs(reps, iters, [&] {
               sink = sink + kernels::CompareInt64Simd(
                   keys.data(), n, kernels::CmpOp::kLt, 0, mask.data());
             })});
  (void)sink;

  std::printf("=== Kernel micro: scalar vs SIMD, %zu elements ===\n\n", n);
  std::printf("  %16s | %11s %11s %10s\n", "kernel", "scalar ms", "simd ms",
              "speedup");
  bench::Rule(56);
  for (const Kernel& k : kernels_run) {
    bench::BenchRow* row =
        report->AddRow(std::string("kernel ") + k.name);
    row->AddWallMs(k.scalar_ms);
    row->AddValue("scalar_ms", k.scalar_ms);
    row->AddValue("elements", static_cast<double>(n));
    if (k.simd_ms > 0) {
      row->AddValue("simd_ms", k.simd_ms);
      row->AddValue("simd_speedup", k.scalar_ms / k.simd_ms);
      std::printf("  %16s | %11.3f %11.3f %9.2fx\n", k.name, k.scalar_ms,
                  k.simd_ms, k.scalar_ms / k.simd_ms);
    } else {
      std::printf("  %16s | %11.3f %11s %10s\n", k.name, k.scalar_ms, "n/a",
                  "n/a");
    }
  }
  std::printf("\n");
}

}  // namespace
}  // namespace reldiv

int main() {
  reldiv::bench::BenchReporter report("batch_vs_tuple");
  report.AddParam("smoke", reldiv::bench::SmokeMode() ? 1 : 0);
  report.AddParam("simd_available",
                  reldiv::kernels::SimdAvailable() ? 1 : 0);
  const reldiv::Status status = reldiv::Run(&report);
  if (!status.ok()) {
    std::fprintf(stderr, "batch_vs_tuple failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  reldiv::RunKernelMicro(&report);
  return report.WriteFile() ? 0 : 1;
}
