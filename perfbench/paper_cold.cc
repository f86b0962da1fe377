// Workload paper_cold: the paper's §5.1 system (256 KB buffer/memory pool,
// 100 KB sort space, simulated disk) on Table 4's largest cell made general
// as §4.6 describes. One client runs one cold query at a time, cycling the
// six division kinds. See WORKLOADS.md.

#include <cmath>
#include <memory>

#include "bench/bench_util.h"
#include "exec/database.h"
#include "perfbench/cold.h"
#include "perfbench/workloads.h"
#include "workload/generator.h"

namespace perfbench {

using reldiv::Status;

namespace {

constexpr int kSetupRepeats = 3;
/// The simulated disk keeps every temporary file a query writes, so the
/// timed loop sets up a fresh database after this many cycles of the six
/// kinds; the set-ups are not part of any latency. setup_s is the median
/// over every set-up of the run, so it samples the whole run rather than
/// its first second.
constexpr size_t kCyclesPerLoad = 2;

reldiv::GeneratedWorkload Generate(const RunConfig& config) {
  reldiv::WorkloadSpec spec;
  spec.divisor_cardinality = config.tiny ? 40 : 400;
  spec.quotient_candidates = config.tiny ? 40 : 400;
  spec.candidate_completeness = 0.8;
  spec.seed = config.seed;
  // Foreign tuples make up 10% of the dividend: size them from the
  // matching rows the same seed produces without them.
  const uint64_t matching = reldiv::GenerateWorkload(spec).dividend.size();
  spec.nonmatching_tuples = static_cast<uint64_t>(
      std::llround(static_cast<double>(matching) / 9.0));
  return reldiv::GenerateWorkload(spec);
}

}  // namespace

RunResult RunPaperCold(const RunConfig& config) {
  RunResult out;
  out.status = [&]() -> Status {
    const reldiv::GeneratedWorkload workload = Generate(config);
    const std::vector<ColdKind>& kinds = ColdKinds();
    const auto cold = [&](const reldiv::DivisionQuery& query) {
      return ColdQuery{query, &workload.dividend, &workload.divisor,
                       &workload.expected_quotient, "paper_cold"};
    };

    // Set-up: load plus one checked warm-up query. The inserts of every
    // load are timed.
    Tracer untraced(false);
    std::vector<double> setup_s;
    std::vector<double> insert_us;
    std::unique_ptr<reldiv::Database> db;
    reldiv::DivisionQuery query;
    const auto setup = [&]() -> Status {
      db.reset();
      const Clock::time_point t0 = Clock::now();
      RELDIV_ASSIGN_OR_RETURN(
          db, LoadColdDatabase(reldiv::bench::PaperDatabaseOptions(),
                               workload.dividend_schema, workload.dividend,
                               workload.divisor_schema, workload.divisor,
                               &insert_us));
      RELDIV_ASSIGN_OR_RETURN(query, ColdDivisionQuery(db.get()));
      ColdRunner warm(&untraced);
      RELDIV_RETURN_NOT_OK(warm.Run(db.get(), kinds[3], cold(query)));
      setup_s.push_back(MsSince(t0) / 1e3);
      return Status::OK();
    };
    for (int i = 0; i < kSetupRepeats; ++i) RELDIV_RETURN_NOT_OK(setup());

    // Cycles the kinds for `seconds` (whole cycles), setting up afresh as
    // above.
    const auto cycle = [&](ColdRunner* runner, double seconds,
                           bool scans) -> Status {
      const Clock::time_point t0 = Clock::now();
      for (size_t r = 0; r == 0 || MsSince(t0) < seconds * 1e3 ||
                         r % kinds.size() != 0;
           ++r) {
        if (r % (kinds.size() * kCyclesPerLoad) == 0) {
          RELDIV_RETURN_NOT_OK(setup());
        }
        if (scans) {
          RELDIV_RETURN_NOT_OK(runner->Scan(db.get(), query.dividend));
        }
        out.attempted++;
        const Status status =
            runner->Run(db.get(), kinds[r % kinds.size()], cold(query));
        // A failed query counts against ok_ratio and the run goes on; a
        // wrong answer stops it.
        if (status.IsInternal()) return status;
        if (!status.ok()) out.failed++;
      }
      return Status::OK();
    };

    MetricSink& m = out.metrics;
    if (!config.trace) {
      ColdRunner runner(&untraced);
      RELDIV_RETURN_NOT_OK(cycle(&runner, config.seconds, false));
      m.Add("setup_s", Median(setup_s), "s");
      runner.AddEndToEnd(&m);
      // A request is one pass over the six kinds, the unit of the §5.1
      // experiment; per-query percentiles would fall between the kinds'
      // latency clusters.
      std::vector<double> pass_ms;
      const std::vector<double>& all = runner.all_ms();
      for (size_t i = 0; i + kinds.size() <= all.size(); i += kinds.size()) {
        double sum = 0;
        for (size_t k = 0; k < kinds.size(); ++k) sum += all[i + k];
        pass_ms.push_back(sum);
      }
      m.Add("p50_us", Median(pass_ms) * 1e3, "us");
      m.Add("p99_us", Percentile(pass_ms, 99) * 1e3, "us");
      m.Add("capacity_qps",
            static_cast<double>(runner.queries()) / (runner.busy_ms() / 1e3),
            "1/s");
      m.Add("write_mean_us", TrimmedMean(insert_us), "us");
      m.Add("ok_ratio", 1.0 - static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted),
            "fraction");
      m.Add("peak_rss_mb", PeakRssMb(), "MB");
      return Status::OK();
    }

    // Traced run: a quarter untraced for the overhead figure, the rest
    // traced with a cold scan of the dividend before every query.
    ColdRunner plain(&untraced);
    RELDIV_RETURN_NOT_OK(cycle(&plain, config.seconds * 0.25, false));
    Tracer tracer(true);
    ColdRunner runner(&tracer);
    RELDIV_RETURN_NOT_OK(cycle(&runner, config.seconds * 0.75, true));
    runner.AddPerLayer(&m);
    m.Add("storage.insert_us", Median(insert_us), "us");
    ServiceLayers().Add(&m);
    const double traced_per_query =
        runner.busy_ms() / static_cast<double>(runner.queries());
    const double plain_per_query =
        plain.busy_ms() / static_cast<double>(plain.queries());
    AddTraceSummary(&m, tracer, traced_per_query / plain_per_query - 1.0,
                    static_cast<double>(runner.queries()));
    return WriteTrace(config, tracer);
  }();
  return out;
}

}  // namespace perfbench
