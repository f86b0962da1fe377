/// Differential fault-injection harness: every division algorithm is run
/// under injected storage, memory, and network faults, asserting the two
/// acceptable outcomes — a recovered run whose quotient is exactly the
/// reference quotient, or a clean non-OK Status at the plan root (no crash,
/// no leak; the faults stage of tools/check_all.sh repeats this suite under
/// ASan and TSan to prove the second half).

#include <cstddef>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/counters.h"
#include "division/division.h"
#include "division/fallback_division.h"
#include "division/partitioned_hash_division.h"
#include "exec/database.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "parallel/network.h"
#include "parallel/parallel_hash_division.h"
#include "testing/failpoint.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

constexpr DivisionAlgorithm kAllAlgorithms[] = {
    DivisionAlgorithm::kNaive,
    DivisionAlgorithm::kSortAggregate,
    DivisionAlgorithm::kSortAggregateWithJoin,
    DivisionAlgorithm::kHashAggregate,
    DivisionAlgorithm::kHashAggregateWithJoin,
    DivisionAlgorithm::kHashDivision,
    DivisionAlgorithm::kHashDivisionPartitioned,
};

DivisionOptions OptionsFor(DivisionAlgorithm algorithm) {
  DivisionOptions options;
  switch (algorithm) {
    // The aggregation family needs duplicate-free inputs; the workload
    // below injects duplicates, so request the pre-pass (§2, §4).
    case DivisionAlgorithm::kSortAggregate:
    case DivisionAlgorithm::kHashAggregate:
    case DivisionAlgorithm::kSortAggregateWithJoin:
    case DivisionAlgorithm::kHashAggregateWithJoin:
      options.eliminate_duplicates = true;
      break;
    case DivisionAlgorithm::kHashDivisionPartitioned:
      options.num_partitions = 3;
      break;
    default:
      break;
  }
  return options;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisarmAll();
    // A real (bounded) pool so that memory grants actually pass through
    // MemoryPool::Reserve and its failpoint.
    DatabaseOptions options;
    options.pool_bytes = 64 * 1024 * 1024;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));

    WorkloadSpec spec;
    spec.divisor_cardinality = 8;
    spec.quotient_candidates = 40;
    spec.candidate_completeness = 0.5;
    // No foreign tuples: the no-join aggregation algorithms (§2.2) require
    // every dividend tuple to reference an existing divisor value, and this
    // one workload feeds all seven algorithms.
    spec.nonmatching_tuples = 0;
    spec.dividend_duplicates = 10;
    spec.seed = 7;
    workload_ = GenerateWorkload(spec);
    ASSERT_OK(
        LoadWorkload(db_.get(), workload_, "fi", &dividend_, &divisor_));
    query_ = DivisionQuery{dividend_, divisor_, {"divisor_id"}};
  }

  void TearDown() override {
    FailpointRegistry::Global().DisarmAll();
    if (db_ != nullptr) db_->ctx()->set_hash_memory_bytes(0);
  }

  FailpointRegistry& registry() { return FailpointRegistry::Global(); }

  std::unique_ptr<Database> db_;
  GeneratedWorkload workload_;
  Relation dividend_, divisor_;
  DivisionQuery query_;
};

// (b) of the differential contract: a fatal fault at a site every
// algorithm must traverse yields a clean non-OK Status at the plan root
// carrying the injected code, and the Table 1 counters stay monotone.
TEST_F(FaultInjectionTest, FatalReadFaultReachesRootCleanly) {
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    // Evict the freshly loaded relations from the buffer pool so that the
    // plan's scans must actually touch the (faulty) disk.
    ASSERT_OK(db_->buffer_manager()->FlushAll());
    ASSERT_OK(db_->buffer_manager()->DropAll());
    registry().Arm("sim_disk/read",
                   FailpointPolicy::Always(StatusCode::kIOError,
                                           "injected head crash"));
    const CpuCounters before = *db_->ctx()->counters();
    Result<std::vector<Tuple>> result =
        Divide(db_->ctx(), query_, algorithm, OptionsFor(algorithm));
    registry().DisarmAll();

    ASSERT_FALSE(result.ok()) << DivisionAlgorithmName(algorithm);
    EXPECT_EQ(result.status().code(), StatusCode::kIOError)
        << DivisionAlgorithmName(algorithm) << ": "
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("injected head crash"),
              std::string::npos)
        << result.status().ToString();
    const CpuCounters after = *db_->ctx()->counters();
    EXPECT_GE(after.comparisons, before.comparisons);
    EXPECT_GE(after.hashes, before.hashes);
    EXPECT_GE(after.moves, before.moves);
    EXPECT_GE(after.bit_ops, before.bit_ops);

    // The engine must still be usable after the failure was unwound: the
    // same plan with the fault cleared produces the exact quotient.
    ASSERT_OK_AND_ASSIGN(
        std::vector<Tuple> quotient,
        Divide(db_->ctx(), query_, algorithm, OptionsFor(algorithm)));
    EXPECT_EQ(Sorted(std::move(quotient)), workload_.expected_quotient)
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(FaultInjectionTest, FatalPinFaultReachesRootCleanly) {
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    // The workload fits in a couple of pages, so fail the second pin: the
    // first scan comes up fine and the plan dies mid-flight.
    registry().Arm("buffer/fix",
                   FailpointPolicy::OnNthHit(2, StatusCode::kInternal,
                                             "frame latch torn"));
    Result<std::vector<Tuple>> result =
        Divide(db_->ctx(), query_, algorithm, OptionsFor(algorithm));
    registry().DisarmAll();
    ASSERT_FALSE(result.ok()) << DivisionAlgorithmName(algorithm);
    EXPECT_EQ(result.status().code(), StatusCode::kInternal)
        << DivisionAlgorithmName(algorithm);
  }
}

// Spool-heavy plans also traverse the extent-growth site: every partition
// cluster starts with a fresh page allocation.
TEST_F(FaultInjectionTest, ExtentFaultFailsPartitionedPlans) {
  registry().Arm("extent_file/append",
                 FailpointPolicy::Always(StatusCode::kIOError, "injected"));
  DivisionOptions options;
  options.partition_strategy = PartitionStrategy::kDivisor;
  Result<std::vector<Tuple>> result =
      Divide(db_->ctx(), query_,
             DivisionAlgorithm::kHashDivisionPartitioned, options);
  registry().DisarmAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

// Dirty pages meet the disk on write-back. FlushAll propagates the injected
// error directly; a division on a starved pool meets it through eviction,
// where it must still unwind cleanly — either as the injected I/O error
// (eviction inside Fix) or as resource exhaustion (the pool's reclaimer
// swallows shed failures and the grant is denied instead).
TEST_F(FaultInjectionTest, WriteFaultSurfacesOnWriteBack) {
  registry().Arm("sim_disk/write",
                 FailpointPolicy::Always(StatusCode::kIOError,
                                         "injected bad block"));
  // LoadWorkload left the appended pages dirty in the pool.
  Status flush = db_->buffer_manager()->FlushAll();
  registry().DisarmAll();
  ASSERT_FALSE(flush.ok());
  EXPECT_EQ(flush.code(), StatusCode::kIOError);
  EXPECT_NE(flush.message().find("injected bad block"), std::string::npos);

  DatabaseOptions small;
  small.pool_bytes = 4 * kPageSize;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(small));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload_, "wf", &dividend, &divisor));
  registry().Arm("sim_disk/write",
                 FailpointPolicy::Always(StatusCode::kIOError,
                                         "injected bad block"));
  DivisionOptions options;
  options.partition_strategy = PartitionStrategy::kDivisor;
  options.num_partitions = 8;
  Result<std::vector<Tuple>> result =
      Divide(db->ctx(), DivisionQuery{dividend, divisor, {"divisor_id"}},
             DivisionAlgorithm::kHashDivisionPartitioned, options);
  registry().DisarmAll();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kIOError ||
              result.status().code() == StatusCode::kResourceExhausted)
      << result.status().ToString();
}

// (a) of the differential contract: a recoverable fault — one transient
// memory denial — is absorbed (buffer manager evicts, partitioned division
// restarts) and the quotient is still exact.
TEST_F(FaultInjectionTest, TransientMemoryDenialRecoversExactly) {
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kHashDivision,
        DivisionAlgorithm::kHashDivisionPartitioned}) {
    registry().Arm("memory/reserve", FailpointPolicy::OnNthHit(2));
    Result<std::vector<Tuple>> result =
        Divide(db_->ctx(), query_, algorithm, OptionsFor(algorithm));
    registry().DisarmAll();
    if (result.ok()) {
      EXPECT_EQ(Sorted(result.MoveValue()), workload_.expected_quotient)
          << DivisionAlgorithmName(algorithm);
    } else {
      // A denial at an unrecoverable moment must still unwind cleanly.
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << DivisionAlgorithmName(algorithm) << ": "
          << result.status().ToString();
    }
  }
}

// Degradation path of the tentpole: plain hash-division denied its memory
// grant falls back to partitioned hash-division and completes exactly.
TEST_F(FaultInjectionTest, HashDivisionFallsBackWhenGrantDenied) {
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query_));
  ExecContext* ctx = db_->ctx();
  // A budget generous enough for every partitioned phase but far too small
  // for the whole quotient table at once.
  ctx->set_hash_memory_bytes(2 * 1024);
  DivisionOptions options;
  options.overflow_fallback = true;
  options.num_partitions = 8;
  FallbackDivisionOperator op(ctx, resolved, options);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(&op));
  ctx->set_hash_memory_bytes(0);
  EXPECT_EQ(Sorted(std::move(quotient)), workload_.expected_quotient);
  EXPECT_TRUE(op.fallback_taken());
  GaugeList gauges;
  op.ExportGauges(&gauges);
  bool saw_gauge = false;
  for (const auto& [name, value] : gauges) {
    if (name == "fallback_taken") {
      saw_gauge = true;
      EXPECT_EQ(value, 1.0);
    }
  }
  EXPECT_TRUE(saw_gauge);

  // The same budget through the public plan builder.
  ctx->set_hash_memory_bytes(2 * 1024);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> via_plan,
      Divide(ctx, query_, DivisionAlgorithm::kHashDivision, options));
  ctx->set_hash_memory_bytes(0);
  EXPECT_EQ(Sorted(std::move(via_plan)), workload_.expected_quotient);

  // Without the fallback the same budget is a hard failure.
  ctx->set_hash_memory_bytes(2 * 1024);
  DivisionOptions no_fallback;
  Result<std::vector<Tuple>> hard =
      Divide(ctx, query_, DivisionAlgorithm::kHashDivision, no_fallback);
  ctx->set_hash_memory_bytes(0);
  ASSERT_FALSE(hard.ok());
  EXPECT_EQ(hard.status().code(), StatusCode::kResourceExhausted);
}

// (c) of the differential contract: the §3.4 memory-budget bisection.
// Every budget from "fits comfortably" down to a single page still
// produces the exact quotient; the phase and repartition gauges show the
// overflow machinery doing progressively more work.
TEST_F(FaultInjectionTest, MemoryBudgetBisectionDownToOnePage) {
  DatabaseOptions db_options;
  db_options.pool_bytes = 0;  // memory ceiling comes from the hash budget
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(db_options));
  WorkloadSpec spec;
  spec.divisor_cardinality = 5;
  // Large enough that a quarter of the candidates (one planned cluster)
  // cannot fit a hash table into a single 8 KB page.
  spec.quotient_candidates = 2000;
  spec.candidate_completeness = 0.4;
  spec.seed = 11;
  GeneratedWorkload workload = GenerateWorkload(spec);
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "bisect", &dividend, &divisor));
  ASSERT_OK_AND_ASSIGN(
      ResolvedDivision resolved,
      ResolveDivision(DivisionQuery{dividend, divisor, {"divisor_id"}}));
  ExecContext* ctx = db->ctx();

  size_t unbounded_phases = 0;
  size_t one_page_phases = 0;
  size_t one_page_repartitions = 0;
  // kPageSize == 8 KB: the final step runs the whole division inside one
  // page of table memory.
  for (size_t budget : {size_t{0}, size_t{256} * 1024, size_t{64} * 1024,
                        size_t{32} * 1024, size_t{16} * 1024, kPageSize}) {
    ctx->set_hash_memory_bytes(budget);
    DivisionOptions options;
    options.partition_strategy = PartitionStrategy::kQuotient;
    options.num_partitions = 4;
    PartitionedHashDivisionOperator op(ctx, resolved, options);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(&op));
    EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient)
        << "budget=" << budget;
    if (budget == 0) {
      unbounded_phases = op.phases_run();
      EXPECT_EQ(op.repartitions(), 0u) << "no pressure, no splits";
    } else if (budget == kPageSize) {
      one_page_phases = op.phases_run();
      one_page_repartitions = op.repartitions();
    }
  }
  ctx->set_hash_memory_bytes(0);
  EXPECT_EQ(unbounded_phases, 4u) << "one phase per planned partition";
  EXPECT_GT(one_page_repartitions, 0u)
      << "a one-page budget must force recursive repartitioning";
  EXPECT_GT(one_page_phases, unbounded_phases);
}

// Network layer: a transient send fault is retried with backoff and
// succeeds; a persistent one exhausts the policy and fails cleanly; a
// permanent (non-transient) code is not retried at all.
TEST_F(FaultInjectionTest, NetworkRetriesTransientFaults) {
  Interconnect net(4);
  registry().Arm("network/send", FailpointPolicy::OnNthHit(1));
  ASSERT_OK(net.Ship(0, 1, 128));
  registry().DisarmAll();
  EXPECT_EQ(net.retries(), 1u);
  EXPECT_EQ(net.backoff_units(), 1u);
  // The lost attempt never reached the wire, so only the retry counts.
  EXPECT_EQ(net.messages(), 1u);
  EXPECT_EQ(net.bytes_between(0, 1), 128u);

  registry().Arm("network/recv", FailpointPolicy::OnNthHit(1));
  ASSERT_OK(net.Ship(1, 2, 64));
  registry().DisarmAll();
  // Lost on receive: both wire attempts were sent and are accounted.
  EXPECT_EQ(net.messages(), 3u);
  EXPECT_EQ(net.retries(), 2u);
}

TEST_F(FaultInjectionTest, NetworkExhaustsRetriesThenFailsCleanly) {
  Interconnect net(2);
  registry().Arm("network/send",
                 FailpointPolicy::Always(StatusCode::kIOError, "link down"));
  Status status = net.Ship(0, 1, 32);
  registry().DisarmAll();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("failed after 3 attempts"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(net.retries(), 2u);           // attempts 2 and 3
  EXPECT_EQ(net.backoff_units(), 1u + 2u);  // 1, then 2

  // Local hand-offs never touch the wire, armed or not.
  ASSERT_OK(net.Ship(1, 1, 99));
}

TEST_F(FaultInjectionTest, NetworkDoesNotRetryPermanentFaults) {
  Interconnect net(2);
  registry().Arm("network/send",
                 FailpointPolicy::Always(StatusCode::kCorruption,
                                         "checksum mismatch"));
  Status status = net.Ship(0, 1, 32);
  registry().DisarmAll();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(net.retries(), 0u) << "corruption is not transient";
}

// The full §6 engine under a lossy link: a low-probability transient fault
// is absorbed by the retry policy (exact quotient); a dead link fails the
// whole parallel query cleanly from its worker thread.
TEST_F(FaultInjectionTest, ParallelDivisionSurvivesLossyLink) {
  WorkloadSpec spec;
  spec.divisor_cardinality = 10;
  spec.quotient_candidates = 50;
  spec.candidate_completeness = 0.6;
  spec.seed = 13;
  GeneratedWorkload w = GenerateWorkload(spec);

  {
    registry().Arm("network/send", FailpointPolicy::WithProbability(5, 21));
    ParallelDivisionOptions options;
    options.num_nodes = 4;
    options.strategy = PartitionStrategy::kDivisor;
    ParallelHashDivisionEngine engine(options);
    Result<ParallelDivisionResult> result =
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1});
    registry().DisarmAll();
    if (result.ok()) {
      EXPECT_EQ(Sorted(std::move(result.MoveValue().quotient)),
                w.expected_quotient);
      EXPECT_GT(engine.interconnect().retries(), 0u);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kIOError)
          << result.status().ToString();
    }
  }
  {
    registry().Arm("network/send", FailpointPolicy::Always());
    ParallelDivisionOptions options;
    options.num_nodes = 4;
    options.strategy = PartitionStrategy::kDivisor;
    ParallelHashDivisionEngine engine(options);
    Result<ParallelDivisionResult> result =
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1});
    registry().DisarmAll();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIOError)
        << result.status().ToString();
  }
}

// The §6 engine replays its interconnect ledger in one fixed order
// (sender-major, declustering order within a sender), so the failpoint hit
// sequence — and with it which shipment is retried — never depends on the
// worker count. The retry/backoff/message values below were recorded before
// the engine's senders ran in parallel and must not move.
TEST_F(FaultInjectionTest, ParallelDivisionFaultOrderIsFixed) {
  WorkloadSpec spec;
  spec.divisor_cardinality = 10;
  spec.quotient_candidates = 50;
  spec.candidate_completeness = 0.6;
  spec.nonmatching_tuples = 30;
  spec.seed = 13;
  // Variable-width rows, so a retried shipment's bytes identify it.
  const GeneratedWorkload w = WithStringQuotient(GenerateWorkload(spec));
  // Σ (1 + from·4 + to) · bytes_between(from, to): moves when a retry's
  // bytes land on another link.
  auto link_checksum = [](const Interconnect& net) {
    uint64_t sum = 0;
    for (size_t from = 0; from < 4; ++from) {
      for (size_t to = 0; to < 4; ++to) {
        sum += (1 + from * 4 + to) * net.bytes_between(from, to);
      }
    }
    return sum;
  };

  struct Expected {
    PartitionStrategy strategy;
    const char* site;
    FailpointPolicy policy;
    uint64_t retries;
    uint64_t backoff_units;
    uint64_t messages;
    uint64_t bytes;
    uint64_t links;  ///< link_checksum
  };
  const std::vector<Expected> cases = {
      {PartitionStrategy::kQuotient, "network/send",
       FailpointPolicy::OnNthHit(40), 1, 1, 307, 5441, 45692},
      {PartitionStrategy::kQuotient, "network/recv",
       FailpointPolicy::OnNthHit(40), 1, 1, 308, 5460, 45768},
      {PartitionStrategy::kQuotient, "network/recv",
       FailpointPolicy::OnNthHit(150), 1, 1, 308, 5461, 45792},
      {PartitionStrategy::kQuotient, "network/send",
       FailpointPolicy::WithProbability(10, 3), 34, 36, 307, 5441, 45692},
      {PartitionStrategy::kQuotient, "network/recv",
       FailpointPolicy::WithProbability(5, 21), 12, 12, 319, 5641, 47506},
      {PartitionStrategy::kDivisor, "network/send",
       FailpointPolicy::OnNthHit(40), 1, 1, 416, 13171, 110487},
      {PartitionStrategy::kDivisor, "network/recv",
       FailpointPolicy::OnNthHit(40), 1, 1, 417, 13190, 110563},
      {PartitionStrategy::kDivisor, "network/recv",
       FailpointPolicy::OnNthHit(150), 1, 1, 417, 13190, 110582},
      {PartitionStrategy::kDivisor, "network/send",
       FailpointPolicy::WithProbability(10, 3), 47, 52, 416, 13171, 110487},
      {PartitionStrategy::kDivisor, "network/recv",
       FailpointPolicy::WithProbability(5, 21), 20, 21, 436, 14016, 115784},
  };
  for (const Expected& c : cases) {
    registry().Arm(c.site, c.policy);
    ParallelDivisionOptions options;
    options.num_nodes = 4;
    options.strategy = c.strategy;
    options.use_bit_vector_filter = true;
    ParallelHashDivisionEngine engine(options);
    Result<ParallelDivisionResult> result =
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1});
    registry().DisarmAll();
    const Interconnect& net = engine.interconnect();
    SCOPED_TRACE("actual: " + std::to_string(net.retries()) + ", " +
                 std::to_string(net.backoff_units()) + ", " +
                 std::to_string(net.messages()) + ", " +
                 std::to_string(net.bytes()) + ", " +
                 std::to_string(link_checksum(net)));
    ASSERT_OK(result.status());
    EXPECT_EQ(Sorted(std::move(result.MoveValue().quotient)),
              w.expected_quotient);
    EXPECT_EQ(net.retries(), c.retries);
    EXPECT_EQ(net.backoff_units(), c.backoff_units);
    EXPECT_EQ(net.messages(), c.messages);
    EXPECT_EQ(net.bytes(), c.bytes);
    EXPECT_EQ(link_checksum(net), c.links);
  }
}

// A dividend row that does not match its schema is rejected while it is
// encoded for shipment: a clean InvalidArgument, nothing leaked (the asan
// lane runs this suite).
TEST_F(FaultInjectionTest, ParallelDivisionRejectsMistypedDividendRow) {
  WorkloadSpec spec;
  spec.divisor_cardinality = 6;
  spec.quotient_candidates = 30;
  spec.seed = 19;
  GeneratedWorkload w = GenerateWorkload(spec);
  w.dividend[w.dividend.size() / 2] =
      Tuple{Value::String("not an id"), w.divisor[0].value(0)};
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    ParallelDivisionOptions options;
    options.num_nodes = 4;
    options.strategy = strategy;
    ParallelHashDivisionEngine engine(options);
    Result<ParallelDivisionResult> result =
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1});
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
  }
}

// PR-8 acceptance: after an injected fault kills a query, the flight
// recorder holds a non-empty, schema-valid record of what happened — the
// failpoint fire and the non-OK root status both appear in the dump.
TEST_F(FaultInjectionTest, FlightRecorderCapturesInjectedFault) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  ASSERT_OK(db_->buffer_manager()->FlushAll());
  ASSERT_OK(db_->buffer_manager()->DropAll());
  registry().Arm("sim_disk/read",
                 FailpointPolicy::Always(StatusCode::kIOError,
                                         "injected head crash"));
  Result<std::vector<Tuple>> result =
      Divide(db_->ctx(), query_, DivisionAlgorithm::kHashDivision,
             OptionsFor(DivisionAlgorithm::kHashDivision));
  registry().DisarmAll();
  ASSERT_FALSE(result.ok());

  ASSERT_GT(recorder.size(), 0u);
  const std::vector<FlightEvent> events = recorder.Events();
  bool saw_failpoint = false;
  bool saw_root_status = false;
  for (const FlightEvent& e : events) {
    if (e.category == FlightEventCategory::kFailpoint &&
        e.detail == "sim_disk/read") {
      saw_failpoint = true;
    }
    if (e.category == FlightEventCategory::kStatus) saw_root_status = true;
  }
  EXPECT_TRUE(saw_failpoint);
  EXPECT_TRUE(saw_root_status);

  // Schema check on the JSON dump: the required keys and both event kinds.
  const std::string json = recorder.DumpJson();
  for (const char* key :
       {"\"flight_recorder\"", "\"total\"", "\"events\"", "\"seq\"",
        "\"ts_us\"", "\"category\"", "\"label\"", "\"detail\"", "\"value\"",
        "\"failpoint\"", "\"status\"", "sim_disk/read"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  recorder.Clear();
}

}  // namespace
}  // namespace reldiv
