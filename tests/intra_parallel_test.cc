// Lane-equivalence suite: every division algorithm must produce a
// bit-identical quotient AND bit-identical Table 1 counter totals at every
// worker count (ExecContext::dop 1, 4, 8). The parallel operators guarantee
// this by keeping the work DECOMPOSITION (fragments, sort chunks, §3.4
// clusters/phases) independent of the worker count — dop only changes which
// scheduler lane executes a piece — and by merging per-fragment counters in
// a fixed order. tools/check_all.sh re-runs this binary under TSan at
// RELDIV_THREADS=1,4,8.

#include <atomic>
#include <string>
#include <vector>

#include "division/division.h"
#include "division/hash_division.h"
#include "exec/database.h"
#include "exec/exchange.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "testing/failpoint.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

struct RunOutcome {
  std::vector<Tuple> quotient;  ///< in emission order, NOT sorted
  CpuCounters cpu;
};

/// Workload with non-matching tuples, incomplete candidates, and duplicates
/// so the duplicate-handling and spill paths all execute; sized to overflow
/// the default sort space, which makes the sort-based algorithms exercise
/// the morsel-parallel run formation.
class IntraParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec;
    spec.divisor_cardinality = 24;
    spec.quotient_candidates = 400;
    spec.candidate_completeness = 0.65;
    spec.nonmatching_tuples = 800;
    spec.dividend_duplicates = 300;
    spec.divisor_duplicates = 8;
    spec.seed = 17;
    workload_ = GenerateWorkload(spec);
    ASSERT_OK_AND_ASSIGN(db_, Database::Open());
    ASSERT_OK(
        LoadWorkload(db_.get(), workload_, "lane", &dividend_, &divisor_));
  }

  DivisionQuery Query() { return {dividend_, divisor_, {"divisor_id"}}; }

  /// One cold run at the given worker count: buffer pool purged first so
  /// every run starts from the same storage state.
  Result<RunOutcome> RunAt(size_t dop, DivisionAlgorithm algorithm,
                           const DivisionOptions& options) {
    return RunAt(dop, Query(), algorithm, options);
  }

  Result<RunOutcome> RunAt(size_t dop, const DivisionQuery& query,
                           DivisionAlgorithm algorithm,
                           const DivisionOptions& options) {
    ExecContext* ctx = db_->ctx();
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->FlushAll());
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->DropAll());
    ctx->set_dop(dop);
    // Discard the sub-page Move residue of whatever ran before, so two
    // identical runs report identical Move deltas (see CountMoveBytes).
    ctx->ResetMoveAccumulator();
    const CpuCounters before = *ctx->counters();
    Result<std::vector<Tuple>> quotient =
        Divide(ctx, query, algorithm, options);
    const CpuCounters after = *ctx->counters();
    ctx->set_dop(1);
    RELDIV_RETURN_NOT_OK(quotient.status());
    RunOutcome outcome;
    outcome.quotient = quotient.MoveValue();
    outcome.cpu = after - before;
    return outcome;
  }

  static void ExpectIdentical(const RunOutcome& base, const RunOutcome& run,
                              const std::string& what) {
    EXPECT_EQ(run.quotient, base.quotient) << what << ": quotient drifted";
    EXPECT_EQ(run.cpu.comparisons, base.cpu.comparisons) << what;
    EXPECT_EQ(run.cpu.hashes, base.cpu.hashes) << what;
    EXPECT_EQ(run.cpu.moves, base.cpu.moves) << what;
    EXPECT_EQ(run.cpu.bit_ops, base.cpu.bit_ops) << what;
  }

  /// The serial plan's sorted quotient is `expected`; for each fragment
  /// count the sorted quotient matches it, and the emission order and all
  /// four counters stay identical from dop 1 to dop 4 and 8.
  void ExpectFragmentLaneEquivalence(const DivisionQuery& query,
                                     const std::vector<Tuple>& expected) {
    ASSERT_OK_AND_ASSIGN(
        RunOutcome serial,
        RunAt(1, query, DivisionAlgorithm::kHashDivision, DivisionOptions{}));
    EXPECT_EQ(Sorted(serial.quotient), expected);
    for (size_t fragments : {1u, 3u, 8u}) {
      DivisionOptions options;
      options.parallel_fragments = fragments;
      // The fragment count fixes the decomposition (and with it the exact
      // counter totals); the worker count must not move either.
      ASSERT_OK_AND_ASSIGN(
          RunOutcome base,
          RunAt(1, query, DivisionAlgorithm::kHashDivision, options));
      EXPECT_EQ(Sorted(base.quotient), expected) << fragments << " fragments";
      for (size_t dop : {4u, 8u}) {
        ASSERT_OK_AND_ASSIGN(
            RunOutcome run,
            RunAt(dop, query, DivisionAlgorithm::kHashDivision, options));
        ExpectIdentical(base, run,
                        std::to_string(fragments) + " fragments at dop " +
                            std::to_string(dop));
      }
    }
  }

  GeneratedWorkload workload_;
  std::unique_ptr<Database> db_;
  Relation dividend_;
  Relation divisor_;
};

TEST_F(IntraParallelTest, AllAlgorithmsAreLaneEquivalentAcrossWorkerCounts) {
  const DivisionAlgorithm algorithms[] = {
      DivisionAlgorithm::kNaive,
      DivisionAlgorithm::kSortAggregate,
      DivisionAlgorithm::kSortAggregateWithJoin,
      DivisionAlgorithm::kHashAggregate,
      DivisionAlgorithm::kHashAggregateWithJoin,
      DivisionAlgorithm::kHashDivision,
      DivisionAlgorithm::kHashDivisionPartitioned,
  };
  DivisionOptions options;
  options.eliminate_duplicates = true;  // the inputs carry duplicates
  for (DivisionAlgorithm algorithm : algorithms) {
    const std::string name = DivisionAlgorithmName(algorithm);
    ASSERT_OK_AND_ASSIGN(RunOutcome base, RunAt(1, algorithm, options));
    // The no-join aggregation strategies assume referential integrity
    // (§2.2); the workload's foreign tuples violate that by design, so
    // their quotient is checked only for lane equivalence, not content.
    const bool no_join_aggregation =
        algorithm == DivisionAlgorithm::kSortAggregate ||
        algorithm == DivisionAlgorithm::kHashAggregate;
    if (!no_join_aggregation) {
      EXPECT_EQ(Sorted(base.quotient), workload_.expected_quotient) << name;
    }
    for (size_t dop : {4u, 8u}) {
      ASSERT_OK_AND_ASSIGN(RunOutcome run, RunAt(dop, algorithm, options));
      ExpectIdentical(base, run, name + " at dop " + std::to_string(dop));
    }
  }
}

TEST_F(IntraParallelTest, ParallelFragmentsAreLaneEquivalentPerFragmentCount) {
  ExpectFragmentLaneEquivalence(Query(), workload_.expected_quotient);
}

TEST_F(IntraParallelTest, ParallelFragmentsCarryVariableWidthRows) {
  // A string quotient attribute makes every encoded exchange row
  // variable-width, so fragments must find row boundaries through the
  // row offsets rather than a fixed stride.
  const GeneratedWorkload named = WithStringQuotient(workload_);
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), named, "named", &dividend, &divisor));
  ExpectFragmentLaneEquivalence({dividend, divisor, {"divisor_id"}},
                                named.expected_quotient);
}

TEST_F(IntraParallelTest, FragmentContextsInheritTheCancellationFlag) {
  std::atomic<bool> cancel{false};
  db_->ctx()->set_cancellation_flag(&cancel);
  FragmentContexts fragments(db_->ctx(), 4);
  for (size_t i = 0; i < fragments.size(); ++i) {
    EXPECT_FALSE(fragments.fragment(i)->cancelled()) << "fragment " << i;
  }
  cancel.store(true);
  for (size_t i = 0; i < fragments.size(); ++i) {
    EXPECT_TRUE(fragments.fragment(i)->cancelled()) << "fragment " << i;
  }
  db_->ctx()->set_cancellation_flag(nullptr);
}

TEST_F(IntraParallelTest, CancellationStopsTheFragmentsThemselves) {
  // The flag goes up only after the divisor build and the repartition, so
  // nothing but the fragments' own batch-boundary polls can observe it.
  ExecContext* ctx = db_->ctx();
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(Query()));
  DivisionOptions options;
  options.parallel_fragments = 8;
  HashDivisionCore core(ctx, resolved.match_attrs, resolved.quotient_attrs,
                        options);
  ScanOperator divisor(ctx, divisor_);
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  ScanOperator dividend(ctx, dividend_);
  ASSERT_OK_AND_ASSIGN(
      ExchangeBuffer buckets,
      DrainAndHashRepartition(ctx, &dividend, resolved.quotient_attrs,
                              options.parallel_fragments));

  std::atomic<bool> cancel{true};
  ctx->set_cancellation_flag(&cancel);
  ctx->set_dop(4);
  std::vector<Tuple> quotient;
  const Status status =
      RunDivisionFragments(ctx, resolved.match_attrs, resolved.quotient_attrs,
                           options, core, &buckets, &quotient);
  ctx->set_dop(1);
  ctx->set_cancellation_flag(nullptr);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_TRUE(quotient.empty());
}

TEST_F(IntraParallelTest, PartitionedStrategiesAreLaneEquivalent) {
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor,
        PartitionStrategy::kCombined}) {
    DivisionOptions options;
    options.partition_strategy = strategy;
    options.num_partitions = 3;
    options.num_quotient_subpartitions = 2;
    const std::string name =
        strategy == PartitionStrategy::kQuotient
            ? "quotient"
            : (strategy == PartitionStrategy::kDivisor ? "divisor"
                                                       : "combined");
    ASSERT_OK_AND_ASSIGN(
        RunOutcome base,
        RunAt(1, DivisionAlgorithm::kHashDivisionPartitioned, options));
    EXPECT_EQ(Sorted(base.quotient), workload_.expected_quotient) << name;
    for (size_t dop : {4u, 8u}) {
      ASSERT_OK_AND_ASSIGN(
          RunOutcome run,
          RunAt(dop, DivisionAlgorithm::kHashDivisionPartitioned, options));
      ExpectIdentical(base, run, name + " at dop " + std::to_string(dop));
    }
  }
}

TEST_F(IntraParallelTest, ParallelFragmentsRejectEarlyOutput) {
  DivisionOptions options;
  options.parallel_fragments = 4;
  options.early_output = true;
  Result<std::vector<Tuple>> result =
      Divide(db_->ctx(), Query(), DivisionAlgorithm::kHashDivision, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IntraParallelTest, InjectedFaultSurfacesCleanlyFromAParallelPlan) {
  DivisionOptions options;
  options.parallel_fragments = 8;
  db_->ctx()->set_dop(4);
  {
    ScopedFailpoint fp("memory/reserve", FailpointPolicy::Always());
    Result<std::vector<Tuple>> result = Divide(
        db_->ctx(), Query(), DivisionAlgorithm::kHashDivision, options);
    EXPECT_FALSE(result.ok());
  }
  // The failed run left nothing behind: the same parallel plan succeeds.
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> quotient,
      Divide(db_->ctx(), Query(), DivisionAlgorithm::kHashDivision, options));
  db_->ctx()->set_dop(1);
  EXPECT_EQ(Sorted(std::move(quotient)), workload_.expected_quotient);
}

}  // namespace
}  // namespace reldiv
