// The fused-execution contract (DESIGN.md §12): a fused pipeline is an
// ordinary Operator whose quotient AND Table 1 counter totals are
// bit-identical to the equivalent chain of virtual operators — in every
// hash-division mode, at every worker count, under contract checking and
// profiling, and when the consumer abandons the stream early. "Fusion may
// never change what is counted, only how fast it runs."

#include <memory>
#include <string>
#include <vector>

#include "division/division.h"
#include "division/hash_division.h"
#include "exec/contract_check.h"
#include "exec/database.h"
#include "exec/filter.h"
#include "exec/fused/fused_division.h"
#include "exec/fused/fused_pipeline.h"
#include "exec/kernels/kernels.h"
#include "exec/mem_source.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "obs/profiled_operator.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

struct RunOutcome {
  std::vector<Tuple> quotient;  ///< in emission order, NOT sorted
  CpuCounters cpu;
};

class FusedPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec;
    spec.divisor_cardinality = 24;
    spec.quotient_candidates = 400;
    spec.candidate_completeness = 0.65;
    spec.nonmatching_tuples = 800;
    spec.dividend_duplicates = 300;
    spec.divisor_duplicates = 8;
    spec.seed = 23;
    workload_ = GenerateWorkload(spec);
    ASSERT_OK_AND_ASSIGN(db_, Database::Open());
    ASSERT_OK(
        LoadWorkload(db_.get(), workload_, "fp", &dividend_, &divisor_));
    ASSERT_OK_AND_ASSIGN(
        resolved_,
        ResolveDivision({dividend_, divisor_, {"divisor_id"}}));
  }

  std::unique_ptr<Operator> MakeVirtual(const DivisionOptions& options) {
    return MakeVirtual(options, dividend_, divisor_, resolved_);
  }

  std::unique_ptr<Operator> MakeVirtual(const DivisionOptions& options,
                                        const Relation& dividend,
                                        const Relation& divisor,
                                        const ResolvedDivision& resolved) {
    return std::make_unique<HashDivisionOperator>(
        db_->ctx(), std::make_unique<ScanOperator>(db_->ctx(), dividend),
        std::make_unique<ScanOperator>(db_->ctx(), divisor),
        resolved.match_attrs, resolved.quotient_attrs, options);
  }

  std::unique_ptr<Operator> MakeFused(const DivisionOptions& options) {
    return MakeFused(options, divisor_, resolved_);
  }

  std::unique_ptr<Operator> MakeFused(const DivisionOptions& options,
                                      const Relation& divisor,
                                      const ResolvedDivision& resolved) {
    return fused::MakeFusedHashDivision(
        db_->ctx(), resolved,
        std::make_unique<ScanOperator>(db_->ctx(), divisor), options);
  }

  /// Runs a freshly built plan cold and captures quotient + counter deltas.
  /// The owning overload destroys the plan on return; use the non-owning
  /// overload when the test needs to inspect the operator afterwards.
  Result<RunOutcome> Run(std::unique_ptr<Operator> plan, size_t dop = 1) {
    return Run(plan.get(), dop);
  }

  Result<RunOutcome> Run(Operator* plan, size_t dop = 1) {
    ExecContext* ctx = db_->ctx();
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->FlushAll());
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->DropAll());
    ctx->set_dop(dop);
    ctx->ResetMoveAccumulator();
    const CpuCounters before = *ctx->counters();
    Result<std::vector<Tuple>> quotient = CollectAll(plan);
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

  GeneratedWorkload workload_;
  std::unique_ptr<Database> db_;
  Relation dividend_, divisor_;
  ResolvedDivision resolved_;
};

TEST_F(FusedPipelineTest, MatchesVirtualInEveryModeAtEveryDop) {
  struct Mode {
    const char* name;
    DivisionOptions options;
  };
  std::vector<Mode> modes;
  modes.push_back({"plain", {}});
  {
    DivisionOptions o;
    o.early_output = true;
    modes.push_back({"early_output", o});
  }
  {
    // Counters instead of bitmaps double-count dividend duplicates, but
    // fused and virtual must double-count IDENTICALLY.
    DivisionOptions o;
    o.counters_instead_of_bitmaps = true;
    modes.push_back({"counters", o});
  }
  {
    DivisionOptions o;
    o.parallel_fragments = 5;
    modes.push_back({"parallel_fragments", o});
  }
  for (const Mode& mode : modes) {
    ASSERT_OK_AND_ASSIGN(RunOutcome virt, Run(MakeVirtual(mode.options)));
    for (size_t dop : {1, 4, 8}) {
      ASSERT_OK_AND_ASSIGN(RunOutcome fus, Run(MakeFused(mode.options), dop));
      ExpectIdentical(virt, fus,
                      std::string(mode.name) + " dop=" + std::to_string(dop));
    }
  }

  // parallel_fragments again over a string quotient attribute: both lanes
  // route variable-width rows through the encoded exchange buffer.
  const GeneratedWorkload named = WithStringQuotient(workload_);
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), named, "fp_named", &dividend, &divisor));
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved,
                       ResolveDivision({dividend, divisor, {"divisor_id"}}));
  DivisionOptions options;
  options.parallel_fragments = 5;
  ASSERT_OK_AND_ASSIGN(
      RunOutcome virt,
      Run(MakeVirtual(options, dividend, divisor, resolved)));
  EXPECT_EQ(Sorted(virt.quotient), named.expected_quotient);
  for (size_t dop : {1, 4, 8}) {
    ASSERT_OK_AND_ASSIGN(RunOutcome fus,
                         Run(MakeFused(options, divisor, resolved), dop));
    ExpectIdentical(virt, fus,
                    "string parallel_fragments dop=" + std::to_string(dop));
  }
}

TEST_F(FusedPipelineTest, FusedFilterMatchesFilterOperator) {
  // Filter the dividend to divisor_id < 12 on both sides: FilterOperator
  // with an interpreted predicate vs the fused compare-kernel stage. Both
  // count nothing for the predicate itself, so totals still match.
  const int64_t bound = 12;
  DivisionOptions options;
  auto scan = std::make_unique<ScanOperator>(db_->ctx(), dividend_);
  auto filtered = std::make_unique<FilterOperator>(
      std::move(scan),
      [bound](const Tuple& t) { return t.value(1).int64() < bound; });
  auto virt = std::make_unique<HashDivisionOperator>(
      db_->ctx(), std::move(filtered),
      std::make_unique<ScanOperator>(db_->ctx(), divisor_),
      resolved_.match_attrs, resolved_.quotient_attrs, options);

  fused::FusedFilter filter;
  filter.enabled = true;
  filter.column = 1;
  filter.op = kernels::CmpOp::kLt;
  filter.constant = bound;
  auto fus = fused::MakeFusedHashDivision(
      db_->ctx(), resolved_,
      std::make_unique<ScanOperator>(db_->ctx(), divisor_), options, filter);

  ASSERT_OK_AND_ASSIGN(RunOutcome virt_out, Run(std::move(virt)));
  ASSERT_OK_AND_ASSIGN(RunOutcome fus_out, Run(std::move(fus)));
  ExpectIdentical(virt_out, fus_out, "filtered");
}

TEST_F(FusedPipelineTest, ComposesWithContractCheckAndProfiling) {
  // A fused pipeline is an ordinary Operator: runtime protocol validation
  // and the metrics tree wrap it like anything else.
  DivisionOptions options;
  ASSERT_OK_AND_ASSIGN(RunOutcome plain, Run(MakeFused(options)));

  db_->ctx()->set_profiling(true);
  auto wrapped = std::make_unique<ContractCheckOperator>(
      db_->ctx(),
      MaybeProfile(db_->ctx(), MakeFused(options), "fused-hash-division"),
      "fused-hash-division");
  // Non-owning Run: `wrapped` must outlive the violations() read below.
  ASSERT_OK_AND_ASSIGN(RunOutcome checked, Run(wrapped.get()));
  EXPECT_EQ(wrapped->violations(), 0u);
  db_->ctx()->set_profiling(false);
  EXPECT_EQ(checked.quotient, plain.quotient);
  // Profiling wrappers charge no Table 1 operations either.
  ExpectIdentical(plain, checked, "contract-checked + profiled");
}

TEST_F(FusedPipelineTest, DividePlumbsFusedPipelines) {
  DivisionQuery query{dividend_, divisor_, {"divisor_id"}};
  DivisionOptions options;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> virt,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision, options));
  options.fused_pipelines = true;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> fus,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision, options));
  EXPECT_EQ(fus, virt);
  // And under contract checks, end to end.
  db_->ctx()->set_contract_checks(true);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> checked,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision, options));
  db_->ctx()->set_contract_checks(false);
  EXPECT_EQ(checked, virt);
}

TEST_F(FusedPipelineTest, EarlyAbandonFlushesNothingLate) {
  // The Close() audit: pull one small batch of an early-output stream, then
  // Close with input still pending. Every counter delta must be charged by
  // the time NextBatch returns — an operator that buffered counts and
  // flushed them in Close would show a difference between the two snapshots
  // below. Both lanes consume input in identical ctx-capacity batches until
  // the 8-slot output batch fills, so their partial-drain totals must also
  // agree exactly.
  DivisionOptions options;
  options.early_output = true;
  CpuCounters drained[2], closed[2];
  for (int lane = 0; lane < 2; ++lane) {
    std::unique_ptr<Operator> plan =
        lane == 0 ? MakeVirtual(options) : MakeFused(options);
    ASSERT_OK(db_->buffer_manager()->FlushAll());
    ASSERT_OK(db_->buffer_manager()->DropAll());
    db_->ctx()->ResetMoveAccumulator();
    const CpuCounters before = *db_->ctx()->counters();
    ASSERT_OK(plan->Open());
    TupleBatch batch(8);
    bool has_more = false;
    ASSERT_OK(plan->NextBatch(&batch, &has_more));
    ASSERT_EQ(batch.size(), 8u);
    ASSERT_TRUE(has_more) << "partial drain expected input left over";
    drained[lane] = *db_->ctx()->counters() - before;
    ASSERT_OK(plan->Close());
    closed[lane] = *db_->ctx()->counters() - before;
    EXPECT_EQ(closed[lane].comparisons, drained[lane].comparisons)
        << "lane " << lane << ": Close flushed buffered Comp counts";
    EXPECT_EQ(closed[lane].hashes, drained[lane].hashes) << "lane " << lane;
    EXPECT_EQ(closed[lane].bit_ops, drained[lane].bit_ops)
        << "lane " << lane;
  }
  EXPECT_EQ(drained[0].comparisons, drained[1].comparisons)
      << "fused partial drain diverged from virtual";
  EXPECT_EQ(drained[0].hashes, drained[1].hashes);
  EXPECT_EQ(drained[0].bit_ops, drained[1].bit_ops);
}

TEST_F(FusedPipelineTest, ScanFilterProjectMatchesOperatorChain) {
  // The generic fused pipeline against Scan→Filter→Project: same rows, same
  // order, both protocol granularities.
  const int64_t bound = 10;
  auto chain = std::make_unique<ProjectOperator>(
      std::make_unique<FilterOperator>(
          std::make_unique<ScanOperator>(db_->ctx(), dividend_),
          [bound](const Tuple& t) { return t.value(1).int64() < bound; }),
      std::vector<size_t>{0});

  fused::FusedFilter filter;
  filter.enabled = true;
  filter.column = 1;
  filter.op = kernels::CmpOp::kLt;
  filter.constant = bound;
  auto fus = fused::MakeFusedScanFilterProject(db_->ctx(), dividend_, filter,
                                               {0});
  ASSERT_TRUE(fus->IsBatchNative());
  EXPECT_EQ(fus->output_schema().num_fields(), 1u);

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> chain_rows,
                       CollectAll(chain.get()));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> fused_rows, CollectAll(fus.get()));
  EXPECT_EQ(fused_rows, chain_rows);

  // Tuple-at-a-time drain observes the same stream (CRTP TupleAdapter).
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> tuple_rows,
                       CollectAllTupleAtATime(fus.get()));
  EXPECT_EQ(tuple_rows, chain_rows);

  // Reopen contract: a second Open restarts from the first row.
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> again, CollectAll(fus.get()));
  EXPECT_EQ(again, chain_rows);
}

TEST_F(FusedPipelineTest, VectorSourcePipelines) {
  // In-memory sources: the fused division and the fused scan/filter/project
  // over a borrowed vector, against MemSourceOperator equivalents.
  const Schema dividend_schema = dividend_.schema;
  const std::vector<Tuple>& rows = workload_.dividend;

  DivisionOptions options;
  auto virt = std::make_unique<HashDivisionOperator>(
      db_->ctx(),
      std::make_unique<MemSourceOperator>(dividend_schema, rows),
      std::make_unique<ScanOperator>(db_->ctx(), divisor_),
      resolved_.match_attrs, resolved_.quotient_attrs, options);
  auto fus = fused::MakeFusedHashDivisionOverVector(
      db_->ctx(), &dividend_schema, &rows,
      std::make_unique<ScanOperator>(db_->ctx(), divisor_),
      resolved_.match_attrs, resolved_.quotient_attrs, options);
  ASSERT_OK_AND_ASSIGN(RunOutcome virt_out, Run(std::move(virt)));
  ASSERT_OK_AND_ASSIGN(RunOutcome fus_out, Run(std::move(fus)));
  ExpectIdentical(virt_out, fus_out, "vector-source division");
}

TEST_F(FusedPipelineTest, RejectsParallelEarlyOutputCombination) {
  DivisionOptions options;
  options.early_output = true;
  options.parallel_fragments = 4;
  auto plan = MakeFused(options);
  const Status status = plan->Open();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

}  // namespace
}  // namespace reldiv
