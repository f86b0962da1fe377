#include "division/hash_division.h"

#include <memory>

#include "exec/database.h"
#include "exec/filter.h"
#include "exec/mem_source.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

class HashDivisionCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
  }

  Schema DividendSchema() {
    return Schema{Field{"student", ValueType::kString},
                  Field{"course", ValueType::kString}};
  }
  Schema DivisorSchema() {
    return Schema{Field{"course", ValueType::kString}};
  }

  static Tuple Row(const char* a, const char* b) {
    return Tuple{Value::String(a), Value::String(b)};
  }
  static Tuple S(const char* a) { return Tuple{Value::String(a)}; }

  std::unique_ptr<Database> db_;
};

TEST_F(HashDivisionCoreTest, Figure2TraceStepByStep) {
  // §3.2: Courses = {Database1, Database2}; Transcript processed in the
  // paper's order: (Ann, Database1), (Barb, Database2), (Ann, Database2),
  // (Barb, Optics). After step 2 the quotient table holds TWO candidates
  // (Ann and Barb); step 3 emits only Ann.
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(DivisorSchema(),
                            {S("Database1"), S("Database2")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  EXPECT_EQ(core.divisor_count(), 2u);
  ASSERT_OK(core.ResetQuotientTable());

  ASSERT_OK(core.Consume(Row("Ann", "Database1"), nullptr));
  EXPECT_EQ(core.quotient_candidates(), 1u);  // (Ann) created
  ASSERT_OK(core.Consume(Row("Barb", "Database2"), nullptr));
  EXPECT_EQ(core.quotient_candidates(), 2u);  // (Barb) created
  ASSERT_OK(core.Consume(Row("Ann", "Database2"), nullptr));
  EXPECT_EQ(core.quotient_candidates(), 2u);  // bit set in (Ann)'s map
  ASSERT_OK(core.Consume(Row("Barb", "Optics"), nullptr));
  EXPECT_EQ(core.quotient_candidates(), 2u);  // discarded immediately

  std::vector<Tuple> quotient;
  ASSERT_OK(core.EmitComplete(&quotient));
  ASSERT_EQ(quotient.size(), 1u);
  EXPECT_EQ(quotient[0], Tuple{Value::String("Ann")});
}

TEST_F(HashDivisionCoreTest, DivisorDuplicatesGetNoNewNumber) {
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(
      DivisorSchema(),
      {S("Database1"), S("Database2"), S("Database1"), S("Database2")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  // "Duplicates in the divisor can be eliminated while building the
  // divisor table" — the count reflects DISTINCT tuples, keeping the bit
  // maps dense.
  EXPECT_EQ(core.divisor_count(), 2u);
}

TEST_F(HashDivisionCoreTest, BitOpsAreCounted) {
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(DivisorSchema(), {S("A"), S("B")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  ASSERT_OK(core.ResetQuotientTable());
  db_->counters()->Reset();
  ASSERT_OK(core.Consume(Row("x", "A"), nullptr));
  // Creating the candidate clears one word and sets one bit.
  EXPECT_GE(db_->counters()->bit_ops, 2u);
  const uint64_t after_create = db_->counters()->bit_ops;
  ASSERT_OK(core.Consume(Row("x", "B"), nullptr));
  EXPECT_EQ(db_->counters()->bit_ops, after_create + 1);  // one Set only
}

TEST_F(HashDivisionCoreTest, MemoryBytesGrowWithTables) {
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(DivisorSchema(), {S("A"), S("B"), S("C")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  const size_t after_divisor = core.memory_bytes();
  EXPECT_GT(after_divisor, 0u);
  ASSERT_OK(core.ResetQuotientTable());
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(core.Consume(
        Tuple{Value::String("s" + std::to_string(i)), Value::String("A")},
        nullptr));
  }
  EXPECT_GT(core.memory_bytes(), after_divisor);
}

TEST_F(HashDivisionCoreTest, QuotientTableResetStartsAPhaseFresh) {
  // The §3.4 phase pattern: same divisor table, fresh quotient table.
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(DivisorSchema(), {S("A"), S("B")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));

  ASSERT_OK(core.ResetQuotientTable());
  ASSERT_OK(core.Consume(Row("u", "A"), nullptr));
  ASSERT_OK(core.Consume(Row("u", "B"), nullptr));
  std::vector<Tuple> phase1;
  ASSERT_OK(core.EmitComplete(&phase1));
  EXPECT_EQ(phase1, std::vector<Tuple>{Tuple{Value::String("u")}});

  ASSERT_OK(core.ResetQuotientTable());
  EXPECT_EQ(core.quotient_candidates(), 0u);
  ASSERT_OK(core.Consume(Row("v", "A"), nullptr));
  std::vector<Tuple> phase2;
  ASSERT_OK(core.EmitComplete(&phase2));
  EXPECT_TRUE(phase2.empty());  // v misses B; u is gone with the old table
}

TEST_F(HashDivisionCoreTest, SeededDivisorTableSkipsStepOne) {
  // The collection-phase path: divisor numbers provided externally.
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  std::vector<std::pair<Tuple, uint64_t>> numbered;
  numbered.emplace_back(Tuple{Value::Int64(10)}, 0);
  numbered.emplace_back(Tuple{Value::Int64(30)}, 1);
  ASSERT_OK(core.BuildDivisorTableFromNumbered(numbered, 2));
  EXPECT_EQ(core.divisor_count(), 2u);
  ASSERT_OK(core.ResetQuotientTable());
  // Dividend (q, tag): q=1 appears with both tags; q=2 with one.
  Schema schema{Field{"q", ValueType::kInt64},
                Field{"tag", ValueType::kInt64}};
  (void)schema;
  ASSERT_OK(core.Consume(T(1, 10), nullptr));
  ASSERT_OK(core.Consume(T(1, 30), nullptr));
  ASSERT_OK(core.Consume(T(2, 30), nullptr));
  std::vector<Tuple> out;
  ASSERT_OK(core.EmitComplete(&out));
  EXPECT_EQ(out, std::vector<Tuple>{T(1)});
}

TEST_F(HashDivisionCoreTest, OperatorComposesInDataflow) {
  // §3.3 point 1: hash-division "can smoothly receive its inputs from a
  // dataflow query processing system" — here both inputs come from filter
  // operators, not stored relations, and the early-output form feeds a
  // downstream consumer incrementally.
  std::vector<Tuple> dividend_rows = {T(1, 1), T(1, 2), T(2, 1), T(1, 99),
                                      T(2, 2), T(3, 1)};
  std::vector<Tuple> divisor_rows = {T(1), T(2), T(77)};
  Schema dividend_schema{Field{"q", ValueType::kInt64},
                         Field{"d", ValueType::kInt64}};
  Schema divisor_schema{Field{"d", ValueType::kInt64}};

  auto filtered_dividend = std::make_unique<FilterOperator>(
      std::make_unique<MemSourceOperator>(dividend_schema, dividend_rows),
      [](const Tuple& t) { return t.value(1).int64() < 50; });
  auto filtered_divisor = std::make_unique<FilterOperator>(
      std::make_unique<MemSourceOperator>(divisor_schema, divisor_rows),
      [](const Tuple& t) { return t.value(0).int64() < 50; });

  DivisionOptions options;
  options.early_output = true;
  HashDivisionOperator op(db_->ctx(), std::move(filtered_dividend),
                          std::move(filtered_divisor), {1}, {0}, options);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&op));
  EXPECT_EQ(Sorted(std::move(out)), (std::vector<Tuple>{T(1), T(2)}));
}

TEST_F(HashDivisionCoreTest, EarlyOutputConsumerMayStopEarly) {
  // A consumer that abandons the stream after the first tuple must leave
  // the operator closeable without errors.
  std::vector<Tuple> dividend_rows;
  for (int q = 0; q < 50; ++q) {
    dividend_rows.push_back(T(q, 0));
    dividend_rows.push_back(T(q, 1));
  }
  Schema dividend_schema{Field{"q", ValueType::kInt64},
                         Field{"d", ValueType::kInt64}};
  Schema divisor_schema{Field{"d", ValueType::kInt64}};
  DivisionOptions options;
  options.early_output = true;
  auto make_op = [&] {
    return std::make_unique<HashDivisionOperator>(
        db_->ctx(),
        std::make_unique<MemSourceOperator>(dividend_schema, dividend_rows),
        std::make_unique<MemSourceOperator>(divisor_schema,
                                            std::vector<Tuple>{T(0), T(1)}),
        std::vector<size_t>{1}, std::vector<size_t>{0}, options);
  };
  {
    auto op = make_op();
    ASSERT_OK(op->Open());
    Tuple tuple;
    bool has = false;
    ASSERT_OK(op->Next(&tuple, &has));
    ASSERT_TRUE(has);
    ASSERT_OK(op->Close());  // stream abandoned mid-way
  }

  // The Close() audit: pull one 8-slot batch with dividend input still
  // pending, then Close. Every counter delta must be charged by the time
  // NextBatch returns — an operator that buffered counts and flushed them
  // in Close would show a difference between the two snapshots.
  db_->ctx()->set_batch_capacity(16);  // 16 of the 100 rows per input batch
  auto op = make_op();
  const CpuCounters before = *db_->ctx()->counters();
  ASSERT_OK(op->Open());
  TupleBatch batch(8);
  bool has_more = false;
  ASSERT_OK(op->NextBatch(&batch, &has_more));
  ASSERT_EQ(batch.size(), 8u);
  ASSERT_TRUE(has_more) << "partial drain expected input left over";
  const CpuCounters drained = *db_->ctx()->counters() - before;
  EXPECT_GT(drained.hashes, 0u);
  ASSERT_OK(op->Close());
  const CpuCounters closed = *db_->ctx()->counters() - before;
  EXPECT_EQ(closed.comparisons, drained.comparisons)
      << "Close flushed buffered Comp counts";
  EXPECT_EQ(closed.hashes, drained.hashes);
  EXPECT_EQ(closed.bit_ops, drained.bit_ops);
}

}  // namespace
}  // namespace reldiv
