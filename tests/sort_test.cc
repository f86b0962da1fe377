#include "exec/sort.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "division/division.h"
#include "exec/database.h"
#include "exec/mem_source.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

// ---- Allocation counting: every route into the global heap (the idiom of
// tests/telemetry_test.cc). ----

std::atomic<uint64_t> g_heap_allocs{0};

uint64_t HeapAllocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

}  // namespace
}  // namespace reldiv

void* operator new(std::size_t size) {
  reldiv::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  reldiv::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// GCC pairs these frees against the library operator new it can still see;
// with the replacement news above (malloc-backed) they do match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace reldiv {
namespace {

class SortTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
  }

  Schema TwoCol() {
    return Schema{Field{"a", ValueType::kInt64},
                  Field{"b", ValueType::kInt64}};
  }

  std::vector<Tuple> RandomTuples(size_t n, uint64_t seed,
                                  int64_t key_range = 1000000) {
    Rng rng(seed);
    std::vector<Tuple> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(T(rng.UniformInt(0, key_range),
                      static_cast<int64_t>(i)));
    }
    return out;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SortTest, InMemorySortNoIo) {
  std::vector<Tuple> input = RandomTuples(100, 1);
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), 100u);
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LE(output[i - 1].value(0).int64(), output[i].value(0).int64());
  }
  EXPECT_EQ(sorter.initial_runs(), 0u);
  EXPECT_EQ(db_->disk()->stats().transfers, 0u);  // fits in sort space
}

TEST_F(SortTest, ExternalSortSpillsRunsAndMerges) {
  // Shrink the sort space so a modest input goes external.
  db_->ctx()->set_sort_space_bytes(4 * 1024);
  std::vector<Tuple> input = RandomTuples(5000, 2);
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), 5000u);
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LE(output[i - 1].value(0).int64(), output[i].value(0).int64());
  }
  EXPECT_GT(sorter.initial_runs(), 1u);
  EXPECT_GT(db_->disk()->stats().transfers, 0u);
  // 1 KB transfers for sort runs (§5.1).
  EXPECT_EQ(db_->disk()->stats().sectors_transferred,
            db_->disk()->stats().transfers);
}

TEST_F(SortTest, ExternalSortWithIntermediateMergePasses) {
  // Sort space so small that the fan-in (space / 1 KB blocks) forces
  // intermediate merges before the final on-demand merge.
  db_->ctx()->set_sort_space_bytes(3 * 1024);  // fan-in 3
  std::vector<Tuple> input = RandomTuples(4000, 3);
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), 4000u);
  EXPECT_GT(sorter.intermediate_merges(), 0u);
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LE(output[i - 1].value(0).int64(), output[i].value(0).int64());
  }
}

TEST_F(SortTest, StableEnoughDuplicateKeysAllSurvivePlainSort) {
  std::vector<Tuple> input = {T(5, 0), T(5, 1), T(1, 2), T(5, 3), T(1, 4)};
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output.size(), 5u);
}

TEST_F(SortTest, DuplicateEliminationInMemory) {
  std::vector<Tuple> input = {T(3, 3), T(1, 1), T(3, 3), T(2, 2), T(1, 1)};
  SortSpec spec;
  spec.keys = {0, 1};
  spec.collapse_equal_keys = true;
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output, (std::vector<Tuple>{T(1, 1), T(2, 2), T(3, 3)}));
}

TEST_F(SortTest, DuplicateEliminationExternalNoRunContainsDuplicates) {
  db_->ctx()->set_sort_space_bytes(4 * 1024);
  // Many duplicates over a small key domain.
  Rng rng(4);
  std::vector<Tuple> input;
  for (int i = 0; i < 6000; ++i) {
    const int64_t k = rng.UniformInt(0, 99);
    input.push_back(T(k, k));
  }
  SortSpec spec;
  spec.keys = {0, 1};
  spec.collapse_equal_keys = true;
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output.size(), 100u);
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LT(output[i - 1].value(0).int64(), output[i].value(0).int64());
  }
}

TEST_F(SortTest, AggregationDuringSortingCountsGroups) {
  // (a, b) → (a, 1), sum counts on equal a: aggregation during sorting.
  Rng rng(5);
  std::vector<Tuple> input;
  std::map<int64_t, int64_t> expected;
  for (int i = 0; i < 3000; ++i) {
    const int64_t k = rng.UniformInt(0, 49);
    input.push_back(T(k, static_cast<int64_t>(i)));
    expected[k]++;
  }
  db_->ctx()->set_sort_space_bytes(4 * 1024);  // force external path
  SortSpec spec;
  spec.group_count = std::vector<size_t>{0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), expected.size());
  for (const Tuple& t : output) {
    EXPECT_EQ(t.value(1).int64(), expected[t.value(0).int64()]);
  }
}

TEST_F(SortTest, EmptyInput) {
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(
      db_->ctx(), std::make_unique<MemSourceOperator>(TwoCol(),
                                                      std::vector<Tuple>{}),
      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_TRUE(output.empty());
}

TEST_F(SortTest, SingleTuple) {
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(
                          TwoCol(), std::vector<Tuple>{T(9, 9)}),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output, std::vector<Tuple>{T(9, 9)});
}

TEST_F(SortTest, MultiKeyMajorMinorOrder) {
  std::vector<Tuple> input = {T(2, 1), T(1, 2), T(2, 0), T(1, 1)};
  SortSpec spec;
  spec.keys = {0, 1};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output,
            (std::vector<Tuple>{T(1, 1), T(1, 2), T(2, 0), T(2, 1)}));
}

TEST_F(SortTest, ComparisonsAreCounted) {
  std::vector<Tuple> input = RandomTuples(256, 6);
  db_->ResetStats();
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  (void)output;
  // Quicksort of 256 tuples: at least n log2 n / 2 comparisons.
  EXPECT_GT(db_->counters()->comparisons, 256u * 8 / 2);
}

TEST_F(SortTest, ExternalSortOfStringsRoundTrips) {
  db_->ctx()->set_sort_space_bytes(2 * 1024);
  Schema schema{Field{"s", ValueType::kString}};
  Rng rng(7);
  std::vector<Tuple> input;
  for (int i = 0; i < 800; ++i) {
    std::string s(1 + rng.Uniform(20), 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.Uniform(26));
    input.push_back(Tuple{Value::String(s)});
  }
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(schema, input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), input.size());
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LE(output[i - 1].value(0).string_value(),
              output[i].value(0).string_value());
  }
}

// ---- Golden accounting for the sort family. Every value below was captured
// from the boxed-tuple sort that preceded the encoded-row one, and each case
// must reproduce it at dop 1, 4 and 8: the output order (row count plus an
// order-sensitive digest), Comp, Move, the disk's read and write transfers
// and seeks, and — for the bare sorts — initial_runs() and
// intermediate_merges(). ----

/// Order-sensitive digest of an operator's output.
uint64_t OrderDigest(const std::vector<Tuple>& rows) {
  uint64_t h = 0;
  for (const Tuple& t : rows) h = HashCombine(h, t.Hash());
  return h;
}

/// Aggregation during sorting on `group`: (group..., count) rows.
SortSpec GroupCountSpec(std::vector<size_t> group) {
  SortSpec spec;
  spec.group_count = std::move(group);
  return spec;
}

struct SortGoldenInput {
  Schema schema;
  std::vector<Tuple> rows;
};

SortGoldenInput GoldenInput(const std::string& kind) {
  Rng rng(HashBytes(kind.data(), kind.size()));
  SortGoldenInput in;
  const int n = 3000;
  if (kind == "int1" || kind == "dedup" || kind == "count") {
    in.schema = Schema{Field{"a", ValueType::kInt64},
                       Field{"b", ValueType::kInt64}};
    for (int i = 0; i < n; ++i) {
      const int64_t a = kind == "int1" ? rng.UniformInt(-500000, 500000)
                                       : rng.UniformInt(0, 99);
      const int64_t b = kind == "dedup" ? a % 7 : static_cast<int64_t>(i);
      in.rows.push_back(T(a, b));
    }
  } else if (kind == "int2") {
    in.schema = Schema{Field{"a", ValueType::kInt64},
                       Field{"b", ValueType::kInt64},
                       Field{"c", ValueType::kInt64}};
    for (int i = 0; i < n; ++i) {
      in.rows.push_back(T(rng.UniformInt(0, 49), rng.UniformInt(-999, 999),
                          static_cast<int64_t>(i)));
    }
  } else if (kind == "int3") {
    in.schema = Schema{Field{"a", ValueType::kInt64},
                       Field{"b", ValueType::kInt64},
                       Field{"c", ValueType::kInt64},
                       Field{"d", ValueType::kInt64}};
    for (int i = 0; i < n; ++i) {
      in.rows.push_back(Tuple{Value::Int64(rng.UniformInt(0, 9)),
                              Value::Int64(rng.UniformInt(0, 9)),
                              Value::Int64(rng.UniformInt(-99, 99)),
                              Value::Int64(i)});
    }
  } else if (kind == "string" || kind == "string+int") {
    // Three 8-byte prefixes shared by most keys, so normalized codes tie
    // and the full comparison decides; a few keys shorter than 8 bytes.
    static const char* const kPrefixes[] = {"database", "datapool", "d"};
    in.schema = Schema{Field{"s", ValueType::kString},
                       Field{"i", ValueType::kInt64}};
    for (int i = 0; i < n; ++i) {
      std::string s = kPrefixes[rng.Uniform(3)];
      const size_t suffix = rng.Uniform(4);
      for (size_t j = 0; j < suffix; ++j) {
        s.push_back(static_cast<char>('a' + rng.Uniform(3)));
      }
      const int64_t second =
          kind == "string" ? static_cast<int64_t>(i) : rng.UniformInt(0, 20);
      in.rows.push_back(Tuple{Value::String(s), Value::Int64(second)});
    }
  } else if (kind == "double") {
    in.schema = Schema{Field{"x", ValueType::kDouble},
                       Field{"i", ValueType::kInt64}};
    for (int i = 0; i < n; ++i) {
      double x = static_cast<double>(rng.UniformInt(-500, 500)) / 10.0;
      if (i % 97 == 0) x = -0.0;
      in.rows.push_back(Tuple{Value::Double(x), Value::Int64(i)});
    }
  }
  return in;
}

SortSpec GoldenSpec(const std::string& kind) {
  SortSpec spec;
  if (kind == "int2" || kind == "string+int") {
    spec.keys = {0, 1};
  } else if (kind == "int3") {
    spec.keys = {0, 1, 2};
  } else if (kind == "dedup") {
    spec.keys = {0, 1};
    spec.collapse_equal_keys = true;
  } else if (kind == "count") {
    return GroupCountSpec({0});
  } else {
    spec.keys = {0};
  }
  return spec;
}

/// "rows digest comp moves reads writes seeks" for a finished run.
std::string RenderAccounting(const std::vector<Tuple>& rows, Database* db) {
  const CpuCounters& cpu = *db->counters();
  const DiskStats& disk = db->disk()->stats();
  return std::to_string(rows.size()) + " " +
         std::to_string(OrderDigest(rows)) + " " +
         std::to_string(cpu.comparisons) + " " + std::to_string(cpu.moves) +
         " " + std::to_string(disk.read_transfers) + " " +
         std::to_string(disk.write_transfers) + " " +
         std::to_string(disk.seeks);
}

struct SortGoldenCase {
  const char* kind;
  size_t sort_space;  ///< 1 MB: in memory; 32 KB: external; 3 KB: merges
  const char* expected;  ///< RenderAccounting + " runs merges"
};

constexpr size_t kInMemory = 1 << 20;
constexpr size_t kExternal = 32 * 1024;
constexpr size_t kMerges = 3 * 1024;

const SortGoldenCase kSortGoldenCases[] = {
    {"int1", kInMemory, "3000 5397419705843794861 40875 0 0 0 0 0 0"},
    {"int1", kExternal, "3000 14023096372296855620 45402 5 62 62 67 6 0"},
    {"int1", kMerges, "3000 14370319487916509017 42893 22 289 289 459 55 26"},
    {"int2", kInMemory, "3000 244979964630426269 41026 0 0 0 0 0 0"},
    {"int2", kExternal, "3000 5216902763333813655 44972 8 86 86 93 7 0"},
    {"int2", kMerges, "3000 13712354561143408692 41985 38 429 429 672 70 34"},
    {"int3", kInMemory, "3000 5605312741185447267 40418 0 0 0 0 0 0"},
    {"int3", kExternal, "3000 15996557303935599379 50246 11 113 113 122 9 0"},
    {"int3", kMerges, "3000 5903949424106987410 42020 53 566 566 872 86 42"},
    {"string", kInMemory, "3000 14148845192711136288 32615 0 0 0 0 0 0"},
    {"string", kExternal, "3000 13509162061177408365 39543 7 70 70 75 6 0"},
    {"string", kMerges, "3000 8950915691395994158 41310 29 357 357 563 62 30"},
    {"string+int", kExternal, "3000 12427466055997340073 43704 7 70 70 75 6 0"},
    {"string+int", kMerges,
     "3000 12427466055997340073 42135 29 360 360 573 62 30"},
    {"double", kInMemory, "3000 11159639447276177479 37875 0 0 0 0 0 0"},
    {"double", kExternal, "3000 5949809573478879966 44173 5 62 62 68 6 0"},
    {"double", kMerges, "3000 978949451896742209 42990 22 289 289 458 55 26"},
    {"dedup", kInMemory, "100 6424742749209500706 35557 0 0 0 0 0 0"},
    {"dedup", kExternal, "100 6424742749209500706 35718 1 11 11 17 6 0"},
    {"dedup", kMerges, "100 6424742749209500706 36544 8 107 107 194 55 26"},
    {"count", kInMemory, "100 17086264868702866927 36405 0 0 0 0 0 0"},
    {"count", kExternal, "100 17086264868702866927 35299 1 12 12 18 6 0"},
    {"count", kMerges, "100 17086264868702866927 36735 8 107 107 193 55 26"},
};

TEST_F(SortTest, GoldenAccountingAtEveryDop) {
  for (const SortGoldenCase& c : kSortGoldenCases) {
    const std::string name =
        std::string(c.kind) + "/" + std::to_string(c.sort_space);
    SCOPED_TRACE(name);
    const SortGoldenInput input = GoldenInput(c.kind);
    for (size_t dop : {1, 4, 8}) {
      SCOPED_TRACE("dop " + std::to_string(dop));
      db_->ctx()->set_dop(dop);
      db_->ctx()->set_sort_space_bytes(c.sort_space);
      db_->ResetStats();
      db_->ctx()->ResetMoveAccumulator();
      SortOperator sorter(
          db_->ctx(),
          std::make_unique<MemSourceOperator>(input.schema, input.rows),
          GoldenSpec(c.kind));
      ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
      const std::string actual =
          RenderAccounting(output, db_.get()) + " " +
          std::to_string(sorter.initial_runs()) + " " +
          std::to_string(sorter.intermediate_merges());
      EXPECT_EQ(actual, c.expected);
    }
  }
}

enum class GoldenWorkload {
  kClean,    ///< R ⊆ Q × S, no duplicates
  kForeign,  ///< plus dividend tuples whose divisor id is ≥ |S|
  kDirty,    ///< plus duplicates in both inputs
};

struct PlanGoldenCase {
  const char* name;
  DivisionAlgorithm algorithm;
  GoldenWorkload workload;
  bool eliminate_duplicates;
  bool count_distinct;
  /// RenderAccounting at dop 1, 4 and 8. Only the seeks may differ: a
  /// plan's spilling sort holds up to dop chunks before writing their runs,
  /// so where its input reads runs lazily (the counting sort above the
  /// merge semi-join) the dop moves those reads between the run writes.
  const char* expected[3];
};

const PlanGoldenCase kPlanGoldenCases[] = {
    {"naive", DivisionAlgorithm::kNaive, GoldenWorkload::kDirty, false, false,
     
     {"80 3463931999603289470 38980 8 104 104 150",
      "80 3463931999603289470 38980 8 104 104 150",
      "80 3463931999603289470 38980 8 104 104 150"}},
    {"sort-agg", DivisionAlgorithm::kSortAggregate, GoldenWorkload::kClean,
     false, false, 
     {"80 3463931999603289470 20169 3 58 58 94",
      "80 3463931999603289470 20169 3 58 58 94",
      "80 3463931999603289470 20169 3 58 58 94"}},
    {"sort-agg+join", DivisionAlgorithm::kSortAggregateWithJoin,
     GoldenWorkload::kClean, false, false, 
     {"80 3463931999603289470 42700 12 151 151 228",
      "80 3463931999603289470 42700 12 151 151 219",
      "80 3463931999603289470 42700 12 151 151 217"}},
    // Foreign dividend tuples sort after every divisor value: the semi-join
    // stops pulling the dividend once the divisor is exhausted, so any
    // read-ahead in the sorted dividend would add merge comparisons here.
    {"sort-agg+join foreign", DivisionAlgorithm::kSortAggregateWithJoin,
     GoldenWorkload::kForeign, false, false, 
     {"80 3463931999603289470 48477 13 159 165 249",
      "80 3463931999603289470 48477 13 159 165 237",
      "80 3463931999603289470 48477 13 159 165 236"}},
    {"sort-agg+join dedup", DivisionAlgorithm::kSortAggregateWithJoin,
     GoldenWorkload::kDirty, true, false, 
     {"80 3463931999603289470 82864 22 263 268 395",
      "80 3463931999603289470 82864 22 263 268 386",
      "80 3463931999603289470 82864 22 263 268 385"}},
    {"count_distinct", DivisionAlgorithm::kSortAggregateWithJoin,
     GoldenWorkload::kDirty, false, true, 
     {"80 3463931999603289470 59026 16 189 194 276",
      "80 3463931999603289470 59026 16 189 194 269",
      "80 3463931999603289470 59026 16 189 194 268"}},
};

TEST_F(SortTest, DivisionPlanGoldenAccountingAtEveryDop) {
  WorkloadSpec clean;
  clean.divisor_cardinality = 12;
  clean.quotient_candidates = 160;
  clean.candidate_completeness = 0.5;
  clean.seed = 15;
  WorkloadSpec foreign = clean;
  foreign.nonmatching_tuples = 300;
  WorkloadSpec dirty = foreign;
  dirty.dividend_duplicates = 80;
  dirty.divisor_duplicates = 3;
  const GeneratedWorkload workloads[] = {GenerateWorkload(clean),
                                         GenerateWorkload(foreign),
                                         GenerateWorkload(dirty)};
  Relation dividend[3];
  Relation divisor[3];
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(LoadWorkload(db_.get(), workloads[i], "w" + std::to_string(i),
                           &dividend[i], &divisor[i]));
  }
  for (const PlanGoldenCase& c : kPlanGoldenCases) {
    SCOPED_TRACE(c.name);
    const size_t w = static_cast<size_t>(c.workload);
    for (size_t d = 0; d < 3; ++d) {
      const size_t dop = d == 0 ? 1 : 4 * d;
      SCOPED_TRACE("dop " + std::to_string(dop));
      db_->ctx()->set_dop(dop);
      db_->ctx()->set_sort_space_bytes(4 * 1024);
      DivisionOptions options;
      options.eliminate_duplicates = c.eliminate_duplicates;
      options.count_distinct = c.count_distinct;
      db_->ResetStats();
      db_->ctx()->ResetMoveAccumulator();
      ASSERT_OK_AND_ASSIGN(
          std::unique_ptr<Operator> plan,
          MakeDivisionPlan(db_->ctx(),
                           DivisionQuery{dividend[w], divisor[w],
                                         {"divisor_id"}},
                           c.algorithm, options));
      ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(plan.get()));
      EXPECT_EQ(Sorted(output), workloads[w].expected_quotient);
      const std::string actual = RenderAccounting(output, db_.get());
      EXPECT_EQ(actual, c.expected[d]);
    }
  }
}

TEST_F(SortTest, ExternalSortAllocatesPerRunNotPerRow) {
  // ROADMAP item 2's "allocations per dividend tuple" for the sort: rows
  // are encoded once into reused chunk arenas, runs are copied as bytes,
  // and the merge decodes into the caller's tuple, so an external sort
  // allocates per run and per chunk window, never per row.
  constexpr int64_t kRows = 50000;
  ASSERT_OK_AND_ASSIGN(Relation relation,
                       db_->CreateTable("alloc", TwoCol()));
  Rng rng(11);
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_OK(db_->Insert("alloc", T(rng.UniformInt(0, 1000000), i)));
  }
  db_->ctx()->set_sort_space_bytes(64 * 1024);
  for (size_t dop : {1, 4, 8}) {
    SCOPED_TRACE("dop " + std::to_string(dop));
    db_->ctx()->set_dop(dop);
    SortSpec spec;
    spec.keys = {0};
    SortOperator sorter(db_->ctx(),
                        std::make_unique<ScanOperator>(db_->ctx(), relation),
                        spec);
    Tuple tuple;
    int64_t rows = 0;
    const uint64_t before = HeapAllocs();
    ASSERT_OK(sorter.Open());
    while (true) {
      bool has = false;
      ASSERT_OK(sorter.Next(&tuple, &has));
      if (!has) break;
      rows++;
    }
    const uint64_t allocs = HeapAllocs() - before;
    ASSERT_OK(sorter.Close());
    EXPECT_EQ(rows, kRows);
    EXPECT_GT(sorter.initial_runs(), 10u);
    EXPECT_LT(static_cast<double>(allocs) / kRows, 0.1)
        << allocs << " allocations for " << kRows << " rows in "
        << sorter.initial_runs() << " runs";
  }
}

}  // namespace
}  // namespace reldiv
