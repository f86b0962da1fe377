#include "parallel/parallel_hash_division.h"

#include "common/hash.h"
#include "gtest/gtest.h"
#include "parallel/bit_vector_filter.h"
#include "parallel/network.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

TEST(InterconnectTest, CountsRemoteShipmentsOnly) {
  Interconnect net(4);
  ASSERT_OK(net.Ship(0, 0, 100));  // local, free
  ASSERT_OK(net.Ship(0, 1, 100));
  ASSERT_OK(net.Ship(2, 3, 50));
  EXPECT_EQ(net.messages(), 2u);
  EXPECT_EQ(net.bytes(), 150u);
  EXPECT_EQ(net.bytes_between(0, 1), 100u);
  EXPECT_EQ(net.bytes_between(1, 0), 0u);
  net.Reset();
  EXPECT_EQ(net.messages(), 0u);
}

TEST(InterconnectTest, BroadcastSkipsSelf) {
  Interconnect net(3);
  ASSERT_OK(net.Broadcast(1, 10));
  EXPECT_EQ(net.messages(), 2u);
  EXPECT_EQ(net.bytes(), 20u);
}

TEST(BitVectorFilterTest, NeverDropsInsertedHashes) {
  BitVectorFilter filter(256);
  for (uint64_t i = 0; i < 100; ++i) filter.InsertHash(Hash64(i));
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(filter.MayContain(Hash64(i)));
  }
}

TEST(BitVectorFilterTest, FiltersMostForeignHashes) {
  BitVectorFilter filter(4096);
  for (uint64_t i = 0; i < 64; ++i) filter.InsertHash(Hash64(i));
  size_t passed = 0;
  for (uint64_t i = 1000; i < 2000; ++i) {
    if (filter.MayContain(Hash64(i))) passed++;
  }
  EXPECT_LT(passed, 100u);  // ≤64/4096 fill → few false positives
}

TEST(BitVectorFilterTest, UnionWith) {
  BitVectorFilter a(128), b(128);
  a.InsertHash(Hash64(1));
  b.InsertHash(Hash64(2));
  a.UnionWith(b);
  EXPECT_TRUE(a.MayContain(Hash64(1)));
  EXPECT_TRUE(a.MayContain(Hash64(2)));
}

class ParallelDivisionTest : public ::testing::Test {
 protected:
  GeneratedWorkload MakeWorkload(uint64_t seed) {
    WorkloadSpec spec;
    spec.divisor_cardinality = 20;
    spec.quotient_candidates = 60;
    spec.candidate_completeness = 0.4;
    spec.nonmatching_tuples = 50;
    spec.dividend_duplicates = 15;
    spec.divisor_duplicates = 4;
    spec.seed = seed;
    return GenerateWorkload(spec);
  }
};

TEST_F(ParallelDivisionTest, QuotientPartitioningMatchesReference) {
  GeneratedWorkload w = MakeWorkload(21);
  for (size_t nodes : {1, 2, 4, 7}) {
    ParallelDivisionOptions options;
    options.num_nodes = nodes;
    options.strategy = PartitionStrategy::kQuotient;
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    EXPECT_EQ(Sorted(std::move(result.quotient)), w.expected_quotient)
        << nodes << " nodes";
  }
}

TEST_F(ParallelDivisionTest, DivisorPartitioningMatchesReference) {
  GeneratedWorkload w = MakeWorkload(22);
  for (size_t nodes : {1, 2, 4, 7}) {
    ParallelDivisionOptions options;
    options.num_nodes = nodes;
    options.strategy = PartitionStrategy::kDivisor;
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    EXPECT_EQ(Sorted(std::move(result.quotient)), w.expected_quotient)
        << nodes << " nodes";
  }
}

TEST_F(ParallelDivisionTest, DecentralizedCollectionMatchesCentral) {
  GeneratedWorkload w = MakeWorkload(28);
  ParallelDivisionOptions options;
  options.num_nodes = 4;
  options.strategy = PartitionStrategy::kDivisor;
  options.decentralized_collection = true;
  ParallelHashDivisionEngine engine(options);
  ASSERT_OK_AND_ASSIGN(
      ParallelDivisionResult result,
      engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                     w.divisor, {1}));
  EXPECT_EQ(Sorted(std::move(result.quotient)), w.expected_quotient);
  // Tagged tuples now flow into several collectors, not only node 0.
  const Interconnect& net = engine.interconnect();
  size_t collectors_receiving = 0;
  for (size_t to = 0; to < 4; ++to) {
    uint64_t in_bytes = 0;
    for (size_t from = 0; from < 4; ++from) {
      in_bytes += net.bytes_between(from, to);
    }
    if (in_bytes > 0) collectors_receiving++;
  }
  EXPECT_GE(collectors_receiving, 2u);
}

TEST_F(ParallelDivisionTest, BitVectorFilterPreservesResultAndDropsTuples) {
  GeneratedWorkload w = MakeWorkload(23);  // has 50 non-matching tuples
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    ParallelDivisionOptions options;
    options.num_nodes = 4;
    options.strategy = strategy;
    options.use_bit_vector_filter = true;
    options.bit_vector_bits = 1 << 16;  // low collision odds
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    EXPECT_EQ(Sorted(std::move(result.quotient)), w.expected_quotient);
    EXPECT_GT(result.tuples_filtered, 0u);
  }
}

TEST_F(ParallelDivisionTest, FilterReducesNetworkBytes) {
  GeneratedWorkload w = MakeWorkload(24);
  ParallelDivisionOptions base;
  base.num_nodes = 4;
  base.strategy = PartitionStrategy::kDivisor;
  uint64_t bytes_without = 0, bytes_with = 0;
  {
    ParallelHashDivisionEngine engine(base);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    bytes_without = result.network_bytes;
  }
  {
    ParallelDivisionOptions filtered = base;
    filtered.use_bit_vector_filter = true;
    filtered.bit_vector_bits = 1 << 16;
    ParallelHashDivisionEngine engine(filtered);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    // Subtract the filter broadcast itself to compare tuple traffic; the
    // point of §6 is that the dividend is the larger operand.
    bytes_with = result.network_bytes;
  }
  EXPECT_LT(bytes_with, bytes_without + (1 << 16) / 8 * 4 * 3);
}

TEST_F(ParallelDivisionTest, QuotientPartitioningReplicatesDivisor) {
  GeneratedWorkload w = MakeWorkload(25);
  ParallelDivisionOptions options;
  options.num_nodes = 4;
  options.strategy = PartitionStrategy::kQuotient;
  ParallelHashDivisionEngine engine(options);
  ASSERT_OK_AND_ASSIGN(
      ParallelDivisionResult result,
      engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                     w.divisor, {1}));
  (void)result;
  // Every ordered node pair exchanged divisor bytes during replication.
  const Interconnect& net = engine.interconnect();
  size_t pairs_with_traffic = 0;
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      if (i != j && net.bytes_between(i, j) > 0) pairs_with_traffic++;
    }
  }
  EXPECT_EQ(pairs_with_traffic, 12u);
}

TEST_F(ParallelDivisionTest, EmptyDivisorYieldsEmptyQuotient) {
  GeneratedWorkload w = MakeWorkload(26);
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    ParallelDivisionOptions options;
    options.num_nodes = 3;
    options.strategy = strategy;
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend, {},
                       {1}));
    EXPECT_TRUE(result.quotient.empty());
  }
}

// Golden §6 accounting: every case's quotient (in emitted order),
// interconnect ledger, shipping counts and per-node Table 1 counters, pinned
// to the values the engine produced before its data path moved to encoded
// exchange buffers and parallel senders. The values must not depend on the
// worker count (the suite also runs at RELDIV_THREADS=4 and 8).
struct GoldenCase {
  const char* name;
  PartitionStrategy strategy;
  bool filter;
  bool decentralized;
  bool string_quotient;
  // Expected values.
  const char* quotient;  ///< quotient values in emitted order
  uint64_t messages;
  uint64_t bytes;
  uint64_t shipped;
  uint64_t filtered;
  std::vector<uint64_t> between;  ///< bytes_between(from, to), row-major
  std::vector<std::vector<uint64_t>> node_cpu;  ///< {comp, hash, move, bit}
};

std::string RenderQuotient(const std::vector<Tuple>& quotient) {
  std::string out;
  for (const Tuple& tuple : quotient) {
    if (!out.empty()) out += ' ';
    out += tuple.value(0).ToString();
  }
  return out;
}

/// The case's actual values as a GoldenCase initializer tail, printed on a
/// mismatch so a deliberate accounting change can be re-pinned.
std::string RenderGolden(const ParallelDivisionResult& result,
                         const Interconnect& net) {
  std::string out = "\"" + RenderQuotient(result.quotient) + "\", " +
                    std::to_string(result.network_messages) + ", " +
                    std::to_string(result.network_bytes) + ", " +
                    std::to_string(result.tuples_shipped) + ", " +
                    std::to_string(result.tuples_filtered) + ",\n {";
  for (size_t from = 0; from < net.num_nodes(); ++from) {
    for (size_t to = 0; to < net.num_nodes(); ++to) {
      if (from + to > 0) out += ", ";
      out += std::to_string(net.bytes_between(from, to));
    }
  }
  out += "},\n {";
  for (size_t i = 0; i < result.node_metrics.size(); ++i) {
    const CpuCounters& c = result.node_metrics[i].cpu;
    out += std::string(i > 0 ? ", " : "") + "{" +
           std::to_string(c.comparisons) + ", " + std::to_string(c.hashes) +
           ", " + std::to_string(c.moves) + ", " + std::to_string(c.bit_ops) +
           "}";
  }
  return out + "}";
}

TEST_F(ParallelDivisionTest, GoldenAccounting) {
  constexpr size_t kNodes = 4;
  WorkloadSpec spec;
  spec.divisor_cardinality = 8;
  spec.quotient_candidates = 24;
  spec.candidate_completeness = 0.5;
  spec.nonmatching_tuples = 20;
  spec.dividend_duplicates = 6;
  spec.divisor_duplicates = 2;
  spec.seed = 29;
  const GeneratedWorkload ints = GenerateWorkload(spec);
  const GeneratedWorkload strings = WithStringQuotient(ints);

  // {name, strategy, filter, decentralized, string quotient, quotient,
  //  messages, bytes, shipped, filtered, bytes_between, node cpu}
  const std::vector<GoldenCase> cases = {
      {"quotient", PartitionStrategy::kQuotient, false, false, false,
       "8 10 11 7 5 9 3 6 2 4 1 0",
       136, 2224, 124, 0,
       {0, 280, 136, 264, 88, 0, 152, 232, 144, 128, 0, 336, 80, 288, 96, 0},
       {{40, 46, 0, 22}, {114, 116, 0, 66}, {61, 61, 0, 33},
        {133, 127, 0, 72}}},
      {"quotient+filter", PartitionStrategy::kQuotient, true, false, false,
       "8 10 11 7 5 9 3 6 2 4 1 0",
       117, 1920, 105, 20,
       {0, 248, 136, 232, 72, 0, 152, 136, 112, 96, 0, 320, 64, 272, 80, 0},
       {{39, 42, 0, 22}, {112, 110, 0, 66}, {60, 60, 0, 33},
        {132, 118, 0, 72}}},
      {"divisor", PartitionStrategy::kDivisor, false, false, false,
       "10 6 3 2 4 5 1 11 7 8 0 9",
       172, 2680, 115, 0,
       {0, 80, 96, 504, 368, 0, 104, 352, 288, 128, 0, 432, 192, 88, 48, 0},
       {{22, 49, 0, 58}, {22, 40, 0, 52}, {253, 225, 0, 155}}},
      {"divisor+filter", PartitionStrategy::kDivisor, true, false, false,
       "10 6 3 2 4 5 1 11 7 8 0 9",
       171, 3240, 102, 20,
       {0, 96, 160, 568, 368, 0, 152, 416, 336, 160, 0, 480, 256, 152, 96, 0},
       {{22, 41, 0, 58}, {20, 37, 0, 52}, {250, 222, 0, 155}}},
      {"divisor+decentralized", PartitionStrategy::kDivisor, false, true, false,
       "8 10 11 7 5 9 6 3 2 4 1 0",
       156, 2424, 115, 0,
       {0, 80, 96, 504, 112, 0, 152, 464, 48, 208, 0, 528, 16, 136, 80, 0},
       {{22, 49, 0, 58}, {22, 40, 0, 52}, {253, 225, 0, 155}}},
      {"divisor+filter+decentralized", PartitionStrategy::kDivisor, true, true,
       false,
       "8 10 11 7 5 9 6 3 2 4 1 0",
       155, 2984, 102, 20,
       {0, 96, 160, 568, 112, 0, 200, 528, 96, 240, 0, 576, 80, 200, 128, 0},
       {{22, 41, 0, 58}, {20, 37, 0, 52}, {250, 222, 0, 155}}},
      {"string quotient", PartitionStrategy::kQuotient, true, false, true,
       "q7 q2.. q6...... q1. q4.... q8. q11.... q9.. q0 q5..... q3... q10...",
       121, 2117, 109, 20,
       {0, 110, 258, 170, 258, 0, 97, 174, 137, 185, 0, 177, 229, 191, 131, 0},
       {{94, 96, 0, 59}, {78, 74, 0, 46}, {85, 82, 0, 46}, {81, 78, 0, 42}}},
      {"string divisor+decentralized", PartitionStrategy::kDivisor, true, true,
       true,
       "q7 q2.. q6...... q1. q4.... q8. q11.... q9.. q0 q5..... q3... q10...",
       159, 3192, 102, 20,
       {0, 93, 174, 582, 168, 0, 223, 526, 167, 218, 0, 573, 114, 191, 163, 0},
       {{22, 41, 0, 58}, {19, 37, 0, 52}, {245, 222, 0, 155}}},
  };

  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    const GeneratedWorkload& w = c.string_quotient ? strings : ints;
    ParallelDivisionOptions options;
    options.num_nodes = kNodes;
    options.strategy = c.strategy;
    options.use_bit_vector_filter = c.filter;
    options.bit_vector_bits = 512;  // small enough for false positives
    options.decentralized_collection = c.decentralized;
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    const Interconnect& net = engine.interconnect();
    SCOPED_TRACE("actual: " + RenderGolden(result, net));
    EXPECT_EQ(Sorted(result.quotient), w.expected_quotient);
    EXPECT_EQ(RenderQuotient(result.quotient), c.quotient);
    EXPECT_EQ(result.network_messages, c.messages);
    EXPECT_EQ(result.network_bytes, c.bytes);
    EXPECT_EQ(result.tuples_shipped, c.shipped);
    EXPECT_EQ(result.tuples_filtered, c.filtered);
    ASSERT_EQ(c.between.size(), kNodes * kNodes);
    for (size_t from = 0; from < kNodes; ++from) {
      for (size_t to = 0; to < kNodes; ++to) {
        EXPECT_EQ(net.bytes_between(from, to), c.between[from * kNodes + to])
            << from << " -> " << to;
      }
    }
    ASSERT_EQ(result.node_metrics.size(), c.node_cpu.size());
    for (size_t i = 0; i < c.node_cpu.size(); ++i) {
      const CpuCounters& cpu = result.node_metrics[i].cpu;
      EXPECT_EQ((std::vector<uint64_t>{cpu.comparisons, cpu.hashes,
                                       cpu.moves, cpu.bit_ops}),
                c.node_cpu[i])
          << "node " << result.node_metrics[i].node_id;
    }
  }
}

TEST_F(ParallelDivisionTest, RejectsArityMismatch) {
  GeneratedWorkload w = MakeWorkload(27);
  ParallelDivisionOptions options;
  ParallelHashDivisionEngine engine(options);
  auto result = engine.Execute(w.dividend_schema, w.divisor_schema,
                               w.dividend, w.divisor, {0, 1});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace reldiv
