#include "division/division.h"

#include <chrono>

#include "common/metric_names.h"
#include "division/fallback_division.h"
#include "division/hash_agg_division.h"
#include "division/hash_division.h"
#include "division/naive_division.h"
#include "division/partitioned_hash_division.h"
#include "division/sort_agg_division.h"
#include "exec/contract_check.h"
#include "exec/materialize.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "obs/profiled_operator.h"
#include "obs/telemetry.h"
#include "storage/record_file.h"

namespace reldiv {

const char* DivisionAlgorithmName(DivisionAlgorithm algorithm) {
  switch (algorithm) {
    case DivisionAlgorithm::kNaive:
      return "naive-division";
    case DivisionAlgorithm::kSortAggregate:
      return "sort-aggregation";
    case DivisionAlgorithm::kSortAggregateWithJoin:
      return "sort-aggregation+join";
    case DivisionAlgorithm::kHashAggregate:
      return "hash-aggregation";
    case DivisionAlgorithm::kHashAggregateWithJoin:
      return "hash-aggregation+join";
    case DivisionAlgorithm::kHashDivision:
      return "hash-division";
    case DivisionAlgorithm::kHashDivisionPartitioned:
      return "hash-division-partitioned";
  }
  return "unknown";
}

Result<ResolvedDivision> ResolveDivision(const DivisionQuery& query) {
  if (query.dividend.store == nullptr || query.divisor.store == nullptr) {
    return Status::InvalidArgument("division inputs must be stored relations");
  }
  ResolvedDivision resolved;
  resolved.dividend = query.dividend;
  resolved.divisor = query.divisor;
  RELDIV_ASSIGN_OR_RETURN(
      resolved.match_attrs,
      query.dividend.schema.FieldIndices(query.match_attrs));
  if (resolved.match_attrs.size() != query.divisor.schema.num_fields()) {
    return Status::InvalidArgument(
        "match attribute count (" +
        std::to_string(resolved.match_attrs.size()) +
        ") must equal the divisor arity (" +
        std::to_string(query.divisor.schema.num_fields()) + ")");
  }
  for (size_t i = 0; i < resolved.match_attrs.size(); ++i) {
    const Field& dividend_field =
        query.dividend.schema.field(resolved.match_attrs[i]);
    const Field& divisor_field = query.divisor.schema.field(i);
    if (dividend_field.type != divisor_field.type) {
      return Status::InvalidArgument(
          "type mismatch between dividend '" + dividend_field.name +
          "' and divisor '" + divisor_field.name + "'");
    }
  }
  resolved.quotient_attrs =
      query.dividend.schema.ComplementIndices(resolved.match_attrs);
  if (resolved.quotient_attrs.empty()) {
    return Status::InvalidArgument(
        "division without quotient attributes (all dividend columns are "
        "matched against the divisor)");
  }
  resolved.quotient_schema =
      query.dividend.schema.Project(resolved.quotient_attrs);
  return resolved;
}

namespace {

/// Materializes DISTINCT(input) into a fresh temporary record file using a
/// sort with duplicate elimination.
Result<std::unique_ptr<RecordStore>> MaterializeDistinct(
    ExecContext* ctx, const Relation& input, const char* label) {
  SortSpec spec;
  spec.keys.resize(input.schema.num_fields());
  for (size_t i = 0; i < spec.keys.size(); ++i) spec.keys[i] = i;
  spec.collapse_equal_keys = true;
  std::unique_ptr<Operator> sorter = std::make_unique<SortOperator>(
      ctx, std::make_unique<ScanOperator>(ctx, input), std::move(spec));
  sorter = MaybeProfile(ctx, std::move(sorter), label);
  auto store = std::make_unique<RecordFile>(ctx->disk(),
                                            ctx->buffer_manager(), label);
  RELDIV_ASSIGN_OR_RETURN(
      uint64_t written,
      Materialize(sorter.get(), store.get(), ctx->batch_capacity()));
  (void)written;
  // The pre-pass ran to completion; seal its metrics tree so the main plan
  // does not adopt it as an operator child.
  if (ctx->profiling()) ctx->profile()->SealRoots();
  return std::unique_ptr<RecordStore>(std::move(store));
}

/// All dividend columns in (quotient major, divisor minor) order — the naive
/// algorithm's dividend sort key.
std::vector<size_t> NaiveDividendSortKeys(const ResolvedDivision& resolved) {
  std::vector<size_t> keys = resolved.quotient_attrs;
  keys.insert(keys.end(), resolved.match_attrs.begin(),
              resolved.match_attrs.end());
  return keys;
}

}  // namespace

Result<std::unique_ptr<Operator>> MakeDivisionPlan(
    ExecContext* ctx, const DivisionQuery& query, DivisionAlgorithm algorithm,
    const DivisionOptions& options) {
  RELDIV_ASSIGN_OR_RETURN(ResolvedDivision resolved, ResolveDivision(query));

  // The aggregation strategies require duplicate-free inputs; pre-process
  // them on request. Naive division eliminates duplicates in its sorts and
  // hash-division is natively insensitive to duplicates, so neither needs
  // this (§3.3).
  std::vector<std::unique_ptr<RecordStore>> owned;
  const bool aggregation_family =
      algorithm == DivisionAlgorithm::kSortAggregate ||
      algorithm == DivisionAlgorithm::kSortAggregateWithJoin ||
      algorithm == DivisionAlgorithm::kHashAggregate ||
      algorithm == DivisionAlgorithm::kHashAggregateWithJoin;
  if (options.eliminate_duplicates && aggregation_family) {
    RELDIV_ASSIGN_OR_RETURN(
        std::unique_ptr<RecordStore> distinct_dividend,
        MaterializeDistinct(ctx, resolved.dividend, "distinct-dividend"));
    RELDIV_ASSIGN_OR_RETURN(
        std::unique_ptr<RecordStore> distinct_divisor,
        MaterializeDistinct(ctx, resolved.divisor, "distinct-divisor"));
    resolved.dividend.store = distinct_dividend.get();
    resolved.divisor.store = distinct_divisor.get();
    owned.push_back(std::move(distinct_dividend));
    owned.push_back(std::move(distinct_divisor));
  }

  std::unique_ptr<Operator> plan;
  switch (algorithm) {
    case DivisionAlgorithm::kNaive: {
      // Sort the dividend on (quotient attrs major, divisor attrs minor) and
      // the divisor on all attributes, eliminating duplicates during the
      // initial sort phase (§2.2 aside).
      SortSpec dividend_sort;
      dividend_sort.keys = NaiveDividendSortKeys(resolved);
      dividend_sort.collapse_equal_keys = true;
      auto sorted_dividend = MaybeProfile(
          ctx,
          std::make_unique<SortOperator>(
              ctx,
              MaybeProfile(ctx,
                           std::make_unique<ScanOperator>(ctx,
                                                          resolved.dividend),
                           "scan(dividend)"),
              std::move(dividend_sort)),
          "sort(dividend)");

      SortSpec divisor_sort;
      divisor_sort.keys.resize(resolved.divisor.schema.num_fields());
      for (size_t i = 0; i < divisor_sort.keys.size(); ++i) {
        divisor_sort.keys[i] = i;
      }
      divisor_sort.collapse_equal_keys = true;
      // The divisor subtree is a sibling of the finished dividend subtree;
      // the mark keeps its wrappers from adopting the dividend's tree.
      const size_t divisor_mark = ProfileMark(ctx);
      auto sorted_divisor = MaybeProfile(
          ctx,
          std::make_unique<SortOperator>(
              ctx,
              MaybeProfile(ctx,
                           std::make_unique<ScanOperator>(ctx,
                                                          resolved.divisor),
                           "scan(divisor)", divisor_mark),
              std::move(divisor_sort)),
          "sort(divisor)", divisor_mark);

      plan = std::make_unique<NaiveDivisionOperator>(
          ctx, std::move(sorted_dividend), std::move(sorted_divisor),
          resolved.match_attrs, resolved.quotient_attrs);
      break;
    }
    case DivisionAlgorithm::kSortAggregate:
    case DivisionAlgorithm::kSortAggregateWithJoin: {
      RELDIV_ASSIGN_OR_RETURN(
          plan, MakeSortAggregationDivisionPlan(
                    ctx, resolved,
                    algorithm == DivisionAlgorithm::kSortAggregateWithJoin,
                    options));
      break;
    }
    case DivisionAlgorithm::kHashAggregate:
    case DivisionAlgorithm::kHashAggregateWithJoin: {
      RELDIV_ASSIGN_OR_RETURN(
          plan, MakeHashAggregationDivisionPlan(
                    ctx, resolved,
                    algorithm == DivisionAlgorithm::kHashAggregateWithJoin,
                    options));
      break;
    }
    case DivisionAlgorithm::kHashDivision: {
      if (options.overflow_fallback) {
        // The fallback operator builds its own scans (it may need to build
        // them twice — once per attempt), so it bypasses the per-input
        // profiling wrappers; its own node still joins the metrics tree.
        plan = std::make_unique<FallbackDivisionOperator>(ctx, resolved,
                                                          options);
        break;
      }
      DivisionOptions tuned = options;
      if (tuned.expected_divisor_cardinality == 0) {
        tuned.expected_divisor_cardinality =
            resolved.divisor.store->num_records();
      }
      // Build the input wrappers as sequenced statements: the metrics tree
      // relies on creation order, which function arguments do not guarantee.
      auto dividend_scan = MaybeProfile(
          ctx, std::make_unique<ScanOperator>(ctx, resolved.dividend),
          "scan(dividend)");
      const size_t divisor_mark = ProfileMark(ctx);
      auto divisor_scan = MaybeProfile(
          ctx, std::make_unique<ScanOperator>(ctx, resolved.divisor),
          "scan(divisor)", divisor_mark);
      plan = std::make_unique<HashDivisionOperator>(
          ctx, std::move(dividend_scan), std::move(divisor_scan),
          resolved.match_attrs, resolved.quotient_attrs, tuned);
      break;
    }
    case DivisionAlgorithm::kHashDivisionPartitioned: {
      plan = std::make_unique<PartitionedHashDivisionOperator>(ctx, resolved,
                                                               options);
      break;
    }
  }
  if (plan == nullptr) {
    return Status::NotSupported("unknown division algorithm");
  }
  if (!owned.empty()) {
    plan = std::make_unique<OwningOperator>(std::move(plan),
                                            std::move(owned));
  }
  // Observability root wrapper: adopts every metrics node registered while
  // building this plan, then the finished tree is sealed so a later plan on
  // the same context becomes a sibling root.
  plan = MaybeProfile(ctx, std::move(plan), DivisionAlgorithmName(algorithm));
  if (ctx->profiling()) ctx->profile()->SealRoots();
  // Debug builds of a plan can run under runtime protocol validation; the
  // wrapper is a no-op pass-through unless ctx->contract_checks() is set.
  return MaybeContractCheck(ctx, std::move(plan),
                            DivisionAlgorithmName(algorithm));
}

Result<std::vector<Tuple>> Divide(ExecContext* ctx,
                                  const DivisionQuery& query,
                                  DivisionAlgorithm algorithm,
                                  const DivisionOptions& options) {
  // End-to-end wall time per algorithm feeds the process-wide latency
  // percentiles (clock reads only under Telemetry::sampling()).
  const bool sample = Telemetry::sampling();
  std::chrono::steady_clock::time_point start;
  if (sample) start = std::chrono::steady_clock::now();
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> plan,
                          MakeDivisionPlan(ctx, query, algorithm, options));
  Result<std::vector<Tuple>> result =
      CollectAll(plan.get(), ctx->batch_capacity());
  if (sample && result.ok()) {
    Histogram* wall = MetricRegistry::Global().FindOrCreateHistogram(
        metric_names::kQueryWallMicros, "algorithm",
        DivisionAlgorithmName(algorithm));
    wall->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  return result;
}

}  // namespace reldiv
