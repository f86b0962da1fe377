#include "division/sort_agg_division.h"

#include "division/count_filter.h"
#include "exec/merge_join.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/sort_aggregate.h"
#include "obs/profiled_operator.h"

namespace reldiv {

Result<std::unique_ptr<Operator>> MakeSortAggregationDivisionPlan(
    ExecContext* ctx, const ResolvedDivision& resolved, bool with_join,
    const DivisionOptions& options) {
  std::unique_ptr<Operator> dividend_input =
      MaybeProfile(ctx, std::make_unique<ScanOperator>(ctx, resolved.dividend),
                   "scan(dividend)");

  if (with_join) {
    // Sort the dividend on the divisor attrs for the merge semi-join
    // ("notice that the relation must be sorted on different than the
    // grouping attributes").
    SortSpec join_sort;
    join_sort.keys = resolved.match_attrs;
    auto sorted_dividend = MaybeProfile(
        ctx,
        std::make_unique<SortOperator>(ctx, std::move(dividend_input),
                                       std::move(join_sort)),
        "sort(dividend)");

    SortSpec divisor_sort;
    divisor_sort.keys.resize(resolved.divisor.schema.num_fields());
    for (size_t i = 0; i < divisor_sort.keys.size(); ++i) {
      divisor_sort.keys[i] = i;
    }
    // Sibling subtree: the mark keeps the divisor-side wrappers from
    // adopting the finished dividend tree.
    const size_t divisor_mark = ProfileMark(ctx);
    auto sorted_divisor = MaybeProfile(
        ctx,
        std::make_unique<SortOperator>(
            ctx,
            MaybeProfile(ctx,
                         std::make_unique<ScanOperator>(ctx, resolved.divisor),
                         "scan(divisor)", divisor_mark),
            std::move(divisor_sort)),
        "sort(divisor)", divisor_mark);

    // Semi-join in which the outer (dividend) relation produces the result:
    // no linked lists, no copying (§5.1).
    std::vector<size_t> divisor_keys(resolved.divisor.schema.num_fields());
    for (size_t i = 0; i < divisor_keys.size(); ++i) divisor_keys[i] = i;
    dividend_input = MaybeProfile(
        ctx,
        std::make_unique<MergeJoinOperator>(
            ctx, std::move(sorted_dividend), std::move(sorted_divisor),
            resolved.match_attrs, std::move(divisor_keys),
            MergeJoinMode::kLeftSemi),
        "merge-semi-join");
  }

  if (options.count_distinct) {
    // Footnote 1 via sorting: eliminate duplicate (quotient, divisor)
    // combinations during the sort itself (keys cover every column), then
    // count the surviving tuples per group in a streaming aggregate and
    // compare against the divisor's DISTINCT cardinality.
    SortSpec dedup_sort;
    dedup_sort.keys = resolved.quotient_attrs;
    dedup_sort.keys.insert(dedup_sort.keys.end(),
                           resolved.match_attrs.begin(),
                           resolved.match_attrs.end());
    dedup_sort.collapse_equal_keys = true;
    auto sorted = MaybeProfile(
        ctx,
        std::make_unique<SortOperator>(ctx, std::move(dividend_input),
                                       std::move(dedup_sort)),
        "sort(dedup)");
    auto counted = MaybeProfile(
        ctx,
        std::make_unique<SortAggregateOperator>(
            ctx, std::move(sorted), resolved.quotient_attrs,
            std::vector<AggSpec>{AggSpec{AggFn::kCount, 0, "count"}}),
        "sort-aggregate");
    return std::unique_ptr<Operator>(
        std::make_unique<GroupCountFilterOperator>(
            ctx, std::move(counted), resolved.divisor,
            /*distinct_count=*/true));
  }

  // Aggregation during the (second) sort — dividend tuples become
  // (quotient attrs..., count) rows whose counts add up on equal quotient
  // keys — then the count selection.
  SortSpec counting_sort;
  counting_sort.group_count = resolved.quotient_attrs;
  auto counted = MaybeProfile(
      ctx,
      std::make_unique<SortOperator>(ctx, std::move(dividend_input),
                                     std::move(counting_sort)),
      "sort(aggregate)");
  return std::unique_ptr<Operator>(std::make_unique<GroupCountFilterOperator>(
      ctx, std::move(counted), resolved.divisor));
}

}  // namespace reldiv
