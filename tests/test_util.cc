#include "tests/test_util.h"

#include <map>
#include <string>

namespace reldiv {

std::vector<Tuple> ReferenceDivision(
    const std::vector<Tuple>& dividend, const std::vector<Tuple>& divisor,
    const std::vector<size_t>& match_attrs,
    const std::vector<size_t>& quotient_attrs) {
  // Distinct divisor tuples.
  std::set<Tuple> divisor_set(divisor.begin(), divisor.end());
  if (divisor_set.empty()) return {};

  // For each distinct quotient value, the set of matched divisor tuples.
  std::map<Tuple, std::set<Tuple>> matched;
  for (const Tuple& t : dividend) {
    Tuple key = t.Project(quotient_attrs);
    Tuple divisor_part = t.Project(match_attrs);
    if (divisor_set.count(divisor_part) != 0) {
      matched[std::move(key)].insert(std::move(divisor_part));
    }
  }
  std::vector<Tuple> quotient;
  for (const auto& [key, seen] : matched) {
    if (seen.size() == divisor_set.size()) quotient.push_back(key);
  }
  return quotient;  // std::map iteration → already sorted
}

namespace {

/// Unique per id: the digits end where the '.' padding starts.
Value QuotientName(const Value& id) {
  const size_t padding = static_cast<uint64_t>(id.int64()) % 7;
  return Value::String("q" + std::to_string(id.int64()) +
                       std::string(padding, '.'));
}

}  // namespace

GeneratedWorkload WithStringQuotient(const GeneratedWorkload& workload) {
  GeneratedWorkload out;
  out.dividend_schema = Schema{Field{"quotient_name", ValueType::kString},
                               workload.dividend_schema.field(1)};
  out.divisor_schema = workload.divisor_schema;
  out.divisor = workload.divisor;
  for (const Tuple& tuple : workload.dividend) {
    out.dividend.push_back(
        Tuple{QuotientName(tuple.value(0)), tuple.value(1)});
  }
  for (const Tuple& tuple : workload.expected_quotient) {
    out.expected_quotient.push_back(Tuple{QuotientName(tuple.value(0))});
  }
  std::sort(out.expected_quotient.begin(), out.expected_quotient.end());
  return out;
}

}  // namespace reldiv
