#ifndef RELDIV_TESTS_TEST_UTIL_H_
#define RELDIV_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <set>
#include <vector>

#include "common/tuple.h"
#include "exec/database.h"
#include "exec/relation.h"
#include "gtest/gtest.h"
#include "workload/generator.h"

namespace reldiv {

#define ASSERT_OK(expr)                                  \
  do {                                                   \
    const ::reldiv::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();             \
  } while (false)

#define EXPECT_OK(expr)                                  \
  do {                                                   \
    const ::reldiv::Status _st = (expr);                 \
    EXPECT_TRUE(_st.ok()) << _st.ToString();             \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                 \
  ASSERT_OK_AND_ASSIGN_IMPL(                             \
      RELDIV_CONCAT_(_assert_result_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)       \
  auto tmp = (rexpr);                                    \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();      \
  lhs = tmp.MoveValue();

/// Sorts a tuple batch for order-insensitive comparison.
inline std::vector<Tuple> Sorted(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

/// Brute-force relational division over in-memory tuples: the ground truth
/// every algorithm is property-tested against. A quotient value qualifies
/// iff the divisor is non-empty and, for every divisor tuple, the dividend
/// contains (q, s).
std::vector<Tuple> ReferenceDivision(const std::vector<Tuple>& dividend,
                                     const std::vector<Tuple>& divisor,
                                     const std::vector<size_t>& match_attrs,
                                     const std::vector<size_t>& quotient_attrs);

/// `workload` with its int64 quotient_id column replaced by a string name
/// of varying length (divisor and divisor_id untouched), so every dividend
/// row is variable-width. The expected quotient is renamed and re-sorted.
GeneratedWorkload WithStringQuotient(const GeneratedWorkload& workload);

/// Convenience constructors.
inline Tuple T(int64_t a) { return Tuple{Value::Int64(a)}; }
inline Tuple T(int64_t a, int64_t b) {
  return Tuple{Value::Int64(a), Value::Int64(b)};
}
inline Tuple T(int64_t a, int64_t b, int64_t c) {
  return Tuple{Value::Int64(a), Value::Int64(b), Value::Int64(c)};
}

}  // namespace reldiv

#endif  // RELDIV_TESTS_TEST_UTIL_H_
