#ifndef RELDIV_DIVISION_NAIVE_DIVISION_H_
#define RELDIV_DIVISION_NAIVE_DIVISION_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Naive sort-based division (§2.1, Smith 1975). Preconditions:
///  * `dividend` is sorted on (quotient attrs major, divisor attrs minor),
///  * `divisor` is sorted on all its attributes and duplicate-free
/// (the plan builder arranges both via sorts with duplicate elimination).
///
/// Implementation follows §5.1: Open() consumes the entire divisor into an
/// in-memory list; Next() streams the dividend, advancing through the
/// divisor list as matching dividend tuples arrive, and produces a quotient
/// tuple each time the end of the divisor list is reached. Dividend tuples
/// matching no divisor tuple (e.g. a physics course in example 2) are
/// skipped; groups that miss any divisor tuple are abandoned early.
class NaiveDivisionOperator : public Operator {
 public:
  NaiveDivisionOperator(ExecContext* ctx,
                        std::unique_ptr<Operator> sorted_dividend,
                        std::unique_ptr<Operator> sorted_divisor,
                        std::vector<size_t> match_attrs,
                        std::vector<size_t> quotient_attrs);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status Next(Tuple* tuple, bool* has_next) override;
  Status Close() override;

 private:
  Status AdvanceDividend();
  /// Opens the quotient group of `current_`: records its key, restarts the
  /// divisor list.
  void StartGroup();

  ExecContext* ctx_;
  std::unique_ptr<Operator> dividend_;
  std::unique_ptr<Operator> divisor_;
  std::vector<size_t> match_attrs_;
  std::vector<size_t> quotient_attrs_;
  Schema schema_;

  std::vector<Tuple> divisor_list_;
  Tuple current_;
  bool current_valid_ = false;
  Tuple group_key_;       ///< quotient attributes of the current group
  bool in_group_ = false;
  size_t divisor_pos_ = 0;
  bool group_done_ = false;  ///< group emitted or failed; skip to next group
};

}  // namespace reldiv

#endif  // RELDIV_DIVISION_NAIVE_DIVISION_H_
