#include "division/naive_division.h"

namespace reldiv {

NaiveDivisionOperator::NaiveDivisionOperator(
    ExecContext* ctx, std::unique_ptr<Operator> sorted_dividend,
    std::unique_ptr<Operator> sorted_divisor, std::vector<size_t> match_attrs,
    std::vector<size_t> quotient_attrs)
    : ctx_(ctx),
      dividend_(std::move(sorted_dividend)),
      divisor_(std::move(sorted_divisor)),
      match_attrs_(std::move(match_attrs)),
      quotient_attrs_(std::move(quotient_attrs)),
      schema_(dividend_->output_schema().Project(quotient_attrs_)) {}

Status NaiveDivisionOperator::Open() {
  // Consume the entire divisor into an in-memory list (§5.1: "a linked list
  // of divisor tuples fixed in the buffer pool").
  divisor_list_.clear();
  RELDIV_RETURN_NOT_OK(divisor_->Open());
  while (true) {
    Tuple tuple;
    bool has = false;
    RELDIV_RETURN_NOT_OK(divisor_->Next(&tuple, &has));
    if (!has) break;
    divisor_list_.push_back(std::move(tuple));
  }
  RELDIV_RETURN_NOT_OK(divisor_->Close());

  RELDIV_RETURN_NOT_OK(dividend_->Open());
  RELDIV_RETURN_NOT_OK(AdvanceDividend());
  in_group_ = false;
  group_done_ = false;
  divisor_pos_ = 0;
  return Status::OK();
}

Status NaiveDivisionOperator::AdvanceDividend() {
  return dividend_->Next(&current_, &current_valid_);
}

void NaiveDivisionOperator::StartGroup() {
  // Copy only the quotient attributes, into the key's existing values.
  group_key_.Resize(quotient_attrs_.size());
  for (size_t i = 0; i < quotient_attrs_.size(); ++i) {
    group_key_.value(i) = current_.value(quotient_attrs_[i]);
  }
  group_done_ = false;
  divisor_pos_ = 0;
}

Status NaiveDivisionOperator::Next(Tuple* tuple, bool* has_next) {
  // Empty-divisor convention: empty quotient (see division.h).
  if (divisor_list_.empty()) {
    *has_next = false;
    return Status::OK();
  }
  while (current_valid_) {
    // Detect the start of a new quotient group.
    if (!in_group_) {
      StartGroup();
      in_group_ = true;
    } else {
      ctx_->CountComparisons(1);
      if (current_.CompareAtAgainstWhole(quotient_attrs_, group_key_) != 0) {
        StartGroup();
      }
    }

    if (group_done_) {
      // Group already decided; skip the remainder of its tuples.
      RELDIV_RETURN_NOT_OK(AdvanceDividend());
      continue;
    }

    ctx_->CountComparisons(1);
    const int c = current_.CompareAtAgainstWhole(match_attrs_,
                                                 divisor_list_[divisor_pos_]);
    if (c < 0) {
      // Dividend tuple smaller than the next needed divisor tuple: it has no
      // counterpart in the divisor (or is a duplicate of a matched tuple).
      RELDIV_RETURN_NOT_OK(AdvanceDividend());
      continue;
    }
    if (c > 0) {
      // The group skipped past divisor_list_[divisor_pos_]: the divisor
      // tuple is missing from this group, so the group cannot qualify.
      group_done_ = true;
      RELDIV_RETURN_NOT_OK(AdvanceDividend());
      continue;
    }
    // Match: advance both scans (the deviation from nested-loops join the
    // paper points out). Reaching the end of the divisor list qualifies the
    // group; its quotient tuple is projected from the matching tuple before
    // the dividend advances past it.
    divisor_pos_++;
    const bool qualifies = divisor_pos_ == divisor_list_.size();
    if (qualifies) *tuple = current_.Project(quotient_attrs_);
    RELDIV_RETURN_NOT_OK(AdvanceDividend());
    if (qualifies) {
      group_done_ = true;
      *has_next = true;
      return Status::OK();
    }
  }
  *has_next = false;
  return Status::OK();
}

Status NaiveDivisionOperator::Close() { return dividend_->Close(); }

}  // namespace reldiv
