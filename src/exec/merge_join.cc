#include "exec/merge_join.h"

namespace reldiv {

namespace {

Schema ConcatSchemas(const Schema& a, const Schema& b) {
  std::vector<Field> fields = a.fields();
  for (const Field& f : b.fields()) fields.push_back(f);
  return Schema(std::move(fields));
}

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  std::vector<Value> values = a.values();
  for (const Value& v : b.values()) values.push_back(v);
  return Tuple(std::move(values));
}

}  // namespace

MergeJoinOperator::MergeJoinOperator(ExecContext* ctx,
                                     std::unique_ptr<Operator> left,
                                     std::unique_ptr<Operator> right,
                                     std::vector<size_t> left_keys,
                                     std::vector<size_t> right_keys,
                                     MergeJoinMode mode)
    : ctx_(ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      mode_(mode),
      schema_(mode == MergeJoinMode::kInner
                  ? ConcatSchemas(left_->output_schema(),
                                  right_->output_schema())
                  : left_->output_schema()) {}

Status MergeJoinOperator::AdvanceLeft() {
  return left_->Next(&left_tuple_, &left_valid_);
}

Status MergeJoinOperator::AdvanceRight() {
  return right_->Next(&right_tuple_, &right_valid_);
}

int MergeJoinOperator::CompareLR() const {
  ctx_->CountComparisons(1);
  return left_tuple_.CompareProjected(left_keys_, right_tuple_, right_keys_);
}

Status MergeJoinOperator::Open() {
  RELDIV_RETURN_NOT_OK(left_->Open());
  RELDIV_RETURN_NOT_OK(right_->Open());
  RELDIV_RETURN_NOT_OK(AdvanceLeft());
  RELDIV_RETURN_NOT_OK(AdvanceRight());
  group_.clear();
  group_key_valid_ = false;
  group_pos_ = 0;
  return Status::OK();
}

Status MergeJoinOperator::Next(Tuple* tuple, bool* has_next) {
  if (mode_ == MergeJoinMode::kLeftSemi) {
    while (left_valid_ && right_valid_) {
      const int c = CompareLR();
      if (c < 0) {
        RELDIV_RETURN_NOT_OK(AdvanceLeft());
      } else if (c > 0) {
        RELDIV_RETURN_NOT_OK(AdvanceRight());
      } else {
        // AdvanceLeft() overwrites left_tuple_: hand it over instead of
        // copying. A swap, so the next left tuple is decoded into the
        // caller's old buffer rather than a fresh allocation.
        std::swap(*tuple, left_tuple_);
        RELDIV_RETURN_NOT_OK(AdvanceLeft());
        *has_next = true;
        return Status::OK();
      }
    }
    *has_next = false;
    return Status::OK();
  }

  // Inner join with right-group buffering.
  while (true) {
    // Emit pending combinations from the current group.
    if (group_pos_ < group_.size()) {
      *tuple = ConcatTuples(group_key_holder_, group_[group_pos_]);
      group_pos_++;
      if (group_pos_ == group_.size()) {
        // Move to the next left tuple; if it has the same key, replay the
        // group for it.
        RELDIV_RETURN_NOT_OK(AdvanceLeft());
        if (left_valid_ && !group_.empty()) {
          ctx_->CountComparisons(1);
          if (left_tuple_.CompareProjected(left_keys_, group_key_holder_,
                                           left_keys_) == 0) {
            group_key_holder_ = left_tuple_;
            group_pos_ = 0;
          }
        }
      }
      *has_next = true;
      return Status::OK();
    }

    group_.clear();
    group_key_valid_ = false;

    if (!left_valid_ || !right_valid_) {
      *has_next = false;
      return Status::OK();
    }
    const int c = CompareLR();
    if (c < 0) {
      RELDIV_RETURN_NOT_OK(AdvanceLeft());
      continue;
    }
    if (c > 0) {
      RELDIV_RETURN_NOT_OK(AdvanceRight());
      continue;
    }
    // Buffer the full right group with this key.
    group_key_holder_ = left_tuple_;
    group_key_valid_ = true;
    group_.push_back(right_tuple_);
    RELDIV_RETURN_NOT_OK(AdvanceRight());
    while (right_valid_) {
      ctx_->CountComparisons(1);
      if (right_tuple_.CompareProjected(right_keys_, group_.front(),
                                        right_keys_) != 0) {
        break;
      }
      group_.push_back(right_tuple_);
      RELDIV_RETURN_NOT_OK(AdvanceRight());
    }
    group_pos_ = 0;
  }
}

Status MergeJoinOperator::Close() {
  // Close both sides even if the first close fails; first error wins. An
  // early return here would leak the right child's pins and scans.
  Status left_status = left_->Close();
  Status right_status = right_->Close();
  return left_status.ok() ? right_status : left_status;
}

}  // namespace reldiv
