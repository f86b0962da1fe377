#ifndef RELDIV_COMMON_TUPLE_H_
#define RELDIV_COMMON_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/value.h"

namespace reldiv {

/// A row of values. Tuples flow between operators by value; operators that
/// pin records in the buffer pool decode them into Tuples on demand.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const Value& value(size_t i) const { return values_[i]; }
  Value& value(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }
  void Clear() { values_.clear(); }

  /// Resizes to `n` values; existing values below `n` are kept as-is for
  /// in-place overwriting (decode hot path).
  void Resize(size_t n) { values_.resize(n); }

  /// Buffer-preserving exchange: one vector swap instead of the three moves
  /// of std::swap. Batch compaction does this once per rejected tuple.
  void Swap(Tuple& other) noexcept { values_.swap(other.values_); }

  /// New tuple with the values at `indices`, in that order.
  Tuple Project(const std::vector<size_t>& indices) const;

  /// Lexicographic three-way comparison over all values.
  int Compare(const Tuple& other) const;

  /// Lexicographic comparison restricted to `indices` on both sides.
  int CompareAt(const std::vector<size_t>& indices, const Tuple& other) const;

  /// Compares this tuple's `indices` columns against ALL of `other`
  /// (used to match a dividend's divisor attributes against a divisor tuple).
  int CompareAtAgainstWhole(const std::vector<size_t>& indices,
                            const Tuple& other) const;

  /// Compares this tuple's `my_indices` columns against `other`'s
  /// `other_indices` columns pairwise (key comparison across two schemas).
  /// Inline: innermost loop of every hash-table probe.
  int CompareProjected(const std::vector<size_t>& my_indices,
                       const Tuple& other,
                       const std::vector<size_t>& other_indices) const {
    const size_t n = my_indices.size() < other_indices.size()
                         ? my_indices.size()
                         : other_indices.size();
    for (size_t i = 0; i < n; ++i) {
      int c = values_[my_indices[i]].Compare(other.value(other_indices[i]));
      if (c != 0) return c;
    }
    if (my_indices.size() < other_indices.size()) return -1;
    if (my_indices.size() > other_indices.size()) return 1;
    return 0;
  }

  /// Seed of the HashAt combine chain. exec/kernels reproduces the
  /// composition in closed form for batched hashing, so the seed is named
  /// rather than buried in the loop.
  static constexpr uint64_t kHashSeed = 0x51ed270b153a4d2full;

  /// Hash over all values.
  uint64_t Hash() const;

  /// Hash restricted to the values at `indices`. Inline: feeds every
  /// hash-table probe.
  uint64_t HashAt(const std::vector<size_t>& indices) const {
    uint64_t h = kHashSeed;
    for (size_t idx : indices) h = HashCombine(h, values_[idx].Hash());
    return h;
  }

  /// "(v1, v2, ...)" for diagnostics.
  std::string ToString() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return a.Compare(b) < 0;
  }

 private:
  std::vector<Value> values_;
};

}  // namespace reldiv

#endif  // RELDIV_COMMON_TUPLE_H_
