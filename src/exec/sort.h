#ifndef RELDIV_EXEC_SORT_H_
#define RELDIV_EXEC_SORT_H_

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metric_names.h"
#include "common/row_codec.h"
#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Configuration of a sort.
///
/// With `collapse_equal_keys`, tuples with equal sort keys are combined as
/// early as possible — during run formation and in every merge — keeping
/// the first tuple of each group (duplicate elimination). This mirrors the
/// paper's sort, which "performs aggregation and duplicate elimination as
/// early as possible, i.e., no intermediate run contains duplicate sort
/// keys".
///
/// `group_count` turns the sort into aggregation during sorting (§2.2.1):
/// each input tuple enters as the working row (its `*group_count` columns,
/// count = 1), e.g. Transcript(student, course) → (student, 1); the keys
/// are the group columns, equal keys collapse by summing their counts, and
/// the output schema is (group columns..., count). With it set, `keys` and
/// `collapse_equal_keys` are implied and ignored.
struct SortSpec {
  std::vector<size_t> keys;
  bool collapse_equal_keys = false;
  std::optional<std::vector<size_t>> group_count;
};

/// External merge sort (§2.1/§5.1): quicksort run formation bounded by the
/// context's sort space, runs written with 1 KB transfers for high fan-in,
/// intermediate merges until one merge step is left, and the final merge
/// performed on demand by Next() (paper footnote 2). Inputs that fit in the
/// sort space are sorted entirely in memory with no I/O.
///
/// Run formation is morsel-parallel: spilled chunks are collected into a
/// window of up to ExecContext::dop() chunks, the window's chunks are
/// quicksorted (and collapsed) concurrently on the TaskScheduler, then the
/// runs are written serially in chunk order. Chunk boundaries come from the
/// sort-space accounting alone, so the run contents, every Table 1 counter
/// total, and the disk layout are identical at any worker count; dop only
/// bounds how many chunks are held (and sorted) at once, so peak memory is
/// up to dop sort spaces during formation.
///
/// Rows stay encoded from the input to the output (RowCodec format, the
/// sort-run format): each working row is encoded once into its chunk's byte
/// arena, quicksort permutes {key words, offset} records, runs and
/// intermediate merges copy the bytes, and a row is decoded only where it
/// leaves the operator. The leading key columns get normalized key words
/// (kernels::NormalizedKey) held in the records: int64 words are exact, so
/// int64 keys never fall back to a field comparison; string and double keys
/// compare their encoded fields on word ties, as do key columns beyond the
/// inline words.
class SortOperator : public Operator {
 public:
  SortOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
               SortSpec spec);
  ~SortOperator() override;

  const Schema& output_schema() const override { return working_schema_; }

  Status Open() override;
  Status Next(Tuple* tuple, bool* has_next) override;
  Status Close() override;

  /// Number of initial runs written to disk (0 = in-memory sort). Test hook.
  size_t initial_runs() const { return initial_runs_; }
  /// Number of intermediate merge passes performed in Open(). Test hook.
  size_t intermediate_merges() const { return intermediate_merges_; }

  /// Spill behavior: whether the input fit in the sort space, and if not,
  /// how many runs were written and how many intermediate merges ran.
  void ExportGauges(GaugeList* gauges) const override {
    gauges->emplace_back(metric_names::kGaugeInMemory,
                         in_memory_ ? 1.0 : 0.0);
    gauges->emplace_back(metric_names::kGaugeInitialRuns,
                         static_cast<double>(initial_runs_));
    gauges->emplace_back(metric_names::kGaugeIntermediateMerges,
                         static_cast<double>(intermediate_merges_));
  }

 private:
  class Run;
  class RunReader;
  class Merge;

  /// Key words held inline in sort records and merge-heap entries; key
  /// columns beyond them are compared on the encoded fields (exactly, with
  /// no fallback for int64).
  static constexpr size_t kInlineKeyWords = 2;
  static_assert(kInlineKeyWords == 2, "CompareRowsOn reads words 0 and 1");

  /// One quicksort element (SNIPPETS.md snippet 3's key-header-plus-index
  /// record): the leading key words and the offset of the row's
  /// [u32 length][encoded row] entry in its chunk's arena.
  struct SortRecord {
    uint64_t key[kInlineKeyWords];
    uint64_t offset;
  };

  /// A sort-space worth of working rows.
  struct Chunk {
    std::string arena;
    std::vector<SortRecord> records;
    size_t estimated_bytes = 0;  ///< sort-space charge of the rows so far
    void Clear() {
      arena.clear();
      records.clear();
      estimated_bytes = 0;
    }
    const char* row(const SortRecord& r) const {
      return arena.data() + r.offset + 4;
    }
    uint32_t row_size(const SortRecord& r) const {
      uint32_t size;
      std::memcpy(&size, arena.data() + r.offset, sizeof(size));
      return size;
    }
  };

  struct KeyColumn {
    size_t field;
    ValueType type;
    /// Byte offset of the field in every row, or kVariableOffset when a
    /// string field precedes it.
    size_t offset;
  };
  static constexpr size_t kVariableOffset = ~size_t{0};

  /// Encodes `input` as a working row at the end of `chunk`.
  Status AppendRow(const Tuple& input, Chunk* chunk) const;
  const char* FieldAt(const char* row, const KeyColumn& column) const;
  /// The inline key words of an encoded row.
  void FillKey(const char* row, uint64_t* key) const;
  /// Three-way comparison of two rows' sort keys, extensionally equal to
  /// Tuple::CompareAt over the decoded rows. Uncounted.
  int CompareRows(const uint64_t* key_a, const char* row_a,
                  const uint64_t* key_b, const char* row_b) const;
  /// CompareRows charging one Comp to `ctx` — every key comparison the sort
  /// makes, so each sort/merge/collapse decision and every Table 1 total
  /// match the boxed-tuple comparator's.
  int CompareRowsOn(ExecContext* ctx, const uint64_t* key_a, const char* row_a,
                    const uint64_t* key_b, const char* row_b) const {
    ctx->CountComparisons(1);
    // Most comparisons resolve on the leading key word (for every type a
    // word difference decides; unused words are 0).
    if (key_a[0] != key_b[0]) return key_a[0] < key_b[0] ? -1 : 1;
    if (words_decide_) {
      return key_a[1] == key_b[1] ? 0 : (key_a[1] < key_b[1] ? -1 : 1);
    }
    return CompareRows(key_a, row_a, key_b, row_b);
  }
  /// Folds `next` into the accumulator row `acc` of an equal-key group:
  /// sums the counts under group_count; keeps `acc` as is otherwise.
  void Combine(char* acc, uint32_t acc_size, const char* next,
               uint32_t next_size) const;
  /// Quicksorts the chunk's records and (with collapse) combines equal-key
  /// groups, charging all comparisons to `ctx`. Pure CPU — safe to run
  /// concurrently for distinct chunks.
  void SortChunk(ExecContext* ctx, Chunk* chunk) const;
  /// Writes an already-sorted (and collapsed) chunk as a new run.
  Status WriteSortedRun(const Chunk& chunk);
  /// Sorts the first `count` chunks concurrently, then writes their runs
  /// serially in chunk order and clears them.
  Status FlushChunkWindow(size_t count);
  /// Merges `inputs` into a single new run (with collapse).
  Status MergeRuns(std::vector<std::unique_ptr<Run>> inputs);

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  SortSpec spec_;
  Schema working_schema_;
  RowCodec codec_;
  /// Codec of the group columns alone (group_count): input tuples encode
  /// straight into the working row's leading fields.
  std::optional<RowCodec> group_codec_;
  std::vector<KeyColumn> key_columns_;
  /// At most kInlineKeyWords keys, all int64: the exact inline words alone
  /// decide every comparison.
  bool words_decide_ = false;
  std::vector<ValueType> field_types_;
  /// A working row's sort-space charge minus its encoded size (see the
  /// constructor): chunk boundaries are drawn where the boxed tuples'
  /// estimate always drew them.
  size_t estimate_base_ = 0;
  size_t max_fan_in_;

  /// Run formation: chunk i of the current window; chunks_[0] also holds
  /// the whole input of an in-memory sort. Kept across windows so their
  /// buffers are reused.
  std::vector<Chunk> chunks_;

  // In-memory path.
  bool in_memory_ = false;
  size_t memory_pos_ = 0;

  // External path.
  std::vector<std::unique_ptr<Run>> runs_;
  std::unique_ptr<Merge> final_merge_;

  // Collapse grouping state for the final merge.
  bool have_pending_ = false;
  std::string pending_;
  uint64_t pending_key_[kInlineKeyWords] = {};

  size_t initial_runs_ = 0;
  size_t intermediate_merges_ = 0;
  bool open_ = false;
  /// The child is opened and drained inside Open(); if Open() fails in
  /// between, Close() still owes the child its Close() call.
  bool child_open_ = false;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_SORT_H_
