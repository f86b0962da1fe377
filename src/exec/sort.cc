#include "exec/sort.h"

#include <algorithm>
#include <cstring>

#include "common/config.h"
#include "exec/exchange.h"
#include "exec/kernels/kernels.h"
#include "exec/scheduler.h"

namespace reldiv {

namespace {

Schema WorkingSchema(const Schema& input, const SortSpec& spec) {
  if (!spec.group_count.has_value()) return input;
  std::vector<Field> fields = input.Project(*spec.group_count).fields();
  fields.push_back(Field{"count", ValueType::kInt64});
  return Schema(std::move(fields));
}

/// `spec` with what group_count implies filled in: the group columns
/// [0, n) of the working row are the keys, and equal keys collapse.
SortSpec Normalized(SortSpec spec) {
  if (spec.group_count.has_value()) {
    spec.keys.resize(spec.group_count->size());
    for (size_t i = 0; i < spec.keys.size(); ++i) spec.keys[i] = i;
    spec.collapse_equal_keys = true;
  }
  return spec;
}

/// Three-way comparison of two encoded fields of one type, with
/// Value::Compare's semantics (doubles by < and >, strings byte-wise as
/// unsigned chars, then by length).
int CompareFields(ValueType type, const char* a, const char* b) {
  switch (type) {
    case ValueType::kInt64: {
      const auto x = static_cast<int64_t>(RowCodec::LoadU64(a));
      const auto y = static_cast<int64_t>(RowCodec::LoadU64(b));
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kDouble: {
      const uint64_t xb = RowCodec::LoadU64(a);
      const uint64_t yb = RowCodec::LoadU64(b);
      double x;
      double y;
      std::memcpy(&x, &xb, sizeof(x));
      std::memcpy(&y, &yb, sizeof(y));
      if (x < y) return -1;
      if (x > y) return 1;
      return 0;
    }
    case ValueType::kString: {
      const uint32_t la = RowCodec::LoadU32(a);
      const uint32_t lb = RowCodec::LoadU32(b);
      const int c = std::memcmp(a + 4, b + 4, la < lb ? la : lb);
      if (c != 0) return c < 0 ? -1 : 1;
      return la < lb ? -1 : (la > lb ? 1 : 0);
    }
  }
  return 0;
}

}  // namespace

/// One sorted run on the simulated disk, written and read in 1 KB blocks
/// (kSortRunBlockSize) so that a limited sort space still yields a high
/// merge fan-in. Sectors are allocated in contiguous chunks.
class SortOperator::Run {
 public:
  explicit Run(SimDisk* disk) : disk_(disk) {}

  Status Append(Slice record) {
    uint32_t len = static_cast<uint32_t>(record.size());
    char len_buf[4];
    std::memcpy(len_buf, &len, 4);
    RELDIV_RETURN_NOT_OK(WriteBytes(len_buf, 4));
    RELDIV_RETURN_NOT_OK(WriteBytes(record.data(), record.size()));
    num_records_++;
    return Status::OK();
  }

  Status Finish() {
    if (buffer_used_ > 0) {
      RELDIV_RETURN_NOT_OK(FlushBlock());
    }
    return Status::OK();
  }

  uint64_t num_records() const { return num_records_; }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  friend class SortOperator::RunReader;

  static constexpr uint64_t kSectorsPerAllocation = 64;

  Status WriteBytes(const char* data, size_t size) {
    total_bytes_ += size;
    while (size > 0) {
      const size_t room = kSortRunBlockSize - buffer_used_;
      const size_t chunk = size < room ? size : room;
      std::memcpy(buffer_ + buffer_used_, data, chunk);
      buffer_used_ += chunk;
      data += chunk;
      size -= chunk;
      if (buffer_used_ == kSortRunBlockSize) {
        RELDIV_RETURN_NOT_OK(FlushBlock());
      }
    }
    return Status::OK();
  }

  Status FlushBlock() {
    if (next_sector_ == end_sector_) {
      const uint64_t first = disk_->AllocateSectors(kSectorsPerAllocation);
      segments_.emplace_back(first, kSectorsPerAllocation);
      next_sector_ = first;
      end_sector_ = first + kSectorsPerAllocation;
    }
    // Pad the trailing partial block with zeros.
    if (buffer_used_ < kSortRunBlockSize) {
      std::memset(buffer_ + buffer_used_, 0, kSortRunBlockSize - buffer_used_);
    }
    RELDIV_RETURN_NOT_OK(disk_->Write(next_sector_, 1, buffer_));
    next_sector_++;
    blocks_written_++;
    buffer_used_ = 0;
    return Status::OK();
  }

  SimDisk* disk_;
  char buffer_[kSortRunBlockSize];
  size_t buffer_used_ = 0;
  uint64_t num_records_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t blocks_written_ = 0;
  uint64_t next_sector_ = 0;
  uint64_t end_sector_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> segments_;
};

/// Sequential reader over a Run, one 1 KB block in memory at a time.
class SortOperator::RunReader {
 public:
  RunReader(SimDisk* disk, const Run* run) : disk_(disk), run_(run) {}

  /// Reads the next encoded record into `record`.
  Status Next(std::string* record, bool* has_next) {
    if (bytes_read_ >= run_->total_bytes_) {
      *has_next = false;
      return Status::OK();
    }
    char len_buf[4];
    RELDIV_RETURN_NOT_OK(ReadBytes(len_buf, 4));
    uint32_t len;
    std::memcpy(&len, len_buf, 4);
    record->resize(len);
    RELDIV_RETURN_NOT_OK(ReadBytes(record->data(), len));
    *has_next = true;
    return Status::OK();
  }

 private:
  Status ReadBytes(char* dst, size_t size) {
    while (size > 0) {
      if (buffer_pos_ == buffer_filled_) {
        RELDIV_RETURN_NOT_OK(FillBlock());
      }
      const size_t avail = buffer_filled_ - buffer_pos_;
      const size_t chunk = size < avail ? size : avail;
      std::memcpy(dst, buffer_ + buffer_pos_, chunk);
      buffer_pos_ += chunk;
      dst += chunk;
      size -= chunk;
      bytes_read_ += chunk;
    }
    return Status::OK();
  }

  Status FillBlock() {
    if (segment_index_ >= run_->segments_.size()) {
      return Status::Internal("sort run reader ran past the last block");
    }
    auto [first, count] = run_->segments_[segment_index_];
    RELDIV_RETURN_NOT_OK(disk_->Read(first + segment_offset_, 1, buffer_));
    segment_offset_++;
    if (segment_offset_ == count) {
      segment_index_++;
      segment_offset_ = 0;
    }
    buffer_pos_ = 0;
    buffer_filled_ = kSortRunBlockSize;
    return Status::OK();
  }

  SimDisk* disk_;
  const Run* run_;
  char buffer_[kSortRunBlockSize];
  size_t buffer_pos_ = 0;
  size_t buffer_filled_ = 0;
  uint64_t bytes_read_ = 0;
  size_t segment_index_ = 0;
  uint64_t segment_offset_ = 0;
};

/// K-way merge of sorted runs: a binary heap of {key words, input}, the
/// older run winning key ties. Each input holds its head row encoded; the
/// heap compares through the key words and those bytes.
class SortOperator::Merge {
 public:
  explicit Merge(const SortOperator* sort) : sort_(sort) {}

  /// Opens a reader on each run and seeds the heap with its first row.
  Status Open(const std::vector<const Run*>& runs) {
    inputs_.resize(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      inputs_[i].reader =
          std::make_unique<RunReader>(sort_->ctx_->disk(), runs[i]);
    }
    for (size_t i = 0; i < inputs_.size(); ++i) {
      RELDIV_RETURN_NOT_OK(Advance(i));
    }
    return Status::OK();
  }

  bool empty() const { return heap_.empty(); }

  /// Pops the smallest head row, then refills the heap from that row's run
  /// — the refill read comes before any use of the popped row, which fixes
  /// the order of disk transfers. `*key` and `*row` stay valid until the
  /// next Pop().
  Status Pop(const uint64_t** key, Slice* row) {
    const HeapEntry top = HeapPop();
    Input& input = inputs_[top.input];
    input.head ^= 1;  // the popped row stays in the other buffer
    RELDIV_RETURN_NOT_OK(Advance(top.input));
    std::copy(top.key, top.key + kInlineKeyWords, popped_key_);
    *key = popped_key_;
    *row = Slice(input.rows[input.head ^ 1]);
    return Status::OK();
  }

 private:
  struct Input {
    std::unique_ptr<RunReader> reader;
    /// rows[head] is the run's next row (in the heap); the other buffer
    /// holds the row Pop() last returned from this run.
    std::string rows[2];
    int head = 0;
    const char* head_row() const { return rows[head].data(); }
  };
  struct HeapEntry {
    uint64_t key[kInlineKeyWords];
    size_t input;
  };

  /// Reads input `i`'s next row into its head and pushes it.
  Status Advance(size_t i) {
    Input& input = inputs_[i];
    bool has = false;
    RELDIV_RETURN_NOT_OK(input.reader->Next(&input.rows[input.head], &has));
    if (has) {
      HeapEntry entry;
      entry.input = i;
      sort_->FillKey(input.head_row(), entry.key);
      HeapPush(entry);
    }
    return Status::OK();
  }

  bool HeapLess(const HeapEntry& a, const HeapEntry& b) const {
    const int c =
        sort_->CompareRowsOn(sort_->ctx_, a.key, inputs_[a.input].head_row(),
                             b.key, inputs_[b.input].head_row());
    if (c != 0) return c < 0;
    return a.input < b.input;  // stable across runs: older run first
  }

  void HeapPush(const HeapEntry& entry) {
    heap_.push_back(entry);
    size_t i = heap_.size() - 1;
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!HeapLess(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  HeapEntry HeapPop() {
    const HeapEntry top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    size_t i = 0;
    while (true) {
      const size_t l = 2 * i + 1;
      const size_t r = 2 * i + 2;
      size_t smallest = i;
      if (l < heap_.size() && HeapLess(heap_[l], heap_[smallest])) {
        smallest = l;
      }
      if (r < heap_.size() && HeapLess(heap_[r], heap_[smallest])) {
        smallest = r;
      }
      if (smallest == i) break;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
    return top;
  }

  const SortOperator* sort_;
  std::vector<Input> inputs_;
  std::vector<HeapEntry> heap_;
  uint64_t popped_key_[kInlineKeyWords] = {};
};

SortOperator::SortOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                           SortSpec spec)
    : ctx_(ctx),
      child_(std::move(child)),
      spec_(Normalized(std::move(spec))),
      working_schema_(WorkingSchema(child_->output_schema(), spec_)),
      codec_(working_schema_),
      max_fan_in_(
          std::max<size_t>(2, ctx_->sort_space_bytes() / kSortRunBlockSize)) {
  if (spec_.group_count.has_value()) {
    group_codec_.emplace(child_->output_schema().Project(*spec_.group_count));
  }
  // Sort-space charge of a working row: what the boxed tuple it replaces
  // was estimated at (24-byte header, 16 bytes per value, plus string
  // bytes). Encoded, each numeric field takes 8 bytes and each string 4
  // plus its bytes, so the charge is this base plus the encoded size.
  estimate_base_ = 24;
  std::vector<size_t> field_offsets;
  size_t offset = 0;
  for (const Field& field : working_schema_.fields()) {
    field_types_.push_back(field.type);
    field_offsets.push_back(offset);
    const bool is_string = field.type == ValueType::kString;
    estimate_base_ += 16 - (is_string ? 4 : 8);
    if (offset != kVariableOffset) offset = is_string ? kVariableOffset
                                                      : offset + 8;
  }
  words_decide_ = spec_.keys.size() <= kInlineKeyWords;
  for (size_t field : spec_.keys) {
    key_columns_.push_back(
        KeyColumn{field, field_types_[field], field_offsets[field]});
    words_decide_ = words_decide_ && field_types_[field] == ValueType::kInt64;
  }
}

SortOperator::~SortOperator() = default;

const char* SortOperator::FieldAt(const char* row,
                                  const KeyColumn& column) const {
  if (column.offset != kVariableOffset) return row + column.offset;
  for (size_t i = 0; i < column.field; ++i) {
    row += field_types_[i] == ValueType::kString ? 4 + RowCodec::LoadU32(row)
                                                 : 8;
  }
  return row;
}

void SortOperator::FillKey(const char* row, uint64_t* key) const {
  for (size_t k = 0; k < kInlineKeyWords; ++k) {
    key[k] = k < key_columns_.size()
                 ? kernels::NormalizedKey(key_columns_[k].type,
                                          FieldAt(row, key_columns_[k]))
                 : 0;
  }
}

int SortOperator::CompareRows(const uint64_t* key_a, const char* row_a,
                              const uint64_t* key_b,
                              const char* row_b) const {
  for (size_t k = 0; k < key_columns_.size(); ++k) {
    const KeyColumn& column = key_columns_[k];
    if (k < kInlineKeyWords) {
      if (key_a[k] != key_b[k]) return key_a[k] < key_b[k] ? -1 : 1;
      if (column.type == ValueType::kInt64) continue;  // exact word
    }
    const int c = CompareFields(column.type, FieldAt(row_a, column),
                                FieldAt(row_b, column));
    if (c != 0) return c;
  }
  return 0;
}

void SortOperator::Combine(char* acc, uint32_t acc_size, const char* next,
                           uint32_t next_size) const {
  if (!spec_.group_count.has_value()) return;  // keep the first row
  // The count is the working row's last field.
  char* count = acc + acc_size - 8;
  RowCodec::StoreU64(
      RowCodec::LoadU64(count) + RowCodec::LoadU64(next + next_size - 8),
      count);
}

Status SortOperator::AppendRow(const Tuple& input, Chunk* chunk) const {
  std::string& arena = chunk->arena;
  const size_t start = arena.size();
  arena.append(4, '\0');  // the row size, filled in below
  if (group_codec_.has_value()) {
    RELDIV_RETURN_NOT_OK(
        group_codec_->EncodeColumns(input, *spec_.group_count, &arena));
    RowCodec::PutInt64(1, &arena);
  } else {
    RELDIV_RETURN_NOT_OK(codec_.Encode(input, &arena));
  }
  const auto size = static_cast<uint32_t>(arena.size() - start - 4);
  std::memcpy(&arena[start], &size, 4);
  chunk->estimated_bytes += estimate_base_ + size;
  SortRecord record;
  record.offset = start;
  FillKey(arena.data() + start + 4, record.key);
  chunk->records.push_back(record);
  return Status::OK();
}

void SortOperator::SortChunk(ExecContext* ctx, Chunk* chunk) const {
  // Normalized-key quicksort (Do/Graefe/Naughton): each row's key words
  // were computed once at encode time, and most comparisons resolve on
  // them. CompareRowsOn is extensionally equal to Tuple::CompareAt and
  // counts one Comp per call, so with the records in input order the sort's
  // decision sequence, the run contents and the Comp totals are those of a
  // boxed-tuple sort.
  std::vector<SortRecord>& records = chunk->records;
  std::sort(records.begin(), records.end(),
            [this, ctx, chunk](const SortRecord& a, const SortRecord& b) {
              return CompareRowsOn(ctx, a.key, chunk->row(a), b.key,
                                   chunk->row(b)) < 0;
            });
  if (!spec_.collapse_equal_keys) return;
  // Combine each equal-key group down to its first record, in stream. Every
  // record is compared once against its group's accumulator (the
  // group-closing mismatch included), matching the merge paths' counting.
  size_t out = 0;
  for (size_t i = 0; i < records.size();) {
    const SortRecord acc = records[i];
    char* acc_row = chunk->arena.data() + acc.offset + 4;
    size_t j = i + 1;
    while (j < records.size() &&
           CompareRowsOn(ctx, acc.key, acc_row, records[j].key,
                         chunk->row(records[j])) == 0) {
      Combine(acc_row, chunk->row_size(acc), chunk->row(records[j]),
              chunk->row_size(records[j]));
      j++;
    }
    records[out++] = acc;
    i = j;
  }
  records.resize(out);
}

Status SortOperator::WriteSortedRun(const Chunk& chunk) {
  auto run = std::make_unique<Run>(ctx_->disk());
  for (const SortRecord& record : chunk.records) {
    const uint32_t size = chunk.row_size(record);
    RELDIV_RETURN_NOT_OK(run->Append(Slice(chunk.row(record), size)));
    ctx_->CountMoveBytes(size);
  }
  RELDIV_RETURN_NOT_OK(run->Finish());
  runs_.push_back(std::move(run));
  return Status::OK();
}

Status SortOperator::FlushChunkWindow(size_t count) {
  if (count == 0) return Status::OK();
  // Chunk contents were fixed by the sort-space accounting in Open(); only
  // the sorting of the chunks held in this window runs concurrently. Runs
  // are written below, serially and in chunk order, so the on-disk layout
  // never depends on the worker count.
  FragmentContexts fragment_ctxs(ctx_, count);
  Status status = TaskScheduler::Global().ParallelFor(
      std::min(ctx_->dop(), count), count, [&](size_t i) -> Status {
        SortChunk(fragment_ctxs.fragment(i), &chunks_[i]);
        return Status::OK();
      });
  fragment_ctxs.MergeInto(ctx_);
  RELDIV_RETURN_NOT_OK(status);
  for (size_t i = 0; i < count; ++i) {
    RELDIV_RETURN_NOT_OK(WriteSortedRun(chunks_[i]));
    initial_runs_++;
    chunks_[i].Clear();
  }
  return Status::OK();
}

Status SortOperator::MergeRuns(std::vector<std::unique_ptr<Run>> inputs) {
  std::vector<const Run*> runs;
  runs.reserve(inputs.size());
  for (const auto& run : inputs) runs.push_back(run.get());
  Merge merge(this);
  RELDIV_RETURN_NOT_OK(merge.Open(runs));

  auto output = std::make_unique<Run>(ctx_->disk());
  auto append = [&](Slice row) -> Status {
    ctx_->CountMoveBytes(row.size());
    return output->Append(row);
  };
  bool have_acc = false;
  std::string acc;
  uint64_t acc_key[kInlineKeyWords] = {};
  while (!merge.empty()) {
    const uint64_t* key = nullptr;
    Slice row;
    RELDIV_RETURN_NOT_OK(merge.Pop(&key, &row));
    if (!spec_.collapse_equal_keys) {
      RELDIV_RETURN_NOT_OK(append(row));
      continue;
    }
    if (have_acc &&
        CompareRowsOn(ctx_, acc_key, acc.data(), key, row.data()) == 0) {
      Combine(acc.data(), static_cast<uint32_t>(acc.size()), row.data(),
              static_cast<uint32_t>(row.size()));
      continue;
    }
    if (have_acc) RELDIV_RETURN_NOT_OK(append(Slice(acc)));
    acc.assign(row.data(), row.size());
    std::copy(key, key + kInlineKeyWords, acc_key);
    have_acc = true;
  }
  if (have_acc) RELDIV_RETURN_NOT_OK(append(Slice(acc)));
  RELDIV_RETURN_NOT_OK(output->Finish());
  runs_.push_back(std::move(output));
  return Status::OK();
}

Status SortOperator::Open() {
  RELDIV_RETURN_NOT_OK(child_->Open());
  child_open_ = true;
  in_memory_ = false;
  memory_pos_ = 0;
  initial_runs_ = 0;
  intermediate_merges_ = 0;
  final_merge_.reset();

  // A batch-native child fills batches of the session capacity exactly as
  // its own tuple adapter would, so draining it by batch reads nothing
  // earlier. Any other child would run ahead behind the base adapter — a
  // merge join over sorted runs would read those runs before this sort's
  // run writes and shift the disk's seeks — so it is pulled one tuple per
  // call.
  TupleBatch input(child_->IsBatchNative() ? ctx_->batch_capacity() : 1);
  // Chunks [0, window) are full and await sort + run write; they are
  // flushed whenever dop chunks have accumulated, so at most dop sort
  // spaces are held at once.
  size_t window = 0;
  bool spilled = false;
  if (chunks_.empty()) chunks_.emplace_back();
  bool more = true;
  while (more) {
    RELDIV_RETURN_NOT_OK(child_->NextBatch(&input, &more));
    for (size_t i = 0; i < input.size(); ++i) {
      Chunk& chunk = chunks_[window];
      RELDIV_RETURN_NOT_OK(AppendRow(input.tuple(i), &chunk));
      if (chunk.estimated_bytes < ctx_->sort_space_bytes()) continue;
      spilled = true;
      if (++window >= ctx_->dop()) {
        RELDIV_RETURN_NOT_OK(FlushChunkWindow(window));
        window = 0;
      }
      if (window == chunks_.size()) chunks_.emplace_back();
    }
  }
  if (spilled) {
    if (!chunks_[window].records.empty()) window++;
    RELDIV_RETURN_NOT_OK(FlushChunkWindow(window));
  } else {
    // Whole input fits in the sort space: the in-memory sort (+ collapse),
    // no I/O.
    SortChunk(ctx_, &chunks_[0]);
    in_memory_ = true;
  }
  // One Close() attempt settles the debt even if it fails — a second call
  // on an already-failed child is not owed anything.
  child_open_ = false;
  RELDIV_RETURN_NOT_OK(child_->Close());

  if (!in_memory_) {
    // Intermediate merges until one final merge step remains (footnote 2).
    while (runs_.size() > max_fan_in_) {
      std::vector<std::unique_ptr<Run>> group;
      const size_t take = std::min(max_fan_in_, runs_.size());
      group.assign(std::make_move_iterator(runs_.begin()),
                   std::make_move_iterator(runs_.begin() +
                                           static_cast<long>(take)));
      runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(take));
      RELDIV_RETURN_NOT_OK(MergeRuns(std::move(group)));
      intermediate_merges_++;
    }
    std::vector<const Run*> runs;
    runs.reserve(runs_.size());
    for (const auto& run : runs_) runs.push_back(run.get());
    final_merge_ = std::make_unique<Merge>(this);
    RELDIV_RETURN_NOT_OK(final_merge_->Open(runs));
  }
  open_ = true;
  have_pending_ = false;
  return Status::OK();
}

Status SortOperator::Next(Tuple* tuple, bool* has_next) {
  if (!open_) return Status::Internal("sort Next() before Open()");
  if (in_memory_) {
    const Chunk& chunk = chunks_[0];
    if (memory_pos_ >= chunk.records.size()) {
      *has_next = false;
      return Status::OK();
    }
    const SortRecord& record = chunk.records[memory_pos_++];
    *has_next = true;
    return codec_.Decode(Slice(chunk.row(record), chunk.row_size(record)),
                         tuple);
  }
  // The final merge runs on demand, one merged row per call: a consumer
  // that stops early (the merge semi-join once the divisor is exhausted)
  // must not be charged merge comparisons for rows it never pulled.
  const uint64_t* key = nullptr;
  Slice row;
  if (!spec_.collapse_equal_keys) {
    if (final_merge_->empty()) {
      *has_next = false;
      return Status::OK();
    }
    RELDIV_RETURN_NOT_OK(final_merge_->Pop(&key, &row));
    *has_next = true;
    return codec_.Decode(row, tuple);
  }
  // Group-collapse on the final merge output.
  while (true) {
    if (final_merge_->empty()) {
      *has_next = have_pending_;
      if (!have_pending_) return Status::OK();
      have_pending_ = false;
      return codec_.Decode(Slice(pending_), tuple);
    }
    RELDIV_RETURN_NOT_OK(final_merge_->Pop(&key, &row));
    if (have_pending_ && CompareRowsOn(ctx_, pending_key_, pending_.data(),
                                       key, row.data()) == 0) {
      Combine(pending_.data(), static_cast<uint32_t>(pending_.size()),
              row.data(), static_cast<uint32_t>(row.size()));
      continue;
    }
    const bool emit = have_pending_;
    if (emit) {
      RELDIV_RETURN_NOT_OK(codec_.Decode(Slice(pending_), tuple));
    }
    pending_.assign(row.data(), row.size());
    std::copy(key, key + kInlineKeyWords, pending_key_);
    have_pending_ = true;
    if (emit) {
      *has_next = true;
      return Status::OK();
    }
  }
}

Status SortOperator::Close() {
  Status status;
  if (child_open_) {
    // Open() failed while draining the input; the child still holds its
    // resources (pinned pages, open scans) and must be closed here.
    child_open_ = false;
    status = child_->Close();
  }
  chunks_.clear();
  final_merge_.reset();
  runs_.clear();
  pending_.clear();
  have_pending_ = false;
  open_ = false;
  return status;
}

}  // namespace reldiv
