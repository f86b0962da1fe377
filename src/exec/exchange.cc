#include "exec/exchange.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/metric_names.h"
#include "common/mutex.h"
#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/partitioner.h"

namespace reldiv {

namespace {

/// Opens, drains (batch protocol), and closes one fragment pipeline,
/// appending its output to `out`. The fragment cleans up after itself on
/// both paths, so a failing sibling never leaks this fragment's batches.
Status DrainFragment(Operator* op, ExecContext* ctx, std::vector<Tuple>* out) {
  RELDIV_RETURN_NOT_OK(op->Open());
  TupleBatch batch(ctx->batch_capacity());
  bool has_more = true;
  Status status;
  while (has_more) {
    status = op->NextBatch(&batch, &has_more);
    if (!status.ok()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      out->push_back(std::move(batch.tuple(i)));
    }
  }
  const Status close = op->Close();
  return status.ok() ? close : status;
}

}  // namespace

FragmentContexts::FragmentContexts(ExecContext* parent, size_t num_fragments)
    : counters_(num_fragments) {
  contexts_.reserve(num_fragments);
  for (size_t i = 0; i < num_fragments; ++i) {
    auto ctx = std::make_unique<ExecContext>(
        parent->disk(), parent->buffer_manager(), parent->pool(),
        &counters_[i]);
    ctx->set_sort_space_bytes(parent->sort_space_bytes());
    ctx->set_hash_memory_bytes(parent->hash_memory_bytes());
    ctx->set_batch_capacity(parent->batch_capacity());
    ctx->set_contract_checks(parent->contract_checks());
    // A cancelled query stops its fragments too: they poll the same flag
    // at every batch boundary.
    ctx->set_cancellation_flag(parent->cancellation_flag());
    // Profiling stays off in fragments: their work reports through the
    // parent plan's lane nodes, not as free-standing profile roots.
    if (parent->trace() != nullptr) ctx->set_trace(parent->trace());
    // Nested parallel regions run inline (exec/scheduler.h); making the
    // fragment context serial keeps dop-aware operators below from even
    // trying.
    ctx->set_dop(1);
    contexts_.push_back(std::move(ctx));
  }
}

FragmentContexts::~FragmentContexts() = default;

void FragmentContexts::MergeInto(ExecContext* parent) {
  RELDIV_DCHECK(!merged_) << "FragmentContexts::MergeInto called twice";
  merged_ = true;
  for (size_t i = 0; i < contexts_.size(); ++i) {
    *parent->counters() += counters_[i];
    // Fold the fragment's sub-page Move remainder through the parent's
    // accumulator in fragment order — reproduces the serial fold exactly.
    parent->CountMoveBytes(contexts_[i]->move_remainder_bytes());
  }
}

ExchangeOperator::ExchangeOperator(ExecContext* ctx, Schema schema,
                                   size_t num_fragments,
                                   FragmentFactory factory, GatherOrder order,
                                   std::string label)
    : ctx_(ctx),
      schema_(std::move(schema)),
      num_fragments_(num_fragments == 0 ? 1 : num_fragments),
      factory_(std::move(factory)),
      order_(order),
      label_(std::move(label)) {
  if (ctx_->profiling() && ctx_->profile() != nullptr) {
    QueryProfile* profile = ctx_->profile();
    lane_nodes_.reserve(num_fragments_);
    for (size_t f = 0; f < num_fragments_; ++f) {
      // Mark() = adopt nothing: lane nodes are leaves; the MaybeProfile
      // wrapper around this exchange adopts them (and any input subtree)
      // as its children.
      lane_nodes_.push_back(profile->CreateNode(
          label_ + ".lane[" + std::to_string(f) + "]", profile->Mark()));
    }
  }
}

Status ExchangeOperator::Open() {
  results_.clear();
  emit_pos_ = 0;
  return RunFragments();
}

Status ExchangeOperator::RunFragments() {
  const size_t n = num_fragments_;
  FragmentContexts fragments(ctx_, n);
  std::vector<std::vector<Tuple>> buffers(n);
  std::vector<size_t> completion;
  completion.reserve(n);
  // Guards `completion` across fragment lambdas. Function-local, so it
  // cannot carry a GUARDED_BY annotation (those attach to members); the
  // analyzer suppression records that.
  Mutex completion_mu;  // NOLINT(reldiv/mutex-guarded-by): local capability guarding `completion`; GUARDED_BY attaches to members only

  const size_t dop = std::min(ctx_->dop(), n);
  last_dop_ = dop == 0 ? 1 : dop;

  Status status = TaskScheduler::Global().ParallelFor(
      dop, n, [&](size_t f) -> Status {
        ExecContext* fc = fragments.fragment(f);
        const auto wall_start = std::chrono::steady_clock::now();
        TraceRecorder* trace = fc->trace();
        const uint64_t trace_start = trace != nullptr ? trace->NowMicros() : 0;

        RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> op,
                                factory_(f, fc));
        const Status drained = DrainFragment(op.get(), fc, &buffers[f]);

        const size_t lane = TaskScheduler::CurrentLane();
        const uint64_t wall_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count());
        if (f < lane_nodes_.size()) {
          // Exactly one fragment writes each lane node, so no lock is
          // needed; the node's counters are the fragment's, making the
          // exchange's self_cpu the gather overhead.
          OperatorMetrics& m = lane_nodes_[f]->metrics();
          m.opens += 1;
          m.closes += 1;
          m.next_ns += wall_ns;
          m.tuples_out += buffers[f].size();
          m.cpu += fragments.counters(f);
          m.gauges = {{"scheduler_lane", static_cast<double>(lane)},
                      {"fragment", static_cast<double>(f)}};
        }
        if (trace != nullptr) {
          trace->Complete(label_ + "-fragment", "parallel", trace_start,
                          trace->NowMicros() - trace_start,
                          /*tid=*/static_cast<uint32_t>(100 + lane),
                          {{"fragment", f},
                           {"lane", lane},
                           {"tuples", buffers[f].size()}});
        }
        {
          MutexLock lock(completion_mu);
          completion.push_back(f);
        }
        return drained;
      });

  // Merge even on failure: the work ran, its counters stay monotone.
  fragments.MergeInto(ctx_);
  RELDIV_RETURN_NOT_OK(status);

  size_t total = 0;
  for (const std::vector<Tuple>& b : buffers) total += b.size();
  results_.reserve(total);
  if (order_ == GatherOrder::kFragmentOrder) {
    for (std::vector<Tuple>& b : buffers) {
      for (Tuple& t : b) results_.push_back(std::move(t));
    }
  } else {
    for (size_t f : completion) {
      for (Tuple& t : buffers[f]) results_.push_back(std::move(t));
    }
  }
  return Status::OK();
}

Status ExchangeOperator::Next(Tuple* tuple, bool* has_next) {
  if (emit_pos_ >= results_.size()) {
    *has_next = false;
    return Status::OK();
  }
  *tuple = std::move(results_[emit_pos_++]);
  *has_next = true;
  return Status::OK();
}

Status ExchangeOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  batch->Clear();
  const size_t n = std::min(batch->capacity(), results_.size() - emit_pos_);
  for (size_t i = 0; i < n; ++i) {
    batch->PushBack(std::move(results_[emit_pos_ + i]));
  }
  emit_pos_ += n;
  *has_more = emit_pos_ < results_.size();
  return Status::OK();
}

Status ExchangeOperator::Close() {
  results_.clear();
  results_.shrink_to_fit();
  emit_pos_ = 0;
  return Status::OK();
}

void ExchangeOperator::ExportGauges(GaugeList* gauges) const {
  gauges->emplace_back(metric_names::kGaugeExchangeFragments,
                       static_cast<double>(num_fragments_));
  gauges->emplace_back(metric_names::kGaugeExchangeDop,
                       static_cast<double>(last_dop_));
}

ExchangeBuffer::ExchangeBuffer(Schema schema, size_t num_partitions)
    : codec_(std::move(schema)), partitions_(num_partitions) {
  RELDIV_CHECK(num_partitions > 0);
}

Status ExchangeBuffer::Route(ExecContext* ctx, const TupleBatch& batch,
                             const std::vector<size_t>& key_attrs) {
  for (const Tuple& tuple : batch) {
    ctx->CountHashes(1);  // one partitioning-function application (§3.4)
    RELDIV_RETURN_NOT_OK(Append(
        HashPartitionOf(tuple, key_attrs, partitions_.size()), tuple));
  }
  return Status::OK();
}

Status ExchangeBuffer::Append(size_t p, const Tuple& tuple) {
  Partition& part = partitions_[p];
  RELDIV_RETURN_NOT_OK(codec_.Encode(tuple, &part.bytes));
  part.ends.push_back(part.bytes.size());
  return Status::OK();
}

Status ExchangeBuffer::Read(size_t p, size_t* cursor, TupleBatch* batch) const {
  batch->Clear();
  const Partition& part = partitions_[p];
  const size_t end = std::min(part.ends.size(), *cursor + batch->capacity());
  size_t begin = *cursor == 0 ? 0 : part.ends[*cursor - 1];
  for (size_t row = *cursor; row < end; ++row) {
    // Decode overwrites the whole slot, so its value buffers are reused.
    RELDIV_RETURN_NOT_OK(
        codec_.Decode(Slice(part.bytes.data() + begin, part.ends[row] - begin),
                      batch->AddSlotForOverwrite()));
    begin = part.ends[row];
  }
  *cursor = end;
  return Status::OK();
}

void ExchangeBuffer::Release(size_t p) {
  Partition& part = partitions_[p];
  part.bytes.clear();
  part.bytes.shrink_to_fit();
  part.ends.clear();
  part.ends.shrink_to_fit();
}

Result<ExchangeBuffer> DrainAndHashRepartition(
    ExecContext* ctx, Operator* source, const std::vector<size_t>& key_attrs,
    size_t num_partitions) {
  ExchangeBuffer buffer(source->output_schema(), num_partitions);
  RELDIV_RETURN_NOT_OK(source->Open());
  TupleBatch batch(ctx->batch_capacity());
  bool has_more = true;
  Status status;
  while (has_more && status.ok()) {
    status = source->NextBatch(&batch, &has_more);
    if (status.ok()) status = buffer.Route(ctx, batch, key_attrs);
  }
  const Status close = source->Close();
  if (status.ok()) status = close;
  RELDIV_RETURN_NOT_OK(status);
  return buffer;
}

}  // namespace reldiv
