#ifndef RELDIV_EXEC_EXCHANGE_H_
#define RELDIV_EXEC_EXCHANGE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/row_codec.h"
#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

class MetricsNode;

/// Per-fragment execution contexts for one parallel section. Each fragment
/// gets a private ExecContext sharing the parent's (thread-safe) disk,
/// buffer manager, and memory pool but counting Table 1 work into a private
/// CpuCounters — concurrent fragments never race on the parent's counters.
///
/// MergeInto() folds the fragment counters back into the parent IN FRAGMENT
/// ORDER, including each fragment's sub-page Move remainder via
/// ExecContext::CountMoveBytes. Because Move units are a cumulative fold of
/// byte volume (floor per page with a carried remainder), merging remainders
/// in a fixed order reproduces the serial fold exactly: the merged totals
/// are independent of which worker lane ran which fragment and of the
/// degree of parallelism — the property the lane-equivalence suite pins.
class FragmentContexts {
 public:
  FragmentContexts(ExecContext* parent, size_t num_fragments);
  ~FragmentContexts();

  FragmentContexts(const FragmentContexts&) = delete;
  FragmentContexts& operator=(const FragmentContexts&) = delete;

  size_t size() const { return contexts_.size(); }
  ExecContext* fragment(size_t i) { return contexts_[i].get(); }
  const CpuCounters& counters(size_t i) const { return counters_[i]; }

  /// Adds every fragment's counters and Move remainder to `parent`, in
  /// fragment order. Call exactly once, after the parallel section ends
  /// (also on failure: executed work stays counted, keeping the parent's
  /// counters monotone).
  void MergeInto(ExecContext* parent);

 private:
  std::vector<CpuCounters> counters_;  // sized once; pointer-stable
  std::vector<std::unique_ptr<ExecContext>> contexts_;
  bool merged_ = false;
};

/// Gather policy of an ExchangeOperator.
enum class GatherOrder {
  /// Concatenate fragment outputs in fragment order — deterministic across
  /// worker counts; the default wherever results feed assertions.
  kFragmentOrder,
  /// Concatenate in completion order — models Volcano's non-deterministic
  /// merge; throughput-oriented consumers that re-aggregate anyway.
  kCompletionOrder,
};

/// Volcano exchange operator, intra-node edition: runs `num_fragments`
/// independent sub-pipelines on up to ExecContext::dop() scheduler lanes
/// and gathers their outputs. The fragment pipelines are built lazily by a
/// factory, each against a private FragmentContexts context, so parallelism
/// is encapsulated here and the sub-plans stay oblivious (Graefe's
/// "encapsulation of parallelism" argument).
///
/// The fragment COUNT is the caller's and must not depend on dop; with
/// kFragmentOrder the output stream and the merged Table 1 counters are
/// then bit-identical at every worker count.
///
/// Observability: when the parent context is profiling, the constructor
/// registers one child MetricsNode per fragment ("lane[i]"), which the
/// MaybeProfile wrapper around this operator adopts; each run fills them
/// with the fragment's tuples, wall time, CPU counters, and the scheduler
/// lane that executed it. With a TraceRecorder attached, each fragment
/// emits a Complete span on timeline 100 + lane.
class ExchangeOperator : public Operator {
 public:
  using FragmentFactory =
      std::function<Result<std::unique_ptr<Operator>>(size_t fragment,
                                                      ExecContext* ctx)>;

  ExchangeOperator(ExecContext* ctx, Schema schema, size_t num_fragments,
                   FragmentFactory factory,
                   GatherOrder order = GatherOrder::kFragmentOrder,
                   std::string label = "exchange");

  const Schema& output_schema() const override { return schema_; }
  bool IsBatchNative() const override { return true; }

  Status Open() override;
  Status Next(Tuple* tuple, bool* has_next) override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;

  void ExportGauges(GaugeList* gauges) const override;

 private:
  Status RunFragments();

  ExecContext* ctx_;
  Schema schema_;
  size_t num_fragments_;
  FragmentFactory factory_;
  GatherOrder order_;
  std::string label_;

  /// Per-fragment metrics lanes (profiling only); owned by the context's
  /// QueryProfile, adopted as children by this operator's profile node.
  std::vector<MetricsNode*> lane_nodes_;

  std::vector<Tuple> results_;
  size_t emit_pos_ = 0;
  size_t last_dop_ = 1;  ///< lanes used by the most recent Open
};

/// The dividend side of an in-process hash exchange: the rows routed to each
/// of `num_partitions` partitions, held RowCodec-encoded (the record format
/// of the pages) rather than as one heap allocation per Tuple. Each
/// partition is one contiguous byte buffer of rows laid back to back plus
/// the end offset of every row, so variable-width (string) rows need no
/// fixed stride.
///
/// Route() applies the §3.4/§6 partitioning function (parallel/partitioner.h)
/// and charges one Hash per routed tuple; the encode on the way in and the
/// decode on the way out are uncharged physical copies, as tuple hand-offs
/// between operators are, so Table 1 totals do not depend on the buffer.
/// Append() is the bare encode, for callers that chose the partition
/// themselves (the §6 engine's senders, whose routing was never charged).
/// Partition contents depend only on the data and the partition count,
/// never on the worker count. Concurrent fragments may Read() and Release()
/// distinct partitions.
class ExchangeBuffer {
 public:
  ExchangeBuffer(Schema schema, size_t num_partitions);

  size_t num_partitions() const { return partitions_.size(); }
  /// Rows held by partition `p`.
  size_t rows(size_t p) const { return partitions_[p].ends.size(); }

  /// Encodes every tuple of `batch` into the partition its `key_attrs` hash
  /// to, counting one Hash per tuple on `ctx`. InvalidArgument when a tuple
  /// does not match the schema.
  Status Route(ExecContext* ctx, const TupleBatch& batch,
               const std::vector<size_t>& key_attrs);

  /// Encodes `tuple` into partition `p`, uncharged. InvalidArgument when
  /// the tuple does not match the schema.
  Status Append(size_t p, const Tuple& tuple);

  /// Encoded length in bytes of partition `p`'s row `row`.
  size_t row_bytes(size_t p, size_t row) const {
    const std::vector<size_t>& ends = partitions_[p].ends;
    return ends[row] - (row == 0 ? 0 : ends[row - 1]);
  }

  /// Decodes partition `p`'s rows from row `*cursor` on into `batch`
  /// (cleared first, filled up to its capacity with reused slots) and
  /// advances `*cursor`. An empty batch means the partition is exhausted.
  Status Read(size_t p, size_t* cursor, TupleBatch* batch) const;

  /// Frees partition `p`'s storage; the fragment that consumed it calls
  /// this, so the buffers are freed concurrently rather than by the caller.
  void Release(size_t p);

 private:
  struct Partition {
    std::string bytes;         ///< encoded rows, back to back
    std::vector<size_t> ends;  ///< end offset of each row in `bytes`
  };

  RowCodec codec_;
  std::vector<Partition> partitions_;
};

/// Drains `source` (open → batches → close) into an ExchangeBuffer of
/// `num_partitions` partitions keyed on `key_attrs`: the serial repartition
/// half of an in-process hash exchange.
Result<ExchangeBuffer> DrainAndHashRepartition(
    ExecContext* ctx, Operator* source, const std::vector<size_t>& key_attrs,
    size_t num_partitions);

}  // namespace reldiv

#endif  // RELDIV_EXEC_EXCHANGE_H_
