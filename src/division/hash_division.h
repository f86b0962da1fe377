#ifndef RELDIV_DIVISION_HASH_DIVISION_H_
#define RELDIV_DIVISION_HASH_DIVISION_H_

#include <memory>
#include <utility>
#include <vector>

#include "division/division.h"
#include "exec/exec_context.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "storage/memory_manager.h"

namespace reldiv {

/// Reusable engine implementing the three steps of Figure 1. Factored out of
/// the operator so that the overflow-partitioned (§3.4) and multi-processor
/// (§6) variants can drive the same logic: the divisor table can be built
/// once and divided against several dividend streams (quotient partitioning
/// keeps the divisor table resident across phases), and the quotient table
/// can be reset per phase.
class HashDivisionCore {
 public:
  /// `match_attrs`: dividend columns matched positionally against all
  /// divisor columns. `quotient_attrs`: the remaining dividend columns.
  HashDivisionCore(ExecContext* ctx, std::vector<size_t> match_attrs,
                   std::vector<size_t> quotient_attrs,
                   const DivisionOptions& options);

  /// Step 1: builds the divisor table, assigning dense divisor numbers.
  /// Duplicates in the divisor are eliminated on the fly (§3.3, point 5).
  /// `divisor` is opened here and closed again on success AND on error — an
  /// abandoned open input would hold buffer pins past the build.
  /// ResourceExhausted when the table outgrows the pool or the
  /// ExecContext::hash_memory_bytes() budget (the §3.4 overflow trigger).
  Status BuildDivisorTable(Operator* divisor,
                           uint64_t expected_cardinality = 0);

  /// Seeds the divisor table from pre-numbered tuples (used by the
  /// collection phase of divisor partitioning, which divides over phase
  /// numbers instead — §3.4).
  Status BuildDivisorTableFromNumbered(
      const std::vector<std::pair<Tuple, uint64_t>>& numbered,
      uint64_t divisor_count);

  /// Shares `owner`'s already-built divisor table (and its dense numbering)
  /// instead of building one: the §6 quotient-partitioning form in-process,
  /// where parallel fragments probe one read-only divisor table. The owner
  /// must outlive this core and must not mutate the table while it is
  /// borrowed. Probes through a borrowed table charge THIS core's context,
  /// so concurrent fragments never race on cost counters. A borrowing
  /// core's memory_bytes() adds a snapshot of the shared table's footprint
  /// to its own quotient table, so hash_memory_bytes budget checks (the
  /// §3.4 overflow trigger) fire exactly where the serial plan's would.
  void BorrowDivisorTable(const HashDivisionCore& owner);

  /// Prepares an empty quotient table (step 2 state). May be called again
  /// to start a new phase; the previous table's memory is released.
  Status ResetQuotientTable(uint64_t expected_cardinality = 0);

  /// Step 2, one dividend tuple. With early output enabled, quotient tuples
  /// whose bit map just filled are appended to `early_out` (§3.3, point 2);
  /// otherwise `early_out` may be nullptr.
  Status Consume(const Tuple& dividend, std::vector<Tuple>* early_out);

  /// Step 2, one dividend batch: the vectorized probe/extend loop. Performs
  /// exactly the per-tuple work of Consume() for each tuple in order, but
  /// bumps the ExecContext cost counters once per batch with the accumulated
  /// totals, so Table 1–4 accounting is bit-identical to the tuple path.
  Status ConsumeBatch(const TupleBatch& batch, std::vector<Tuple>* early_out);

  /// Step 3: scans the quotient table and appends every tuple whose bit map
  /// contains no zero (or whose counter reached the divisor count). A no-op
  /// when early output is enabled — those tuples were produced eagerly.
  Status EmitComplete(std::vector<Tuple>* out);

  uint64_t divisor_count() const { return divisor_count_; }
  size_t quotient_candidates() const {
    return quotient_table_ == nullptr ? 0 : quotient_table_->size();
  }
  size_t memory_bytes() const {
    return divisor_arena_.bytes_allocated() + borrowed_divisor_bytes_ +
           (quotient_arena_ == nullptr ? 0
                                       : quotient_arena_->bytes_allocated());
  }
  /// Distinct (quotient candidate, divisor number) pairs recorded — the
  /// number of 1-bits across all candidate bit maps (counter increments in
  /// the §3.3 point 6 variant). bits_set / (candidates * divisor_count) is
  /// the bit-map fill ratio.
  uint64_t bits_set() const { return bits_set_; }
  /// Quotient tuples produced eagerly by the §3.3 early-output rule.
  uint64_t early_emits() const { return early_emits_; }

 private:
  bool use_bitmaps() const { return !options_.counters_instead_of_bitmaps; }

  /// Cost-counter bumps accumulated across a batch and flushed once.
  struct PendingCounts {
    uint64_t comparisons = 0;
    uint64_t bit_ops = 0;
  };

  /// BuildDivisorTable minus open/close of the input.
  Status ConsumeDivisorStream(Operator* divisor,
                              uint64_t expected_cardinality);

  /// Enforces ExecContext::hash_memory_bytes() (0 = unlimited) over both
  /// tables' arenas. Called only when a table grew, so probe hits are free.
  Status CheckBudget(const char* stage) const;

  Status ConsumeOne(const Tuple& dividend, std::vector<Tuple>* early_out,
                    PendingCounts* pending);
  /// The quotient-table half of ConsumeOne, with the (already counted)
  /// quotient key hash supplied by the caller.
  Status ProbeQuotient(const Tuple& dividend, uint64_t divisor_number,
                       uint64_t quotient_hash, std::vector<Tuple>* early_out,
                       PendingCounts* pending);
  void FlushCounts(const PendingCounts& pending);

  /// Scratch for ConsumeBatch's staged probe: dividend tuples that matched a
  /// divisor tuple, awaiting their quotient-table chain walk.
  struct StagedProbe {
    const Tuple* dividend;
    uint64_t divisor_number;
    uint64_t quotient_hash;
  };
  std::vector<StagedProbe> staged_;

  /// Scratch for the kernelized (single-int64-key) batch path: extracted key
  /// columns and the batched probe hashes (exec/kernels). Reused across
  /// batches, so the steady state allocates nothing.
  std::vector<int64_t> match_keys_;
  std::vector<int64_t> quotient_col_;
  std::vector<int64_t> quotient_keys_matched_;
  std::vector<uint64_t> match_hashes_;
  std::vector<uint64_t> quotient_hashes_;

  ExecContext* ctx_;
  std::vector<size_t> match_attrs_;
  std::vector<size_t> quotient_attrs_;
  DivisionOptions options_;

  Arena divisor_arena_;
  std::unique_ptr<Arena> quotient_arena_;
  std::unique_ptr<TupleHashTable> divisor_table_;
  std::unique_ptr<TupleHashTable> quotient_table_;
  /// The table probed in step 2: divisor_table_.get() after a build, or the
  /// owner's table after BorrowDivisorTable. All probes go through the
  /// counted-context overloads so a shared table charges the prober.
  const TupleHashTable* divisor_view_ = nullptr;
  /// Footprint of a borrowed divisor table at borrow time (the owner's
  /// table no longer grows then), counted into memory_bytes() so budget
  /// checks match the owning/serial plan's.
  size_t borrowed_divisor_bytes_ = 0;
  uint64_t divisor_count_ = 0;
  uint64_t bits_set_ = 0;
  uint64_t early_emits_ = 0;
};

class ExchangeBuffer;

/// The fragment-parallel half of §6 quotient partitioning in-process, run by
/// HashDivisionOperator::OpenParallel: each partition of the (already
/// repartitioned) dividend is divided by a private core borrowing
/// `shared_core`'s divisor table on a private counter context. A fragment
/// decodes its partition a batch at a time into one reused TupleBatch,
/// probes it through ConsumeBatch, and releases the partition inside its
/// own task. The fragment outputs are concatenated into `results` in
/// fragment order — deterministic for any worker count. Fragment counters
/// merge into `ctx` in fragment order even on failure.
Status RunDivisionFragments(ExecContext* ctx,
                            const std::vector<size_t>& match_attrs,
                            const std::vector<size_t>& quotient_attrs,
                            const DivisionOptions& options,
                            const HashDivisionCore& shared_core,
                            ExchangeBuffer* buckets,
                            std::vector<Tuple>* results);

/// Hash-division (§3): the paper's new algorithm. Two hash tables — the
/// divisor table maps divisor tuples to dense divisor numbers; the quotient
/// table holds quotient candidates, each with a bit map indexed by divisor
/// number. The quotient is exactly the candidates whose bit map has no zero
/// bit. Dividend tuples with no matching divisor tuple are discarded
/// immediately; dividend duplicates are ignored automatically; divisor
/// duplicates are eliminated while building the divisor table.
///
/// Default mode is a stop-and-go operator (inputs consumed in Open(),
/// quotient produced by scanning the table). With
/// DivisionOptions::early_output the operator becomes a pipelined producer:
/// each quotient tuple is emitted the moment its counter reaches the divisor
/// count.
class HashDivisionOperator : public Operator {
 public:
  HashDivisionOperator(ExecContext* ctx, std::unique_ptr<Operator> dividend,
                       std::unique_ptr<Operator> divisor,
                       std::vector<size_t> match_attrs,
                       std::vector<size_t> quotient_attrs,
                       const DivisionOptions& options = {});

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status Next(Tuple* tuple, bool* has_next) override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  /// Batch-native when both inputs are: the dividend is consumed through
  /// ConsumeBatch and the quotient is emitted batch-wise.
  bool IsBatchNative() const override {
    return dividend_->IsBatchNative() && divisor_->IsBatchNative();
  }
  Status Close() override;

  /// Divisor cardinality, quotient candidates, table memory, bit-map fill
  /// ratio, and (with early output) eager emissions. Live only while the
  /// core exists, i.e. between Open() and Close().
  void ExportGauges(GaugeList* gauges) const override;

 private:
  /// The DivisionOptions::parallel_fragments path: divisor table built once,
  /// dividend hash-repartitioned on the quotient attributes, fragments
  /// divided concurrently with private quotient tables, results concatenated
  /// in fragment order (deterministic output for any worker count).
  Status OpenParallel();

  ExecContext* ctx_;
  std::unique_ptr<Operator> dividend_;
  std::unique_ptr<Operator> divisor_;
  std::vector<size_t> match_attrs_;
  std::vector<size_t> quotient_attrs_;
  DivisionOptions options_;
  Schema schema_;

  std::unique_ptr<HashDivisionCore> core_;
  std::vector<Tuple> results_;  ///< stop-and-go output / early-output buffer
  TupleBatch input_batch_{1};   ///< early-output dividend pull buffer
  size_t emit_pos_ = 0;
  bool dividend_done_ = false;
};

}  // namespace reldiv

#endif  // RELDIV_DIVISION_HASH_DIVISION_H_
