#ifndef RELDIV_EXEC_FUSED_FUSED_DIVISION_H_
#define RELDIV_EXEC_FUSED_FUSED_DIVISION_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/metric_names.h"
#include "division/division.h"
#include "division/hash_division.h"
#include "exec/exchange.h"
#include "exec/fused/fused_pipeline.h"

namespace reldiv {
namespace fused {

/// Hash-division with the dividend side fused: scan decode, the optional
/// filter, and the staged divisor/quotient probes of HashDivisionCore run in
/// one NextBatch body with no operator boundary between them. The divisor
/// stays an ordinary child Operator (it is consumed once, during the build,
/// where dispatch cost is irrelevant). Mirrors HashDivisionOperator mode for
/// mode — stop-and-go, early output, counters-instead-of-bitmaps, and
/// parallel fragments — with bit-identical quotients and Table 1 counters.
template <typename Source>
class FusedHashDivision final
    : public FusedOperatorBase<FusedHashDivision<Source>> {
 public:
  FusedHashDivision(ExecContext* ctx, Source source,
                    std::unique_ptr<Operator> divisor,
                    std::vector<size_t> match_attrs,
                    std::vector<size_t> quotient_attrs,
                    const DivisionOptions& options, FusedFilter filter)
      : ctx_(ctx),
        source_(std::move(source)),
        divisor_(std::move(divisor)),
        match_attrs_(std::move(match_attrs)),
        quotient_attrs_(std::move(quotient_attrs)),
        options_(options),
        filter_(filter),
        schema_(source_.schema().Project(quotient_attrs_)) {}

  const Schema& output_schema() const override { return schema_; }

  size_t BatchCapacity() const { return ctx_->batch_capacity(); }

  Status OpenImpl() {
    results_.clear();
    emit_pos_ = 0;
    source_done_ = false;

    if (options_.parallel_fragments > 0) {
      if (options_.early_output) {
        return Status::InvalidArgument(
            "hash-division: parallel_fragments is incompatible with "
            "early_output (eager emission is ordered by dividend arrival)");
      }
      return OpenParallelImpl();
    }

    core_ = std::make_unique<HashDivisionCore>(ctx_, match_attrs_,
                                               quotient_attrs_, options_);
    RELDIV_RETURN_NOT_OK(core_->BuildDivisorTable(divisor_.get()));
    RELDIV_RETURN_NOT_OK(core_->ResetQuotientTable());
    RELDIV_RETURN_NOT_OK(source_.Open());
    source_open_ = true;
    PrepareInputBatch();

    if (!options_.early_output) {
      // Stop-and-go: the fused decode→filter→probe loop drains the source
      // here; step 3 is emitted lazily by NextBatchImpl.
      bool has_more = true;
      while (has_more) {
        input_batch_.Clear();
        RELDIV_RETURN_NOT_OK(source_.NextBatchInto(&input_batch_, &has_more));
        RELDIV_RETURN_NOT_OK(filter_.Apply(&input_batch_));
        RELDIV_RETURN_NOT_OK(core_->ConsumeBatch(input_batch_, nullptr));
      }
      source_open_ = false;
      source_done_ = true;
      RELDIV_RETURN_NOT_OK(source_.Close());
      RELDIV_RETURN_NOT_OK(core_->EmitComplete(&results_));
    }
    return Status::OK();
  }

  Status NextBatchImpl(TupleBatch* batch, bool* has_more) {
    while (true) {
      while (!batch->full() && emit_pos_ < results_.size()) {
        batch->PushBack(std::move(results_[emit_pos_++]));
      }
      if (batch->full() && (emit_pos_ < results_.size() || !source_done_)) {
        *has_more = true;
        return Status::OK();
      }
      if (source_done_) {
        *has_more = false;
        return Status::OK();
      }
      // Early-output mode: run the fused loop until some candidate
      // completes or the input ends.
      results_.clear();
      emit_pos_ = 0;
      bool input_more = false;
      input_batch_.Clear();
      RELDIV_RETURN_NOT_OK(source_.NextBatchInto(&input_batch_, &input_more));
      RELDIV_RETURN_NOT_OK(filter_.Apply(&input_batch_));
      RELDIV_RETURN_NOT_OK(core_->ConsumeBatch(input_batch_, &results_));
      if (!input_more) {
        source_open_ = false;
        source_done_ = true;
        RELDIV_RETURN_NOT_OK(source_.Close());
      }
    }
  }

  Status CloseImpl() {
    // Early-out audit (DESIGN.md §12): HashDivisionCore flushes its counter
    // deltas at the end of every Consume/ConsumeBatch call and holds no
    // pending counts across calls, so abandoning an early-output stream
    // leaves nothing to flush here — Close() only settles the source.
    Status status;
    if (source_open_) {
      source_open_ = false;
      status = source_.Close();
    }
    source_done_ = true;
    core_.reset();
    results_.clear();
    return status;
  }

  void ExportGauges(GaugeList* gauges) const override {
    gauges->emplace_back(metric_names::kGaugeFusedPipeline, 1.0);
    gauges->emplace_back(
        metric_names::kGaugeSimdKernels,
        kernels::ActiveLevel() == kernels::Level::kSimd ? 1.0 : 0.0);
    if (core_ == nullptr) return;
    const double divisor = static_cast<double>(core_->divisor_count());
    const double candidates =
        static_cast<double>(core_->quotient_candidates());
    gauges->emplace_back(metric_names::kGaugeDivisorCount, divisor);
    gauges->emplace_back(metric_names::kGaugeQuotientCandidates, candidates);
    gauges->emplace_back(metric_names::kGaugeHashMemoryBytes,
                         static_cast<double>(core_->memory_bytes()));
    const double cells = divisor * candidates;
    gauges->emplace_back(
        metric_names::kGaugeBitmapFillRatio,
        cells == 0 ? 0.0 : static_cast<double>(core_->bits_set()) / cells);
    if (options_.early_output) {
      gauges->emplace_back(metric_names::kGaugeEarlyOutputHits,
                           static_cast<double>(core_->early_emits()));
    }
    if (options_.parallel_fragments > 0) {
      gauges->emplace_back(metric_names::kGaugeParallelFragments,
                           static_cast<double>(options_.parallel_fragments));
    }
  }

 private:
  void PrepareInputBatch() {
    if (input_batch_.capacity() != ctx_->batch_capacity()) {
      input_batch_.ResetCapacity(ctx_->batch_capacity(), ctx_->pool());
    }
  }

  Status OpenParallelImpl() {
    // The fused form of HashDivisionOperator::OpenParallel: the divisor
    // table is built once; the drain→filter loop below routes every batch
    // through the same ExchangeBuffer::Route as DrainAndHashRepartition, and
    // the fragment run is the shared RunDivisionFragments — so counter
    // totals and output order match the virtual parallel plan at any dop.
    core_ = std::make_unique<HashDivisionCore>(ctx_, match_attrs_,
                                               quotient_attrs_, options_);
    RELDIV_RETURN_NOT_OK(core_->BuildDivisorTable(divisor_.get()));

    ExchangeBuffer buckets(source_.schema(), options_.parallel_fragments);
    RELDIV_RETURN_NOT_OK(source_.Open());
    source_open_ = true;
    PrepareInputBatch();
    Status status;
    bool has_more = true;
    while (has_more && status.ok()) {
      input_batch_.Clear();
      status = source_.NextBatchInto(&input_batch_, &has_more);
      if (status.ok()) status = filter_.Apply(&input_batch_);
      if (status.ok()) {
        status = buckets.Route(ctx_, input_batch_, quotient_attrs_);
      }
    }
    // Close on success AND on error; the drain error wins (the idiom of
    // DrainAndHashRepartition).
    source_open_ = false;
    Status close_status = source_.Close();
    if (status.ok()) status = close_status;
    RELDIV_RETURN_NOT_OK(status);
    source_done_ = true;

    return RunDivisionFragments(ctx_, match_attrs_, quotient_attrs_, options_,
                                *core_, &buckets, &results_);
  }

  ExecContext* ctx_;
  Source source_;
  std::unique_ptr<Operator> divisor_;
  std::vector<size_t> match_attrs_;
  std::vector<size_t> quotient_attrs_;
  DivisionOptions options_;
  FusedFilterRunner filter_;
  Schema schema_;

  std::unique_ptr<HashDivisionCore> core_;
  std::vector<Tuple> results_;
  TupleBatch input_batch_{1};
  size_t emit_pos_ = 0;
  bool source_open_ = false;
  bool source_done_ = false;
};

/// Fused hash-division whose dividend is a stored relation: the scan decode
/// is inlined into the probe loop. The divisor operator is consumed during
/// the build as usual (wrap it in profiling/contract checks freely).
std::unique_ptr<Operator> MakeFusedHashDivision(
    ExecContext* ctx, const ResolvedDivision& resolved,
    std::unique_ptr<Operator> divisor, const DivisionOptions& options,
    const FusedFilter& filter = {});

/// Fused hash-division over an in-memory dividend (tests and benches). The
/// vector and schema must outlive the returned operator.
std::unique_ptr<Operator> MakeFusedHashDivisionOverVector(
    ExecContext* ctx, const Schema* dividend_schema,
    const std::vector<Tuple>* dividend, std::unique_ptr<Operator> divisor,
    std::vector<size_t> match_attrs, std::vector<size_t> quotient_attrs,
    const DivisionOptions& options, const FusedFilter& filter = {});

/// Fused scan→filter→project over a stored relation.
std::unique_ptr<Operator> MakeFusedScanFilterProject(
    ExecContext* ctx, Relation relation, const FusedFilter& filter,
    std::vector<size_t> projection);

/// Fused scan→filter→project over an in-memory vector.
std::unique_ptr<Operator> MakeFusedScanFilterProjectOverVector(
    ExecContext* ctx, const Schema* schema, const std::vector<Tuple>* tuples,
    const FusedFilter& filter, std::vector<size_t> projection);

}  // namespace fused
}  // namespace reldiv

#endif  // RELDIV_EXEC_FUSED_FUSED_DIVISION_H_
