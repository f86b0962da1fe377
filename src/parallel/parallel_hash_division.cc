#include "parallel/parallel_hash_division.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/check.h"
#include "common/row_codec.h"
#include "cost/cost_model.h"
#include "division/hash_division.h"
#include "exec/exchange.h"
#include "exec/mem_source.h"
#include "exec/scheduler.h"
#include "parallel/bit_vector_filter.h"
#include "parallel/partitioner.h"

namespace reldiv {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Destination of a row that a sender's bit-vector filter dropped.
constexpr size_t kDropped = ~size_t{0};

/// One sending node's half of a redistribution: its rows encoded per
/// destination node, plus the destination of every row it kept, in the
/// order it holds them — the shipments the coordinator replays.
struct SenderOutput {
  ExchangeBuffer rows;
  std::vector<uint32_t> destinations;
  uint64_t shipped = 0;   ///< rows sent to another node
  uint64_t filtered = 0;  ///< rows the filter dropped
};

/// Redistributes `tuples` across the interconnect's nodes. Base relations
/// start round-robin declustered (as in GAMMA), so sending node i owns rows
/// i, i+n, i+2n, ... of `tuples`; `destination(tuple)` names each row's
/// receiving node, or kDropped. The senders run as scheduler tasks, each
/// computing its rows' destinations and encoding the rows into its own
/// ExchangeBuffer. The coordinator then replays the shipments on `net`,
/// sender-major and in row order within a sender, each shipment the row's
/// encoded length: failpoint hits, retries and traffic counts follow that
/// one order at any worker count. A row that does not match `schema` fails
/// the redistribution (InvalidArgument) before anything is shipped.
template <typename DestinationFn>
Result<std::vector<SenderOutput>> Redistribute(
    const Schema& schema, const std::vector<Tuple>& tuples,
    Interconnect* net, const DestinationFn& destination) {
  const size_t n = net->num_nodes();
  std::vector<SenderOutput> senders;
  senders.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    senders.push_back(SenderOutput{ExchangeBuffer(schema, n), {}, 0, 0});
  }
  // Failures surface in sender order, whichever lane ran which sender.
  // Each sender counts in locals and writes its slot of `status` and its
  // SenderOutput totals once: neighbouring senders share cache lines.
  std::vector<Status> status(n);
  RELDIV_RETURN_NOT_OK(
      TaskScheduler::Global().ParallelFor(n, n, [&](size_t from) -> Status {
        SenderOutput& out = senders[from];
        out.destinations.reserve(tuples.size() / n + 1);
        uint64_t shipped = 0;
        uint64_t filtered = 0;
        for (size_t row = from; row < tuples.size(); row += n) {
          const Tuple& tuple = tuples[row];
          const size_t to = destination(tuple);
          if (to == kDropped) {
            filtered++;
            continue;
          }
          Status appended = out.rows.Append(to, tuple);
          if (!appended.ok()) {
            status[from] = std::move(appended);
            break;
          }
          out.destinations.push_back(static_cast<uint32_t>(to));
          if (to != from) shipped++;
        }
        out.shipped = shipped;
        out.filtered = filtered;
        return Status::OK();
      }));
  for (const Status& s : status) RELDIV_RETURN_NOT_OK(s);

  std::vector<size_t> cursor(n);
  for (size_t from = 0; from < n; ++from) {
    const SenderOutput& out = senders[from];
    std::fill(cursor.begin(), cursor.end(), 0);
    for (const uint32_t to : out.destinations) {
      RELDIV_RETURN_NOT_OK(
          net->Ship(from, to, out.rows.row_bytes(to, cursor[to]++)));
    }
  }
  return senders;
}

/// Rows of a redistribution addressed to node `me`.
uint64_t RowsFor(const std::vector<SenderOutput>& senders, size_t me) {
  uint64_t rows = 0;
  for (const SenderOutput& sender : senders) rows += sender.rows.rows(me);
  return rows;
}

/// Node `me`'s receiving side: decodes partition `me` of every sender's
/// buffer, in sender order, a batch at a time into `batch` and hands each
/// batch to `consume`; each partition is released once read, on the
/// calling lane. Receivers of distinct nodes may run concurrently.
template <typename ConsumeFn>
Status Receive(std::vector<SenderOutput>* senders, size_t me,
               TupleBatch* batch, const ConsumeFn& consume) {
  for (SenderOutput& sender : *senders) {
    size_t cursor = 0;
    while (cursor < sender.rows.rows(me)) {
      RELDIV_RETURN_NOT_OK(sender.rows.Read(me, &cursor, batch));
      RELDIV_RETURN_NOT_OK(consume(*batch));
    }
    sender.rows.Release(me);
  }
  return Status::OK();
}

/// Runs one node's local hash-division: `divisor` against the node's share
/// of the redistributed `dividend`, received a batch at a time. Fills
/// `metrics` and (with `trace`) emits one span on the node's lane.
Status LocalDivision(WorkerNode* node, const Schema& divisor_schema,
                     std::vector<Tuple> divisor,
                     std::vector<SenderOutput>* dividend,
                     const std::vector<size_t>& match_attrs,
                     const std::vector<size_t>& quotient_attrs,
                     const DivisionOptions& options,
                     std::vector<Tuple>* quotient,
                     NodeExecutionMetrics* metrics, TraceRecorder* trace) {
  const auto start = std::chrono::steady_clock::now();
  const uint64_t span_start_us = trace != nullptr ? trace->NowMicros() : 0;
  const size_t me = node->node_id();
  metrics->node_id = me;
  metrics->dividend_tuples = RowsFor(*dividend, me);
  const size_t quotient_before = quotient->size();
  const CpuCounters before = *node->counters();
  HashDivisionCore core(node->ctx(), match_attrs, quotient_attrs, options);
  MemSourceOperator divisor_source(divisor_schema, std::move(divisor));
  RELDIV_RETURN_NOT_OK(core.BuildDivisorTable(&divisor_source));
  RELDIV_RETURN_NOT_OK(core.ResetQuotientTable());
  TupleBatch batch(node->ctx()->batch_capacity());
  RELDIV_RETURN_NOT_OK(
      Receive(dividend, me, &batch, [&](const TupleBatch& rows) {
        return core.ConsumeBatch(rows, quotient);
      }));
  RELDIV_RETURN_NOT_OK(core.EmitComplete(quotient));
  metrics->local_ms = MsSince(start);
  metrics->quotient_tuples = quotient->size() - quotient_before;
  CpuCounters delta = *node->counters();
  delta -= before;
  metrics->cpu = delta;
  metrics->cpu_model_ms = CpuCostMs(delta);
  if (trace != nullptr) {
    trace->Complete("local-division", "parallel", span_start_us,
                    trace->NowMicros() - span_start_us,
                    static_cast<uint32_t>(1 + me),
                    {{"tuples_in", metrics->dividend_tuples},
                     {"quotient", metrics->quotient_tuples}});
  }
  return Status::OK();
}

}  // namespace

ParallelHashDivisionEngine::ParallelHashDivisionEngine(
    const ParallelDivisionOptions& options)
    : options_(options),
      interconnect_(options.num_nodes == 0 ? 1 : options.num_nodes) {
  const size_t n = options_.num_nodes == 0 ? 1 : options_.num_nodes;
  options_.num_nodes = n;
  nodes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<WorkerNode>(i,
                                                  options_.node_pool_bytes));
  }
}

ParallelHashDivisionEngine::~ParallelHashDivisionEngine() = default;

Result<ParallelDivisionResult> ParallelHashDivisionEngine::Execute(
    const Schema& dividend_schema, const Schema& divisor_schema,
    const std::vector<Tuple>& dividend, const std::vector<Tuple>& divisor,
    const std::vector<size_t>& match_attrs) {
  if (match_attrs.size() != divisor_schema.num_fields()) {
    return Status::InvalidArgument(
        "match attribute count must equal the divisor arity");
  }
  std::vector<size_t> quotient_attrs =
      dividend_schema.ComplementIndices(match_attrs);
  if (quotient_attrs.empty()) {
    return Status::InvalidArgument("division without quotient attributes");
  }

  interconnect_.set_trace(options_.trace);

  if (options_.strategy == PartitionStrategy::kQuotient) {
    return RunQuotientPartitioned(dividend_schema, divisor_schema, dividend,
                                  divisor, match_attrs, quotient_attrs);
  }
  return RunDivisorPartitioned(dividend_schema, divisor_schema, dividend,
                               divisor, match_attrs, quotient_attrs);
}

Result<ParallelDivisionResult>
ParallelHashDivisionEngine::RunQuotientPartitioned(
    const Schema& dividend_schema, const Schema& divisor_schema,
    const std::vector<Tuple>& dividend, const std::vector<Tuple>& divisor,
    const std::vector<size_t>& match_attrs,
    const std::vector<size_t>& quotient_attrs) {
  const size_t n = options_.num_nodes;
  ParallelDivisionResult result;
  const auto wall_start = std::chrono::steady_clock::now();

  // Replicate the divisor: every node broadcasts its declustered share
  // (rows i, i+n, ...) so that each node holds the full divisor table.
  RowCodec divisor_codec(divisor_schema);
  std::vector<Tuple> full_divisor;
  full_divisor.reserve(divisor.size());
  for (size_t i = 0; i < n; ++i) {
    uint64_t bytes = 0;
    for (size_t row = i; row < divisor.size(); row += n) {
      RELDIV_ASSIGN_OR_RETURN(size_t size,
                              divisor_codec.EncodedSize(divisor[row]));
      bytes += size;
      full_divisor.push_back(divisor[row]);
    }
    RELDIV_RETURN_NOT_OK(interconnect_.Broadcast(i, bytes));
  }

  // Optional bit-vector filter over the divisor's match-key hashes.
  std::unique_ptr<BitVectorFilter> filter;
  std::vector<size_t> divisor_all(divisor_schema.num_fields());
  for (size_t i = 0; i < divisor_all.size(); ++i) divisor_all[i] = i;
  if (options_.use_bit_vector_filter) {
    filter = std::make_unique<BitVectorFilter>(options_.bit_vector_bits);
    for (const Tuple& tuple : full_divisor) {
      filter->InsertHash(tuple.HashAt(divisor_all));
    }
  }

  // Redistribute the dividend on the quotient attributes.
  RELDIV_ASSIGN_OR_RETURN(
      std::vector<SenderOutput> incoming,
      Redistribute(dividend_schema, dividend, &interconnect_,
                   [&](const Tuple& tuple) {
                     if (filter != nullptr &&
                         !filter->MayContain(tuple.HashAt(match_attrs))) {
                       return kDropped;
                     }
                     return HashPartitionOf(tuple, quotient_attrs, n);
                   }));
  for (const SenderOutput& sender : incoming) {
    result.tuples_shipped += sender.shipped;
    result.tuples_filtered += sender.filtered;
  }

  // All local hash-division operators work completely independently.
  std::vector<std::vector<Tuple>> local_quotients(n);
  std::vector<NodeExecutionMetrics> node_metrics(n);
  std::vector<Status> local_status(n);
  // One scheduler morsel per node. Node failures land in local_status and
  // are reported in node order below, so error precedence never depends on
  // which lane ran which node.
  RELDIV_RETURN_NOT_OK(
      TaskScheduler::Global().ParallelFor(n, n, [&](size_t i) -> Status {
        local_status[i] = LocalDivision(
            nodes_[i].get(), divisor_schema, full_divisor, &incoming,
            match_attrs, quotient_attrs, options_.division,
            &local_quotients[i], &node_metrics[i], options_.trace);
        return Status::OK();
      }));
  // Quotient partitioning (§6): the clusters are disjoint by construction,
  // so the quotient of the whole division is their plain concatenation.
  // Executable form: every local quotient tuple must hash back to the node
  // that produced it under the redistribution function (the projected
  // quotient columns hash identically to the dividend's quotient columns).
  std::vector<size_t> projected_attrs(quotient_attrs.size());
  for (size_t i = 0; i < projected_attrs.size(); ++i) projected_attrs[i] = i;
  for (size_t i = 0; i < n; ++i) {
    RELDIV_RETURN_NOT_OK(local_status[i]);
    for ([[maybe_unused]] const Tuple& q : local_quotients[i]) {
      RELDIV_DCHECK_EQ(HashPartitionOf(q, projected_attrs, n), i)
          << "quotient tuple emitted by a node outside its hash cluster";
    }
    result.quotient.insert(
        result.quotient.end(),
        std::make_move_iterator(local_quotients[i].begin()),
        std::make_move_iterator(local_quotients[i].end()));
    result.max_node_ms = std::max(result.max_node_ms,
                                  node_metrics[i].local_ms);
    result.max_node_cpu_ms = std::max(result.max_node_cpu_ms,
                                      node_metrics[i].cpu_model_ms);
  }
  result.node_metrics = std::move(node_metrics);
  result.wall_ms = MsSince(wall_start);
  result.network_messages = interconnect_.messages();
  result.network_bytes = interconnect_.bytes();
  return result;
}

Result<ParallelDivisionResult>
ParallelHashDivisionEngine::RunDivisorPartitioned(
    const Schema& dividend_schema, const Schema& divisor_schema,
    const std::vector<Tuple>& dividend, const std::vector<Tuple>& divisor,
    const std::vector<size_t>& match_attrs,
    const std::vector<size_t>& quotient_attrs) {
  const size_t n = options_.num_nodes;
  ParallelDivisionResult result;
  const auto wall_start = std::chrono::steady_clock::now();

  std::vector<size_t> divisor_all(divisor_schema.num_fields());
  for (size_t i = 0; i < divisor_all.size(); ++i) divisor_all[i] = i;

  // Redistribute the divisor on all its attributes; the coordinator
  // gathers each node's (small) divisor cluster.
  RELDIV_ASSIGN_OR_RETURN(
      std::vector<SenderOutput> divisor_senders,
      Redistribute(divisor_schema, divisor, &interconnect_,
                   [&](const Tuple& tuple) {
                     return HashPartitionOf(tuple, divisor_all, n);
                   }));
  std::vector<std::vector<Tuple>> divisor_in(n);
  TupleBatch divisor_batch;
  for (size_t i = 0; i < n; ++i) {
    RELDIV_RETURN_NOT_OK(Receive(
        &divisor_senders, i, &divisor_batch, [&](const TupleBatch& rows) {
          for (const Tuple& tuple : rows) divisor_in[i].push_back(tuple);
          return Status::OK();
        }));
  }

  // Optional bit-vector filtering: each node builds a filter from its
  // divisor cluster; the union is shipped to every node and applied before
  // dividend redistribution.
  std::unique_ptr<BitVectorFilter> filter;
  if (options_.use_bit_vector_filter) {
    filter = std::make_unique<BitVectorFilter>(options_.bit_vector_bits);
    for (size_t i = 0; i < n; ++i) {
      BitVectorFilter local(options_.bit_vector_bits);
      for (const Tuple& tuple : divisor_in[i]) {
        local.InsertHash(tuple.HashAt(divisor_all));
      }
      RELDIV_RETURN_NOT_OK(interconnect_.Broadcast(i, local.byte_size()));
      filter->UnionWith(local);
    }
  }

  // Redistribute the dividend with the same function on the divisor attrs;
  // the filter probe and the partition share one hash of the match key.
  RELDIV_ASSIGN_OR_RETURN(
      std::vector<SenderOutput> dividend_in,
      Redistribute(dividend_schema, dividend, &interconnect_,
                   [&](const Tuple& tuple) {
                     const uint64_t hash = tuple.HashAt(match_attrs);
                     if (filter != nullptr && !filter->MayContain(hash)) {
                       return kDropped;
                     }
                     return static_cast<size_t>(hash % n);
                   }));
  for (const SenderOutput& sender : dividend_in) {
    result.tuples_shipped += sender.shipped;
    result.tuples_filtered += sender.filtered;
  }

  // Parallel phase: each node with a non-empty divisor cluster divides.
  std::vector<std::vector<Tuple>> local_quotients(n);
  std::vector<NodeExecutionMetrics> node_metrics(n);
  std::vector<Status> local_status(n);
  std::vector<size_t> participating;
  for (size_t i = 0; i < n; ++i) {
    if (!divisor_in[i].empty()) participating.push_back(i);
  }
  // One scheduler morsel per participating node; statuses surface in node
  // order during collection below.
  RELDIV_RETURN_NOT_OK(TaskScheduler::Global().ParallelFor(
      participating.size(), participating.size(), [&](size_t k) -> Status {
        const size_t i = participating[k];
        local_status[i] = LocalDivision(
            nodes_[i].get(), divisor_schema, std::move(divisor_in[i]),
            &dividend_in, match_attrs, quotient_attrs, options_.division,
            &local_quotients[i], &node_metrics[i], options_.trace);
        return Status::OK();
      }));

  if (participating.empty()) {
    // Entire divisor empty: empty quotient by convention.
    result.wall_ms = MsSince(wall_start);
    result.network_messages = interconnect_.messages();
    result.network_bytes = interconnect_.bytes();
    return result;
  }

  // Collection: quotient clusters arrive tagged with their processor
  // network address; divide them over the set of addresses. Either one
  // central site (node 0) or — decentralized — every node collects the
  // quotient values that hash to it.
  Schema quotient_schema = dividend_schema.Project(quotient_attrs);
  RowCodec quotient_codec(quotient_schema);
  DivisionOptions collect_options;
  std::vector<size_t> collect_quotient_attrs(quotient_attrs.size());
  for (size_t i = 0; i < collect_quotient_attrs.size(); ++i) {
    collect_quotient_attrs[i] = i;
  }
  std::vector<std::pair<Tuple, uint64_t>> numbered;
  for (size_t i = 0; i < participating.size(); ++i) {
    numbered.emplace_back(
        Tuple{Value::Int64(static_cast<int64_t>(participating[i]))}, i);
  }
  const size_t collector_count = options_.decentralized_collection ? n : 1;
  std::vector<std::unique_ptr<HashDivisionCore>> collectors;
  collectors.reserve(collector_count);
  for (size_t c = 0; c < collector_count; ++c) {
    collectors.push_back(std::make_unique<HashDivisionCore>(
        nodes_[c]->ctx(),
        std::vector<size_t>{collect_quotient_attrs.size()},
        collect_quotient_attrs, collect_options));
    RELDIV_RETURN_NOT_OK(collectors[c]->BuildDivisorTableFromNumbered(
        numbered, participating.size()));
    RELDIV_RETURN_NOT_OK(collectors[c]->ResetQuotientTable());
  }

  for (size_t i : participating) {
    RELDIV_RETURN_NOT_OK(local_status[i]);
    result.max_node_ms = std::max(result.max_node_ms,
                                  node_metrics[i].local_ms);
    result.max_node_cpu_ms = std::max(result.max_node_cpu_ms,
                                      node_metrics[i].cpu_model_ms);
    result.node_metrics.push_back(node_metrics[i]);
    for (Tuple& q : local_quotients[i]) {
      const size_t collector =
          options_.decentralized_collection
              ? HashPartitionOf(q, collect_quotient_attrs, n)
              : 0;
      RELDIV_ASSIGN_OR_RETURN(size_t bytes, quotient_codec.EncodedSize(q));
      RELDIV_RETURN_NOT_OK(
          interconnect_.Ship(i, collector, bytes + sizeof(int64_t)));
      q.Append(Value::Int64(static_cast<int64_t>(i)));
      RELDIV_RETURN_NOT_OK(collectors[collector]->Consume(q, nullptr));
    }
  }
  for (size_t c = 0; c < collector_count; ++c) {
    RELDIV_RETURN_NOT_OK(collectors[c]->EmitComplete(&result.quotient));
  }

  result.wall_ms = MsSince(wall_start);
  result.network_messages = interconnect_.messages();
  result.network_bytes = interconnect_.bytes();
  return result;
}

}  // namespace reldiv
