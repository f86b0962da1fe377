// Workload service_churn: the DivisionService with its QuotientCache,
// driven by 8 tenants with Zipf(1.0) query popularity over more queries than
// the cache holds, plus catalog writes that the cache maintains
// incrementally. The end-to-end figures come from one request in flight; the
// traced run adds an open loop with Poisson arrivals at one fixed rate and a
// closed loop with nproc requests in flight. The benchmark keeps its own
// model of every table and checks each answer against it. See WORKLOADS.md.

#include "perfbench/workloads.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "exec/database.h"
#include "obs/telemetry.h"
#include "perfbench/cold.h"
#include "service/service.h"

namespace perfbench {

using reldiv::Result;
using reldiv::Status;
using reldiv::Tuple;
using reldiv::Value;

namespace {

/// Sizes and rates of the service workload.
struct Shape {
  size_t dividend_tables;
  size_t divisor_tables;
  int64_t candidates;   ///< quotient candidates per dividend table (|Q|)
  int64_t domain;       ///< divisor values are drawn from [0, domain)
  size_t divisor_size;  ///< |S|
  double rate_ops;      ///< open-loop arrival rate, operations per second
  uint32_t write_percent;
  /// Loads in set-up; odd, so the nearest-rank median is a middle load.
  int setup_repeats;
  /// The timed window is cut into slices of about this many seconds, each
  /// running every phase in turn, so that every phase samples the host's
  /// speed, which moves in streaks of seconds, across the whole run.
  double slice_seconds;
};

Shape ShapeFor(const RunConfig& config) {
  Shape shape{.dividend_tables = 24,
              .divisor_tables = 4,
              .candidates = 500,
              .domain = 48,
              .divisor_size = 40,
              .rate_ops = 200.0,
              .write_percent = 10,
              .setup_repeats = 5,
              .slice_seconds = 2.0};
  if (config.tiny) {
    shape.candidates = 50;
    shape.setup_repeats = 1;
  }
  return shape;
}

constexpr size_t kTenants = 8;
constexpr size_t kCacheEntries = 64;
/// Share of each slice of an untraced run spent on the cold per-kind
/// queries; the one-in-flight closed loop takes the rest.
constexpr double kColdShare = 0.2;
/// p99 is the median p99 over windows of this many requests (in send
/// order), so a short stall of the host does not decide a run's figure.
constexpr size_t kLatencyWindow = 1000;
/// The open loop wakes this long before an arrival and polls the rest.
constexpr std::chrono::microseconds kSendEarly{50};

/// Zipf(1.0) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double total = 0;
    for (size_t k = 1; k <= n; ++k) cdf_.push_back(total += 1.0 / k);
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(reldiv::Rng* rng) const {
    const double u = static_cast<double>(rng->Next() >> 11) * 0x1p-53;
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Spin-wait hint for the open loop's last approach to a send.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

std::string DividendName(size_t i) { return "r" + std::to_string(i); }
std::string DivisorName(size_t j) { return "s" + std::to_string(j); }

/// The benchmark's own copy of every table: per dividend table a
/// candidate x value count matrix, per divisor table a count per value.
/// Expected quotients are derived from it and memoized per query until a
/// write touches one of the query's tables.
class Model {
 public:
  Model(const Shape& shape, uint64_t seed) : shape_(shape) {
    reldiv::Rng rng(seed);
    std::vector<std::vector<int64_t>> sets;
    for (size_t j = 0; j < shape.divisor_tables; ++j) {
      std::vector<int64_t> values(static_cast<size_t>(shape.domain));
      for (int64_t v = 0; v < shape.domain; ++v) values[v] = v;
      for (size_t k = 0; k < shape.divisor_size; ++k) {
        std::swap(values[k], values[k + rng.Uniform(values.size() - k)]);
      }
      values.resize(shape.divisor_size);
      divisor_.emplace_back(static_cast<size_t>(shape.domain), 0);
      for (int64_t v : values) divisor_.back()[v] = 1;
      sets.push_back(values);
    }
    // Candidate c takes divisor table c % J's values as its own; every
    // fifth candidate of each table then loses a few of them and drops out
    // of that quotient. Every query's quotient thus starts with the same
    // size, |Q| / J * 4/5 rows, whatever the seed.
    for (size_t i = 0; i < shape.dividend_tables; ++i) {
      dividend_.emplace_back(
          static_cast<size_t>(shape.candidates * shape.domain), 0);
      for (int64_t c = 0; c < shape.candidates; ++c) {
        const size_t home = static_cast<size_t>(c) % sets.size();
        std::vector<int64_t> values = sets[home];
        if ((static_cast<size_t>(c) / sets.size()) % 5 == 0) {
          const size_t drop = 1 + rng.Uniform(8);
          for (size_t k = 0; k < drop; ++k) {
            std::swap(values[k], values[k + rng.Uniform(values.size() - k)]);
          }
          values.erase(values.begin(), values.begin() + drop);
        }
        for (int64_t v : values) Count(i, c, v)++;
      }
    }
    expected_.resize(num_queries());
  }

  size_t num_queries() const {
    return shape_.dividend_tables * shape_.divisor_tables;
  }
  size_t DividendOf(size_t query) const {
    return query / shape_.divisor_tables;
  }
  size_t DivisorOf(size_t query) const {
    return query % shape_.divisor_tables;
  }

  uint32_t& Count(size_t i, int64_t c, int64_t v) {
    return dividend_[i][static_cast<size_t>(c * shape_.domain + v)];
  }
  uint32_t Count(size_t i, int64_t c, int64_t v) const {
    return dividend_[i][static_cast<size_t>(c * shape_.domain + v)];
  }
  uint32_t DivisorCount(size_t j, int64_t v) const { return divisor_[j][v]; }
  size_t DivisorDistinct(size_t j) const {
    return static_cast<size_t>(std::count_if(
        divisor_[j].begin(), divisor_[j].end(),
        [](uint32_t n) { return n > 0; }));
  }

  std::vector<Tuple> DividendRows(size_t i) const {
    std::vector<Tuple> rows;
    for (int64_t c = 0; c < shape_.candidates; ++c) {
      for (int64_t v = 0; v < shape_.domain; ++v) {
        for (uint32_t n = 0; n < Count(i, c, v); ++n) {
          rows.push_back(Tuple{Value::Int64(c), Value::Int64(v)});
        }
      }
    }
    return rows;
  }
  std::vector<Tuple> DivisorRows(size_t j) const {
    std::vector<Tuple> rows;
    for (int64_t v = 0; v < shape_.domain; ++v) {
      for (uint32_t n = 0; n < divisor_[j][v]; ++n) {
        rows.push_back(Tuple{Value::Int64(v)});
      }
    }
    return rows;
  }

  /// Sorted expected quotient of `query`.
  std::vector<Tuple> ExpectedRows(size_t query) const {
    const size_t i = DividendOf(query);
    const size_t j = DivisorOf(query);
    std::vector<int64_t> needed;
    for (int64_t v = 0; v < shape_.domain; ++v) {
      if (divisor_[j][v] > 0) needed.push_back(v);
    }
    std::vector<Tuple> rows;
    if (needed.empty()) return rows;  // empty divisor: empty quotient
    for (int64_t c = 0; c < shape_.candidates; ++c) {
      bool all = true;
      for (int64_t v : needed) all = all && Count(i, c, v) > 0;
      if (all) rows.push_back(Tuple{Value::Int64(c)});
    }
    return rows;
  }

  const Digest& Expected(size_t query) {
    if (!expected_[query].has_value()) {
      expected_[query] = DigestOf(ExpectedRows(query));
    }
    return *expected_[query];
  }

  void ApplyDividend(size_t i, int64_t c, int64_t v, bool insert) {
    uint32_t& n = Count(i, c, v);
    n = insert ? n + 1 : 0;
    for (size_t j = 0; j < shape_.divisor_tables; ++j) {
      expected_[i * shape_.divisor_tables + j].reset();
    }
  }
  void ApplyDivisor(size_t j, int64_t v, bool insert) {
    divisor_[j][v] = insert ? divisor_[j][v] + 1 : 0;
    for (size_t i = 0; i < shape_.dividend_tables; ++i) {
      expected_[i * shape_.divisor_tables + j].reset();
    }
  }

 private:
  Shape shape_;
  std::vector<std::vector<uint32_t>> dividend_;
  std::vector<std::vector<uint32_t>> divisor_;
  std::vector<std::optional<Digest>> expected_;
};

/// One catalog write: insert one row, or delete every copy of one row.
struct Write {
  bool divisor = false;
  bool insert = false;
  size_t table = 0;
  int64_t c = 0;  ///< candidate (dividend writes only)
  int64_t v = 0;
  uint64_t expected_deleted = 0;  ///< rows a delete must remove
};

/// Chooses writes on Zipf-chosen tables, 45% dividend inserts, 45%
/// dividend deletes, 10% divisor inserts or deletes (keeping |S| near its
/// nominal size). Reads the checker's model so every insert adds a new row
/// and every delete removes one that exists; the model changes only once a
/// write has succeeded.
class WriteChooser {
 public:
  explicit WriteChooser(const Shape& shape)
      : shape_(shape),
        dividend_zipf_(shape.dividend_tables),
        divisor_zipf_(shape.divisor_tables) {}

  Write Next(const Model& model, reldiv::Rng* rng) const {
    Write w;
    const uint64_t roll = rng->Uniform(100);
    if (roll < 90) {
      w.table = dividend_zipf_.Sample(rng);
      w.insert = roll < 45;
      while (true) {
        w.c = static_cast<int64_t>(rng->Uniform(shape_.candidates));
        w.v = static_cast<int64_t>(rng->Uniform(shape_.domain));
        // Inserts add a row the table lacks: the relations stay duplicate
        // free, as the aggregation-based algorithms require (§2).
        if ((model.Count(w.table, w.c, w.v) > 0) != w.insert) break;
      }
      if (!w.insert) w.expected_deleted = model.Count(w.table, w.c, w.v);
    } else {
      w.divisor = true;
      w.table = divisor_zipf_.Sample(rng);
      w.insert = model.DivisorDistinct(w.table) < shape_.divisor_size;
      while (true) {
        w.v = static_cast<int64_t>(rng->Uniform(shape_.domain));
        if ((model.DivisorCount(w.table, w.v) > 0) != w.insert) break;
      }
      if (!w.insert) w.expected_deleted = model.DivisorCount(w.table, w.v);
    }
    return w;
  }

 private:
  Shape shape_;
  Zipf dividend_zipf_;
  Zipf divisor_zipf_;
};

/// Applies `w` through the catalog (Insert / DeleteWhere, with the cache's
/// synchronous maintenance) and checks a delete removed what the model says:
/// a miscount is an Internal status.
Status ApplyWrite(reldiv::Database* db, const Write& w) {
  const std::string table =
      w.divisor ? DivisorName(w.table) : DividendName(w.table);
  if (w.insert) {
    return w.divisor
               ? db->Insert(table, Tuple{Value::Int64(w.v)})
               : db->Insert(table, Tuple{Value::Int64(w.c), Value::Int64(w.v)});
  }
  const bool divisor = w.divisor;
  const int64_t c = w.c;
  const int64_t v = w.v;
  RELDIV_ASSIGN_OR_RETURN(
      uint64_t deleted,
      db->DeleteWhere(table, [divisor, c, v](const Tuple& t) {
        return divisor ? t.value(0).int64() == v
                       : t.value(0).int64() == c && t.value(1).int64() == v;
      }));
  if (deleted != w.expected_deleted) {
    return Status::Internal("DeleteWhere on " + table + " removed " +
                            std::to_string(deleted) + " rows, expected " +
                            std::to_string(w.expected_deleted));
  }
  return Status::OK();
}

/// Samples the phases record (microseconds).
struct Samples {
  std::vector<double> latency;        ///< queries, due -> answered
  std::vector<double> write_latency;  ///< writes, due -> applied
  std::vector<double> write_call;     ///< Insert/DeleteWhere call
  std::vector<double> submit, drain, queue_wait, exec_hit, exec_miss;
  std::vector<double> late, check;
};

/// Closed-loop throughput over a whole run: the share of the run that a
/// few slow waves take decides the figure in proportion to their time, not
/// by which side of a median they fall.
struct Throughput {
  uint64_t queries = 0;
  double busy_us = 0;
  double Qps() const {
    return busy_us > 0 ? static_cast<double>(queries) / (busy_us / 1e6) : 0;
  }
};

/// Everything one service run shares between its phases.
class ServiceRun {
 public:
  explicit ServiceRun(const RunConfig& config)
      : config_(config),
        shape_(ShapeFor(config)),
        rng_(config.seed * 7919 + 17),
        query_zipf_(shape_.dividend_tables * shape_.divisor_tables),
        writes_(shape_) {}

  Status Run(RunResult* out);

 private:
  struct Pending {
    std::shared_ptr<reldiv::QueryTicket> ticket;
    size_t query = 0;
    Clock::time_point sched, sent;
    /// When the client saw the answer; unset in the open loop, where it is
    /// reconstructed from the ticket's queue wait and execution time.
    std::optional<Clock::time_point> done;
    uint64_t req = 0, root = 0;
  };

  Status Setup(std::vector<double>* setup_s);
  Status LoadOnce();
  reldiv::QueryRequest RequestFor(size_t query) const;
  size_t NextQuery() {
    return popularity_[query_zipf_.Sample(&rng_)];
  }
  std::string NextTenant() {
    return "tenant" + std::to_string(rng_.Uniform(kTenants));
  }

  /// Cold single queries of every kind, one query of the mix per cycle,
  /// each cycle on a freshly loaded copy of the query's two tables.
  Status ColdPhase(double seconds, Tracer* tracer, ColdRunner* runner);
  Status OpenLoop(double seconds, Tracer* tracer);
  /// Closed loop with `in_flight` requests per wave: submit, RunUntilIdle,
  /// check, repeat; a chosen write is applied between waves. Adds the
  /// queries that succeeded and the waves' submit-to-drained time to
  /// `throughput`.
  Status ClosedLoop(double seconds, Tracer* tracer, size_t in_flight,
                    Throughput* throughput);

  /// Verifies one finished ticket against the checker's model and records
  /// its latency split. `drain` is the id of the RunUntilIdle span that ran
  /// the ticket: the ticket's queue-wait and execution spans lie within it.
  Status CheckTicket(const Pending& p, Tracer* tracer, uint64_t drain);
  /// Chooses and applies one write, timing the catalog call; `*done` is when
  /// it returned. A write that succeeds is applied to the checker's model; a
  /// failed one is counted and changes neither. A wrong delete count is
  /// returned.
  Status ApplyTimedWrite(Tracer* tracer, uint64_t req, uint64_t parent,
                         Clock::time_point* done);

  const RunConfig& config_;
  Shape shape_;
  reldiv::Rng rng_;
  Zipf query_zipf_;
  std::vector<size_t> popularity_;  ///< Zipf rank -> query
  WriteChooser writes_;
  std::unique_ptr<Model> model_;  ///< the checker's model
  std::unique_ptr<reldiv::Database> db_;
  std::unique_ptr<reldiv::DivisionService> service_;
  std::vector<reldiv::DivisionQuery> queries_;
  size_t nproc_ = 4;
  size_t cold_cycles_ = 0;

  std::vector<double> insert_us_;
  /// Where the phases record; the traced run points it at a throwaway set
  /// during its untraced phases.
  Samples* samples_ = nullptr;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The service database's options (and those of the cold-query copies).
reldiv::DatabaseOptions DatabaseOptions() {
  reldiv::DatabaseOptions options;
  options.pool_bytes = 64 * 1024 * 1024;
  return options;
}

/// Median over consecutive windows of kLatencyWindow samples of each
/// window's p99 (the whole sample's p99 when it is shorter than two).
double WindowedP99(const std::vector<double>& samples) {
  if (samples.size() < 2 * kLatencyWindow) return Percentile(samples, 99);
  std::vector<double> p99s;
  for (size_t at = 0; at + kLatencyWindow <= samples.size();
       at += kLatencyWindow) {
    p99s.push_back(Percentile(
        std::vector<double>(samples.begin() + at,
                            samples.begin() + at + kLatencyWindow),
        99));
  }
  return Median(p99s);
}

reldiv::QueryRequest ServiceRun::RequestFor(size_t query) const {
  reldiv::QueryRequest request;
  request.query = queries_[query];
  return request;
}

Status ServiceRun::LoadOnce() {
  service_.reset();
  db_.reset();
  queries_.clear();

  model_ = std::make_unique<Model>(shape_, config_.seed);
  RELDIV_ASSIGN_OR_RETURN(db_, reldiv::Database::Open(DatabaseOptions()));
  const reldiv::Schema dividend_schema{
      reldiv::Field{"q", reldiv::ValueType::kInt64},
      reldiv::Field{"d", reldiv::ValueType::kInt64}};
  const reldiv::Schema divisor_schema{
      reldiv::Field{"d", reldiv::ValueType::kInt64}};
  for (size_t j = 0; j < shape_.divisor_tables; ++j) {
    RELDIV_RETURN_NOT_OK(
        db_->CreateTable(DivisorName(j), divisor_schema).status());
    for (const Tuple& row : model_->DivisorRows(j)) {
      RELDIV_RETURN_NOT_OK(db_->Insert(DivisorName(j), row));
    }
  }
  reldiv::Rng order(config_.seed);
  for (size_t i = 0; i < shape_.dividend_tables; ++i) {
    RELDIV_RETURN_NOT_OK(
        db_->CreateTable(DividendName(i), dividend_schema).status());
    // Rows arrive in random order, as in paper_cold.
    std::vector<Tuple> rows = model_->DividendRows(i);
    for (size_t k = rows.size(); k > 1; --k) {
      std::swap(rows[k - 1], rows[order.Uniform(k)]);
    }
    RELDIV_RETURN_NOT_OK(
        TimedInserts(db_.get(), DividendName(i), rows, &insert_us_));
  }
  for (size_t q = 0; q < model_->num_queries(); ++q) {
    reldiv::DivisionQuery query;
    RELDIV_ASSIGN_OR_RETURN(query.dividend,
                            db_->GetTable(DividendName(model_->DividendOf(q))));
    RELDIV_ASSIGN_OR_RETURN(query.divisor,
                            db_->GetTable(DivisorName(model_->DivisorOf(q))));
    query.match_attrs = {"d"};
    queries_.push_back(query);
  }

  reldiv::ServiceOptions options_service;
  options_service.max_concurrent = nproc_;
  options_service.cache_max_entries = kCacheEntries;
  service_ = std::make_unique<reldiv::DivisionService>(db_.get(),
                                                       options_service);
  for (size_t t = 0; t < kTenants; ++t) {
    service_->RegisterTenant("tenant" + std::to_string(t),
                             reldiv::TenantOptions{});
  }
  // Warm the cache, least popular first so the most popular stay resident.
  for (size_t rank = popularity_.size(); rank-- > 0;) {
    const size_t query = popularity_[rank];
    RELDIV_ASSIGN_OR_RETURN(std::shared_ptr<reldiv::QueryTicket> ticket,
                            service_->Submit("tenant0", RequestFor(query)));
    RELDIV_RETURN_NOT_OK(service_->RunUntilIdle());
    RELDIV_RETURN_NOT_OK(ticket->status());
    if (DigestOf(ticket->quotient()) != model_->Expected(query)) {
      return Status::Internal("warm-up query " + std::to_string(query) +
                              " returned a wrong quotient");
    }
  }
  return Status::OK();
}

Status ServiceRun::Setup(std::vector<double>* setup_s) {
  nproc_ = std::max(1u, std::thread::hardware_concurrency());
  popularity_.resize(shape_.dividend_tables * shape_.divisor_tables);
  for (size_t q = 0; q < popularity_.size(); ++q) popularity_[q] = q;
  for (size_t k = popularity_.size(); k > 1; --k) {
    std::swap(popularity_[k - 1], popularity_[rng_.Uniform(k)]);
  }
  for (int r = 0; r < shape_.setup_repeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    RELDIV_RETURN_NOT_OK(LoadOnce());
    setup_s->push_back(MsSince(t0) / 1e3);
  }
  return Status::OK();
}

Status ServiceRun::ColdPhase(double seconds, Tracer* tracer,
                             ColdRunner* runner) {
  const reldiv::Schema dividend_schema{
      reldiv::Field{"q", reldiv::ValueType::kInt64},
      reldiv::Field{"d", reldiv::ValueType::kInt64}};
  const reldiv::Schema divisor_schema{
      reldiv::Field{"d", reldiv::ValueType::kInt64}};
  const Clock::time_point t0 = Clock::now();
  for (size_t cycle = 0; cycle == 0 || MsSince(t0) < seconds * 1e3;
       ++cycle) {
    const size_t query = popularity_[cold_cycles_++ % popularity_.size()];
    std::vector<Tuple> dividend =
        model_->DividendRows(model_->DividendOf(query));
    for (size_t k = dividend.size(); k > 1; --k) {
      std::swap(dividend[k - 1], dividend[rng_.Uniform(k)]);
    }
    const std::vector<Tuple> divisor =
        model_->DivisorRows(model_->DivisorOf(query));
    const std::vector<Tuple> expected = model_->ExpectedRows(query);
    RELDIV_ASSIGN_OR_RETURN(
        std::unique_ptr<reldiv::Database> db,
        LoadColdDatabase(DatabaseOptions(), dividend_schema, dividend,
                         divisor_schema, divisor, nullptr));
    RELDIV_ASSIGN_OR_RETURN(reldiv::DivisionQuery division,
                            ColdDivisionQuery(db.get()));
    const ColdQuery cold{division, &dividend, &divisor, &expected,
                         "query " + std::to_string(query)};
    if (tracer->enabled()) {
      RELDIV_RETURN_NOT_OK(runner->Scan(db.get(), division.dividend));
    }
    for (const ColdKind& kind : ColdKinds()) {
      attempted_++;
      const Status status = runner->Run(db.get(), kind, cold);
      // A failed query counts against ok_ratio; a wrong answer stops the run.
      if (status.IsInternal()) return status;
      if (!status.ok()) failed_++;
    }
  }
  return Status::OK();
}

Status ServiceRun::CheckTicket(const Pending& p, Tracer* tracer,
                               uint64_t drain) {
  const reldiv::QueryTicket& ticket = *p.ticket;
  const double queue_wait = static_cast<double>(ticket.queue_wait_us());
  const double exec = static_cast<double>(ticket.exec_us());
  samples_->latency.push_back(
      p.done ? UsBetween(p.sched, *p.done)
             : UsBetween(p.sched, p.sent) + queue_wait + exec);
  samples_->queue_wait.push_back(queue_wait);
  (ticket.cache_hit() ? samples_->exec_hit : samples_->exec_miss)
      .push_back(exec);
  if (tracer->enabled()) {
    const auto us = [](double v) {
      return std::chrono::microseconds(static_cast<int64_t>(v));
    };
    const Clock::time_point exec_start = p.sent + us(queue_wait);
    const Clock::time_point exec_end = exec_start + us(exec);
    tracer->Record("request", Layer::kBench, p.sched, p.done.value_or(exec_end),
                   p.req, 0, p.root);
    if (p.sent > p.sched) {
      tracer->Record("gen.late", Layer::kBench, p.sched, p.sent, p.req,
                     p.root, tracer->NewId());
    }
    tracer->Record("service.queue_wait", Layer::kService, p.sent, exec_start,
                   p.req, p.root, tracer->NewId(), drain);
    tracer->Record(ticket.cache_hit() ? "qcache.hit" : "qcache.miss",
                   Layer::kQcache, exec_start, exec_end, p.req, p.root,
                   tracer->NewId(), drain);
  }
  // A failed query counts against ok_ratio; only a wrong answer stops the
  // run.
  const Clock::time_point t0 = Clock::now();
  Status wrong;
  if (!ticket.status().ok()) {
    failed_++;
  } else if (DigestOf(ticket.quotient()) != model_->Expected(p.query)) {
    wrong = Status::Internal("query " + std::to_string(p.query) +
                             " returned a wrong quotient (" +
                             std::to_string(ticket.quotient().size()) +
                             " rows)");
  }
  const Clock::time_point t1 = Clock::now();
  samples_->check.push_back(UsBetween(t0, t1));
  tracer->Record("gen.check", Layer::kBench, t0, t1, p.req, 0,
                 tracer->enabled() ? tracer->NewId() : 0);
  return wrong;
}

Status ServiceRun::ApplyTimedWrite(Tracer* tracer, uint64_t req,
                                   uint64_t parent, Clock::time_point* done) {
  const Write w = writes_.Next(*model_, &rng_);
  const Clock::time_point t0 = Clock::now();
  Status status = ApplyWrite(db_.get(), w);
  *done = Clock::now();
  tracer->Record(w.insert ? "qcache.write_insert" : "qcache.write_delete",
                 Layer::kQcache, t0, *done, req, parent,
                 tracer->enabled() ? tracer->NewId() : 0);
  samples_->write_call.push_back(UsBetween(t0, *done));
  attempted_++;
  if (status.ok()) {
    if (w.divisor) {
      model_->ApplyDivisor(w.table, w.v, w.insert);
    } else {
      model_->ApplyDividend(w.table, w.c, w.v, w.insert);
    }
    return status;
  }
  failed_++;
  return status.IsInternal() ? status : Status::OK();
}

Status ServiceRun::OpenLoop(double seconds, Tracer* tracer) {
  // One thread, like a server loop: it submits every request whose Poisson
  // arrival time has come, drains the service with RunUntilIdle, checks the
  // answers, and sleeps until the next arrival. Requests that arrive while
  // it is busy are sent late, and their latency counts from the time they
  // were due. The loop wakes kSendEarly before an arrival and polls the rest
  // of the way: on a virtual machine a sleeping thread can wake late, while
  // a thread that never sleeps is slowed by the host. A write is applied
  // once every query submitted before it has completed.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::vector<Pending> pending;
  const auto drain = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    const Clock::time_point t0 = Clock::now();
    const Status status = service_->RunUntilIdle();
    const Clock::time_point t1 = Clock::now();
    samples_->drain.push_back(UsBetween(t0, t1));
    const uint64_t drain_id = tracer->enabled() ? tracer->NewId() : 0;
    tracer->Record("service.drain", Layer::kService, t0, t1, 0, 0, drain_id);
    RELDIV_RETURN_NOT_OK(status);
    for (const Pending& p : pending) {
      RELDIV_RETURN_NOT_OK(CheckTicket(p, tracer, drain_id));
    }
    pending.clear();
    return Status::OK();
  };

  Status status;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  Clock::time_point sched = start;
  const auto next_arrival = [&] {
    const double u = static_cast<double>(rng_.Next() >> 11) * 0x1p-53;
    sched += std::chrono::nanoseconds(
        static_cast<int64_t>(-std::log1p(-u) / shape_.rate_ops * 1e9));
  };
  next_arrival();
  while (status.ok() && sched < end) {
    if (Clock::now() < sched) {
      const Clock::time_point wake = sched - kSendEarly;
      if (Clock::now() < wake) std::this_thread::sleep_until(wake);
      while (Clock::now() < sched) CpuRelax();
    }
    // Every arrival due by now.
    for (; status.ok() && sched < end && sched <= Clock::now();
         next_arrival()) {
      Pending p;
      p.sched = sched;
      p.req = tracer->enabled() ? tracer->NewId() : 0;
      p.root = tracer->enabled() ? tracer->NewId() : 0;
      if (rng_.Uniform(100) < shape_.write_percent) {
        status = drain();  // the write's barrier
        if (!status.ok()) break;
        Clock::time_point t1;
        status = ApplyTimedWrite(tracer, p.req, p.root, &t1);
        samples_->write_latency.push_back(UsBetween(sched, t1));
        samples_->late.push_back(UsBetween(sched, t1) -
                                 samples_->write_call.back());
        tracer->Record("write", Layer::kBench, sched, t1, p.req, 0, p.root);
        continue;
      }
      p.query = NextQuery();
      p.sent = Clock::now();
      samples_->late.push_back(UsBetween(sched, p.sent));
      attempted_++;
      Result<std::shared_ptr<reldiv::QueryTicket>> ticket =
          service_->Submit(NextTenant(), RequestFor(p.query));
      const Clock::time_point t1 = Clock::now();
      samples_->submit.push_back(UsBetween(p.sent, t1));
      tracer->Record("service.submit", Layer::kService, p.sent, t1, p.req,
                     p.root, tracer->enabled() ? tracer->NewId() : 0);
      if (!ticket.ok()) {
        failed_++;  // refused by admission control
        continue;
      }
      p.ticket = ticket.MoveValue();
      pending.push_back(std::move(p));
    }
    if (status.ok()) status = drain();
  }
  prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack), 0, 0, 0);
  return status;
}

Status ServiceRun::ClosedLoop(double seconds, Tracer* tracer,
                              size_t in_flight,
                              Throughput* throughput) {
  const Clock::time_point start = Clock::now();
  std::vector<Pending> wave;
  while (MsSince(start) < seconds * 1e3) {
    wave.clear();
    while (wave.size() < in_flight) {
      if (rng_.Uniform(100) < shape_.write_percent) {
        // The previous wave has completed: apply the write now.
        Clock::time_point done;
        RELDIV_RETURN_NOT_OK(ApplyTimedWrite(tracer, 0, 0, &done));
        samples_->write_latency.push_back(samples_->write_call.back());
        continue;
      }
      Pending p;
      p.query = NextQuery();
      p.req = tracer->enabled() ? tracer->NewId() : 0;
      p.root = tracer->enabled() ? tracer->NewId() : 0;
      wave.push_back(std::move(p));
    }
    const Clock::time_point t0 = Clock::now();
    for (Pending& p : wave) {
      p.sent = p.sched = Clock::now();
      attempted_++;
      Result<std::shared_ptr<reldiv::QueryTicket>> ticket =
          service_->Submit(NextTenant(), RequestFor(p.query));
      const Clock::time_point t1 = Clock::now();
      samples_->submit.push_back(UsBetween(p.sent, t1));
      tracer->Record("service.submit", Layer::kService, p.sent, t1, p.req,
                     p.root, tracer->enabled() ? tracer->NewId() : 0);
      if (!ticket.ok()) {
        failed_++;
        continue;
      }
      p.ticket = ticket.MoveValue();
    }
    const Clock::time_point t1 = Clock::now();
    RELDIV_RETURN_NOT_OK(service_->RunUntilIdle());
    const Clock::time_point t2 = Clock::now();
    samples_->drain.push_back(UsBetween(t1, t2));
    const uint64_t drain_id = tracer->enabled() ? tracer->NewId() : 0;
    tracer->Record("service.drain", Layer::kService, t1, t2, 0, 0, drain_id);
    throughput->busy_us += UsBetween(t0, t2);
    for (Pending& p : wave) {
      if (p.ticket == nullptr) continue;
      p.done = t2;
      RELDIV_RETURN_NOT_OK(CheckTicket(p, tracer, drain_id));
      if (p.ticket->status().ok()) throughput->queries++;
    }
  }
  return Status::OK();
}

Status ServiceRun::Run(RunResult* out) {
  std::vector<double> setup_s;
  RELDIV_RETURN_NOT_OK(Setup(&setup_s));
  const size_t slices = static_cast<size_t>(
      std::max(1.0, std::round(config_.seconds / shape_.slice_seconds)));
  const double slice = config_.seconds / static_cast<double>(slices);
  MetricSink& m = out->metrics;
  Tracer untraced(false);
  Samples samples;
  samples_ = &samples;

  if (!config_.trace) {
    // End-to-end service figures come from one request in flight: the
    // request runs inline in RunUntilIdle on this thread, so neither a
    // thread wake-up nor the host's scheduling of idle vCPUs enters them.
    ColdRunner runner(&untraced);
    Throughput closed;
    double peak_rss_mb = 0;
    for (size_t i = 0; i < slices; ++i) {
      RELDIV_RETURN_NOT_OK(ColdPhase(slice * kColdShare, &untraced, &runner));
      // DivisionService keeps a log entry per admitted query for its
      // lifetime (WORKLOADS.md, defects), so the peak is read before the
      // timed requests: otherwise a faster service would read as a larger
      // one.
      if (i == 0) peak_rss_mb = PeakRssMb();
      RELDIV_RETURN_NOT_OK(
          ClosedLoop(slice * (1 - kColdShare), &untraced, 1, &closed));
    }
    m.Add("setup_s", Median(setup_s), "s");
    runner.AddEndToEnd(&m);
    m.Add("p50_us", Median(samples.latency), "us");
    m.Add("p99_us", WindowedP99(samples.latency), "us");
    m.Add("capacity_qps", closed.Qps(), "1/s");
    m.Add("write_mean_us", TrimmedMean(samples.write_latency), "us");
    m.Add("ok_ratio",
          1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_),
          "fraction");
    m.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Each slice: traced cold queries; the open loop at the workload's rate
    // (the layer samples); the one-in-flight loop untraced and traced (the
    // overhead figure); the closed loop with nproc in flight with telemetry
    // on and off (the concurrency and obs figures).
    Samples discard;
    Samples plain;
    Samples serial;
    Tracer tracer(true);
    ColdRunner runner(&tracer);
    Throughput discard_qps;
    Throughput capacity_on;
    Throughput capacity_off;
    reldiv::QuotientCache* cache = service_->cache();
    const uint64_t hits0 = cache->hits();
    const uint64_t misses0 = cache->misses();
    const uint64_t evictions0 = cache->evictions();
    const uint64_t updates0 = cache->incremental_updates();
    const uint64_t invalidations0 = cache->invalidations();
    for (size_t i = 0; i < slices; ++i) {
      RELDIV_RETURN_NOT_OK(ColdPhase(slice * 0.2, &tracer, &runner));
      samples_ = &samples;
      RELDIV_RETURN_NOT_OK(OpenLoop(slice * 0.4, &tracer));
      samples_ = &plain;
      RELDIV_RETURN_NOT_OK(ClosedLoop(slice * 0.1, &untraced, 1, &discard_qps));
      samples_ = &serial;
      RELDIV_RETURN_NOT_OK(ClosedLoop(slice * 0.1, &tracer, 1, &discard_qps));
      samples_ = &discard;
      RELDIV_RETURN_NOT_OK(
          ClosedLoop(slice * 0.1, &untraced, nproc_, &capacity_on));
      const reldiv::TelemetryMode mode =
          reldiv::Telemetry::SetMode(reldiv::TelemetryMode::kOff);
      const Status off =
          ClosedLoop(slice * 0.1, &untraced, nproc_, &capacity_off);
      reldiv::Telemetry::SetMode(mode);
      RELDIV_RETURN_NOT_OK(off);
    }
    samples_ = &samples;

    runner.AddPerLayer(&m);
    m.Add("storage.insert_us", Median(insert_us_), "us");
    ServiceLayers layers;
    layers.open_p50 = Median(samples.latency);
    layers.open_p99 = WindowedP99(samples.latency);
    layers.submit_us = Median(samples.submit);
    layers.drain_us = Median(samples.drain);
    layers.queue_wait_p50 = Median(samples.queue_wait);
    layers.queue_wait_p99 = Percentile(samples.queue_wait, 99);
    layers.exec_hit_p50 = Median(samples.exec_hit);
    layers.exec_hit_p99 = Percentile(samples.exec_hit, 99);
    layers.exec_miss_p50 = Median(samples.exec_miss);
    layers.admission_rejects =
        static_cast<double>(service_->admission_rejects());
    layers.grant_timeouts = static_cast<double>(service_->grant_timeouts());
    layers.queue_depth_high_water =
        static_cast<double>(service_->queue_depth_high_water());
    layers.late_p50 = Median(samples.late);
    layers.late_p99 = Percentile(samples.late, 99);
    layers.late_max = Max(samples.late);
    layers.check_us = Median(samples.check);
    const double hits = static_cast<double>(cache->hits() - hits0);
    const double lookups =
        hits + static_cast<double>(cache->misses() - misses0);
    layers.hit_ratio = lookups > 0 ? hits / lookups : 0;
    layers.evictions = static_cast<double>(cache->evictions() - evictions0);
    layers.incremental_updates =
        static_cast<double>(cache->incremental_updates() - updates0);
    layers.invalidations =
        static_cast<double>(cache->invalidations() - invalidations0);
    layers.write_p50 = Median(samples.write_call);
    layers.write_p99 = Percentile(samples.write_call, 99);
    layers.capacity_nproc_qps = capacity_on.Qps();
    layers.capacity_qps_off = capacity_off.Qps();
    layers.hit_share = layers.capacity_qps_off > 0
                           ? 1.0 - layers.capacity_nproc_qps /
                                       layers.capacity_qps_off
                           : 0;
    layers.Add(&m);
    const double plain_p50 = Median(plain.latency);
    AddTraceSummary(&m, tracer,
                    plain_p50 > 0 ? Median(serial.latency) / plain_p50 - 1
                                  : 0,
                    static_cast<double>(samples.latency.size() +
                                        serial.latency.size() +
                                        runner.queries()));
    RELDIV_RETURN_NOT_OK(WriteTrace(config_, tracer));
  }
  samples_ = nullptr;
  out->attempted = attempted_;
  out->failed = failed_;
  return Status::OK();
}

}  // namespace

RunResult RunServiceChurn(const RunConfig& config) {
  RunResult out;
  ServiceRun run(config);
  out.status = run.Run(&out);
  return out;
}

void ServiceLayers::Add(MetricSink* sink) const {
  sink->Add("openloop.p50_us", open_p50, "us");
  sink->Add("openloop.p99_us", open_p99, "us");
  sink->Add("service.submit_us", submit_us, "us");
  sink->Add("service.drain_us", drain_us, "us");
  sink->Add("service.queue_wait_us.p50", queue_wait_p50, "us");
  sink->Add("service.queue_wait_us.p99", queue_wait_p99, "us");
  sink->Add("service.exec_hit_us.p50", exec_hit_p50, "us");
  sink->Add("service.exec_hit_us.p99", exec_hit_p99, "us");
  sink->Add("service.exec_miss_us.p50", exec_miss_p50, "us");
  sink->Add("service.admission_rejects", admission_rejects, "count");
  sink->Add("service.grant_timeouts", grant_timeouts, "count");
  sink->Add("service.queue_depth_high_water", queue_depth_high_water,
            "count");
  sink->Add("gen.late_us.p50", late_p50, "us");
  sink->Add("gen.late_us.p99", late_p99, "us");
  sink->Add("gen.late_us.max", late_max, "us");
  sink->Add("gen.check_us", check_us, "us");
  sink->Add("qcache.hit_ratio", hit_ratio, "fraction");
  sink->Add("qcache.evictions", evictions, "count");
  sink->Add("qcache.incremental_updates", incremental_updates, "count");
  sink->Add("qcache.invalidations", invalidations, "count");
  sink->Add("qcache.write_us.p50", write_p50, "us");
  sink->Add("qcache.write_us.p99", write_p99, "us");
  sink->Add("service.capacity_nproc_qps", capacity_nproc_qps, "1/s");
  sink->Add("obs.capacity_qps_off", capacity_qps_off, "1/s");
  sink->Add("obs.hit_share", hit_share, "fraction");
}

}  // namespace perfbench
