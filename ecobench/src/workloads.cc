#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>

namespace ecobench {

using namespace ecodb;

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashCell(const CellView& c) {
  uint64_t payload = 0;
  switch (c.type) {
    case ValueType::kNull:
      break;
    case ValueType::kDouble:
      std::memcpy(&payload, &c.d, sizeof(payload));
      break;
    case ValueType::kString:
      payload = std::hash<std::string>{}(*c.s);
      break;
    default:
      payload = static_cast<uint64_t>(c.i);
      break;
  }
  return Mix64(payload ^ (static_cast<uint64_t>(c.type) << 56));
}

/// Folds one row hash into a digest.
void AddRow(uint64_t row_hash, Digest* d) {
  ++d->rows;
  d->sum += Mix64(row_hash);
}

/// The client's pass over a columnar result: every cell through
/// ResultSet::At. Returns false if `sort_col` (when >= 0) is out of order.
bool ReadResult(const ResultSet& rs, int sort_col, bool descending,
                Digest* d, uint64_t* cells) {
  bool ordered = true;
  CellView prev;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    uint64_t h = 0;
    for (int c = 0; c < rs.num_cols(); ++c) {
      CellView v = rs.At(r, c);
      h = h * 31 + HashCell(v);
      if (c == sort_col) {
        if (r > 0) {
          int cmp = CompareCellViews(prev, v);
          if (descending ? cmp < 0 : cmp > 0) ordered = false;
        }
        prev = v;
      }
    }
    AddRow(h, d);
  }
  *cells += rs.num_rows() * static_cast<uint64_t>(rs.num_cols());
  return ordered;
}

Digest DigestRows(const std::vector<Row>& rows, uint64_t* cells) {
  Digest d;
  for (const Row& row : rows) {
    uint64_t h = 0;
    for (const Value& v : row) h = h * 31 + HashCell(CellView::Of(v));
    AddRow(h, &d);
    *cells += row.size();
  }
  return d;
}

Result<Digest> RowModeDigest(Database* db, const PlanNode& plan) {
  auto ctx = db->MakeExecContext();
  ECODB_ASSIGN_OR_RETURN(ResultSet rs,
                         ExecutePlanColumnar(plan, ctx.get(), ExecMode::kRow));
  Digest d;
  uint64_t cells = 0;
  ReadResult(rs, -1, false, &d, &cells);
  return d;
}

EnergyLedger Delta(const EnergyLedger& a, const EnergyLedger& b) {
  EnergyLedger d;
  d.cpu_j = b.cpu_j - a.cpu_j;
  d.fan_j = b.fan_j - a.fan_j;
  d.mem_j = b.mem_j - a.mem_j;
  d.disk_5v_j = b.disk_5v_j - a.disk_5v_j;
  d.disk_12v_j = b.disk_12v_j - a.disk_12v_j;
  d.mobo_j = b.mobo_j - a.mobo_j;
  d.gpu_j = b.gpu_j - a.gpu_j;
  d.dc_j = b.dc_j - a.dc_j;
  d.wall_j = b.wall_j - a.wall_j;
  d.busy_s = b.busy_s - a.busy_s;
  d.io_s = b.io_s - a.io_s;
  d.idle_s = b.idle_s - a.idle_s;
  return d;
}

double Seconds(int64_t t0_ns, int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// pvc_q5
// ---------------------------------------------------------------------------

// The ten Q5 instances are drawn (with replacement) once per round; each
// round runs those ten at stock, then at PVC settings A, B and C, so every
// operating point sees the same queries and the Figure 1 ratios compare
// like with like. Drawing with replacement makes the per-query means depend
// on the seed.
constexpr int kQ5Plans = 10;
constexpr int kPvcPoints = 4;
constexpr int kPvcRound = kQ5Plans * kPvcPoints;

class PvcQ5 : public BenchWorkload {
 public:
  PvcQ5(uint64_t seed, double sf) : BenchWorkload(seed), sf_(sf) {
    points_.push_back(SystemSettings::Stock());
    for (const SystemSettings& s : PvcController::MediumGrid()) {
      points_.push_back(s);
    }
  }

  int fixed_calls() const override { return kPvcRound; }

  Result<SetupTimes> Setup(Tracer* tracer) override {
    plans_.clear();
    ECODB_ASSIGN_OR_RETURN(SetupTimes t,
                           LoadFresh(EngineProfile::Commercial(), sf_, tracer));
    ECODB_ASSIGN_OR_RETURN(tpch::Workload w,
                           tpch::MakeQ5Workload(*db_->catalog()));
    plans_ = std::move(w.queries);
    point_ = 0;
    return t;
  }

  Status WarmPass() override {
    ECODB_RETURN_NOT_OK(SetPoint(0, nullptr, -1));
    for (size_t q = 0; q < plans_.size(); ++q) {
      ECODB_ASSIGN_OR_RETURN(QueryResult r, db_->ExecutePlanQuery(*plans_[q]));
      Digest d;
      uint64_t cells = 0;
      ReadResult(r.result, -1, false, &d, &cells);
      RecordAnswer(static_cast<int64_t>(q), d);
    }
    return Status::OK();
  }

  CallOutcome Call(int64_t i, Tracer* tracer) override {
    CallOutcome out;
    const int64_t round = i / kPvcRound;
    const int pos = static_cast<int>(i % kPvcRound);
    out.setting = pos / kQ5Plans;
    const size_t q = Mix(seed_, static_cast<uint64_t>(round),
                         static_cast<uint64_t>(pos % kQ5Plans)) %
                     kQ5Plans;
    Machine* m = db_->machine();
    const EnergyLedger ledger0 = m->ledger();
    const BufferPoolStats pool0 = db_->buffer_pool()->stats();

    ScopedSpan call(tracer, "client.call", i);
    const int64_t t0 = NowNs();
    Status st = SetPoint(out.setting, tracer, i);
    if (st.ok()) {
      Result<QueryResult> r = [&] {
        ScopedSpan s(tracer, "exec.ExecutePlanQuery", i);
        return db_->ExecutePlanQuery(*plans_[q]);
      }();
      if (r.ok()) {
        Digest d;
        {
          ScopedSpan s(tracer, "result.read", i);
          ReadResult(r.value().result, -1, false, &d, &out.cells);
        }
        RecordAnswer(static_cast<int64_t>(q), d);
        out.sim_s = r.value().seconds;
        out.exec = r.value().exec_stats;
      } else {
        st = r.status();
      }
    }
    out.host_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (!st.ok()) {
      out.failed = 1;
      RecordError(st);
    }
    out.sim = Delta(ledger0, m->ledger());
    const BufferPoolStats& pool1 = db_->buffer_pool()->stats();
    out.pool_hits = pool1.hits - pool0.hits;
    out.pool_misses = pool1.misses - pool0.misses;
    return out;
  }

  void FixedCallMetrics(const std::vector<CallOutcome>& fixed,
                        Metrics* out) override {
    uint64_t hits = 0, misses = 0;
    double disk_j = 0, io_s = 0;
    double cpu_j[kPvcPoints] = {0, 0, 0, 0};
    double sim_s[kPvcPoints] = {0, 0, 0, 0};
    for (const CallOutcome& c : fixed) {
      hits += c.pool_hits;
      misses += c.pool_misses;
      disk_j += c.sim.DiskJ();
      io_s += c.sim.io_s;
      cpu_j[c.setting] += c.sim.cpu_j;
      sim_s[c.setting] += c.sim_s;
    }
    const double n = static_cast<double>(fixed.size());
    out->push_back({"storage.pool_hit_ratio",
                    hits + misses ? static_cast<double>(hits) /
                                        static_cast<double>(hits + misses)
                                  : 0.0,
                    "ratio"});
    out->push_back({"storage.pool_misses", static_cast<double>(misses),
                    "count"});
    out->push_back({"sim.disk_j", disk_j / n, "J"});
    out->push_back({"sim.io_s", io_s / n, "s"});
    const char* labels[] = {"", "A", "B", "C"};
    for (int p = 1; p < kPvcPoints; ++p) {
      out->push_back({std::string("pvc.cpu_j_ratio.") + labels[p],
                      cpu_j[p] / cpu_j[0], "ratio"});
    }
    for (int p = 1; p < kPvcPoints; ++p) {
      out->push_back({std::string("pvc.time_ratio.") + labels[p],
                      sim_s[p] / sim_s[0], "ratio"});
    }
  }

 protected:
  Result<Digest> Oracle(int64_t key) override {
    return RowModeDigest(db_.get(), *plans_[static_cast<size_t>(key)]);
  }

 private:
  Status SetPoint(int point, Tracer* tracer, int64_t i) {
    if (point == point_ && i >= 0) return Status::OK();
    ScopedSpan s(tracer, "sim.ApplySettings", i);
    ECODB_RETURN_NOT_OK(
        db_->ApplySettings(points_[static_cast<size_t>(point)]));
    point_ = point;
    return Status::OK();
  }

  double sf_;
  std::vector<SystemSettings> points_;
  std::vector<PlanNodePtr> plans_;
  int point_ = 0;
};

// ---------------------------------------------------------------------------
// qed_selections
// ---------------------------------------------------------------------------

// Each flush merges 35 distinct l_quantity values, the first 35 of a seeded
// shuffle of 1..50, so every flush scans lineitem once and returns ~70 % of
// it. Response time of every member is its flush time: queue build-up is
// not counted (paper Section 4).
constexpr int kQedBatch = 35;

class QedSelections : public BenchWorkload {
 public:
  QedSelections(uint64_t seed, double sf) : BenchWorkload(seed), sf_(sf) {}

  int fixed_calls() const override { return 4; }

  Result<SetupTimes> Setup(Tracer* tracer) override {
    qed_.reset();
    selections_.clear();
    ECODB_ASSIGN_OR_RETURN(
        SetupTimes t, LoadFresh(EngineProfile::MySqlMemory(), sf_, tracer));
    for (int64_t v = 1; v <= tpch::kQuantityValues; ++v) {
      ECODB_ASSIGN_OR_RETURN(PlanNodePtr p,
                             tpch::BuildSelectionQuery(*db_->catalog(), v));
      selections_.push_back(std::move(p));
    }
    QedOptions opt;
    opt.batch_size = kQedBatch;
    qed_ = std::make_unique<QedScheduler>(db_.get(), opt);
    return t;
  }

  Status WarmPass() override {
    CallOutcome c = Call(-1, nullptr);
    return c.failed ? Status::Internal("QED warm-up flush failed")
                    : Status::OK();
  }

  CallOutcome Call(int64_t i, Tracer* tracer) override {
    CallOutcome out;
    out.members = kQedBatch;
    std::vector<int64_t> values = FlushValues(i);
    // The application hands QED ready-built plans; building them is not
    // part of the response time.
    std::vector<PlanNodePtr> plans;
    for (int64_t v : values) {
      plans.push_back(ClonePlan(*selections_[static_cast<size_t>(v - 1)]));
    }
    Machine* m = db_->machine();
    const EnergyLedger ledger0 = m->ledger();

    ScopedSpan call(tracer, "client.call", i);
    const int64_t t0 = NowNs();
    Status st;
    for (PlanNodePtr& p : plans) {
      ScopedSpan s(tracer, "qed.Submit", i);
      if (st.ok()) st = qed_->Submit(std::move(p));
    }
    const double sim0 = m->NowSeconds();
    std::vector<std::vector<Row>> members;
    if (st.ok()) {
      Result<std::vector<std::vector<Row>>> r =
          tracer ? TracedFlush(tracer, i, &out) : UntracedFlush();
      if (r.ok()) {
        members = std::move(r).value();
      } else {
        st = r.status();
      }
    }
    out.sim_s = m->NowSeconds() - sim0;
    if (st.ok()) {
      ScopedSpan s(tracer, "result.read", i);
      for (size_t k = 0; k < members.size(); ++k) {
        RecordAnswer(values[k], DigestRows(members[k], &out.cells));
      }
    }
    out.host_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (!st.ok()) {
      out.failed = kQedBatch;
      RecordError(st);
    }
    out.sim = Delta(ledger0, m->ledger());
    return out;
  }

  void FixedCallMetrics(const std::vector<CallOutcome>& fixed,
                        Metrics* out) override {
    uint64_t merged = 0;
    for (const CallOutcome& c : fixed) merged += c.merged_rows;
    out->push_back({"qed.merged_rows",
                    static_cast<double>(merged) /
                        static_cast<double>(fixed.size()),
                    "count"});
  }

  Status ExtraLayerMetrics(Tracer* tracer, Metrics* out) override {
    // Figure 6's axes at batch 35, sequential vs merged.
    ECODB_ASSIGN_OR_RETURN(
        tpch::Workload w,
        tpch::MakeSelectionWorkload(*db_->catalog(), kQedBatch, seed_));
    QedOptions opt;
    opt.batch_size = kQedBatch;
    QedScheduler cmp(db_.get(), opt);
    Result<QedBatchReport> report = [&] {
      ScopedSpan s(tracer, "qed.RunComparison", -1);
      return cmp.RunComparison(w);
    }();
    ECODB_ASSIGN_OR_RETURN(QedBatchReport rep, std::move(report));
    if (!rep.results_match) {
      RecordBadAnswer();
      RecordError(Status::Internal("RunComparison: split != sequential"));
    }
    out->push_back({"qed.energy_ratio", rep.energy_ratio, "ratio"});
    out->push_back({"qed.response_ratio", rep.response_ratio, "ratio"});
    return Status::OK();
  }

 protected:
  // A member's answer must equal its own query run alone, and that result
  // must equal the row-mode run of the same plan.
  Result<Digest> Oracle(int64_t key) override {
    const PlanNode& plan = *selections_[static_cast<size_t>(key - 1)];
    ECODB_ASSIGN_OR_RETURN(QueryResult seq, db_->ExecutePlanQuery(plan));
    uint64_t cells = 0;
    Digest d = DigestRows(seq.rows(), &cells);
    ECODB_ASSIGN_OR_RETURN(Digest row_mode, RowModeDigest(db_.get(), plan));
    if (!(d == row_mode)) {
      return Status::Internal("sequential batch and row-mode results differ");
    }
    return d;
  }

 private:
  std::vector<int64_t> FlushValues(int64_t i) const {
    std::vector<int64_t> v(static_cast<size_t>(tpch::kQuantityValues));
    std::iota(v.begin(), v.end(), 1);
    for (size_t k = v.size() - 1; k > 0; --k) {
      const size_t j =
          Mix(seed_ ^ 0x5E1EC7ULL, static_cast<uint64_t>(i), k) % (k + 1);
      std::swap(v[k], v[j]);
    }
    v.resize(kQedBatch);
    return v;
  }

  Result<std::vector<std::vector<Row>>> UntracedFlush() {
    ECODB_ASSIGN_OR_RETURN(QedScheduler::FlushResult f, qed_->Flush());
    return std::move(f.per_query_rows);
  }

  // The flush split into the public calls the workload scheduler composes.
  Result<std::vector<std::vector<Row>>> TracedFlush(Tracer* tracer, int64_t i,
                                                    CallOutcome* out) {
    Result<MergedSelection> merged = [&] {
      ScopedSpan s(tracer, "qed.MergeQueued", i);
      return qed_->MergeQueued();
    }();
    if (!merged.ok()) return merged.status();
    auto ctx = db_->MakeExecContext();
    Result<std::vector<Row>> rows = [&] {
      ScopedSpan s(tracer, "exec.ExecutePlan", i);
      return ExecutePlan(*merged.value().plan, ctx.get(),
                         db_->options().exec_mode);
    }();
    if (!rows.ok()) return rows.status();
    ScopedSpan s(tracer, "qed.SplitMergedResult", i);
    std::vector<std::vector<Row>> split =
        SplitMergedResult(merged.value(), rows.value(), ctx.get());
    out->exec = ctx->stats();
    out->merged_rows = rows.value().size();
    return split;
  }

  double sf_;
  std::vector<PlanNodePtr> selections_;  ///< index v-1 selects l_quantity = v
  std::unique_ptr<QedScheduler> qed_;
};

// ---------------------------------------------------------------------------
// sort_drain
// ---------------------------------------------------------------------------

// Numeric sort keys of like cost: near-unique prices and two integer keys
// with many duplicates, each ascending and descending.
struct SortVariant {
  const char* column;
  bool descending;
};
constexpr SortVariant kSortVariants[] = {
    {"l_extendedprice", false}, {"l_extendedprice", true},
    {"l_partkey", false},       {"l_partkey", true},
    {"l_suppkey", false},       {"l_suppkey", true},
};
constexpr int kNumSortVariants =
    static_cast<int>(sizeof(kSortVariants) / sizeof(kSortVariants[0]));

class SortDrain : public BenchWorkload {
 public:
  SortDrain(uint64_t seed, double sf) : BenchWorkload(seed), sf_(sf) {}

  int fixed_calls() const override { return 12; }

  Result<SetupTimes> Setup(Tracer* tracer) override {
    ECODB_ASSIGN_OR_RETURN(
        SetupTimes t, LoadFresh(EngineProfile::MySqlMemory(), sf_, tracer));
    sort_cols_.clear();
    const Schema lineitem = tpch::LineitemSchema();
    for (const SortVariant& v : kSortVariants) {
      int col = lineitem.FindField(v.column);
      if (col < 0) return Status::NotFound(v.column);
      sort_cols_.push_back(col);
    }
    return t;
  }

  Status WarmPass() override {
    for (int v = 0; v < kNumSortVariants; ++v) {
      ECODB_ASSIGN_OR_RETURN(QueryResult r, db_->ExecuteSql(Sql(v)));
      uint64_t cells = 0;
      ReadAnswer(v, r.result, &cells);
    }
    return Status::OK();
  }

  CallOutcome Call(int64_t i, Tracer* tracer) override {
    CallOutcome out;
    const int v = static_cast<int>(
        Mix(seed_, static_cast<uint64_t>(i)) % kNumSortVariants);
    const std::string sql = Sql(v);
    Machine* m = db_->machine();
    const EnergyLedger ledger0 = m->ledger();

    ScopedSpan call(tracer, "client.call", i);
    const int64_t t0 = NowNs();
    Result<PlanNodePtr> plan = [&] {
      ScopedSpan s(tracer, "sql.PlanSql", i);
      return db_->PlanSql(sql);
    }();
    Status st = plan.status();
    if (st.ok()) {
      Result<QueryResult> r = [&] {
        ScopedSpan s(tracer, "exec.ExecutePlanQuery", i);
        return db_->ExecutePlanQuery(*plan.value());
      }();
      if (r.ok()) {
        {
          ScopedSpan s(tracer, "result.read", i);
          ReadAnswer(v, r.value().result, &out.cells);
        }
        out.sim_s = r.value().seconds;
        out.exec = r.value().exec_stats;
      } else {
        st = r.status();
      }
    }
    out.host_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (!st.ok()) {
      out.failed = 1;
      RecordError(st);
    }
    out.sim = Delta(ledger0, m->ledger());
    return out;
  }

  // exec/morsel: every variant re-run at exec_workers = 1 and 2. The host
  // speedup is what this host sees; the simulated core speedup is the
  // simulator's concurrency view (per-core busy sum over makespan).
  Status ExtraLayerMetrics(Tracer* tracer, Metrics* out) override {
    constexpr int kReps = 2;
    std::vector<double> w1_ms, w2_ms, core_speedup;
    for (int rep = 0; rep < kReps; ++rep) {
      for (int v = 0; v < kNumSortVariants; ++v) {
        ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, db_->PlanSql(Sql(v)));
        for (int workers : {1, 2}) {
          db_->set_exec_workers(workers);
          db_->machine()->ResetCoreLedgers();
          const int64_t t0 = NowNs();
          Result<QueryResult> r = [&] {
            ScopedSpan s(tracer,
                         workers == 1 ? "morsel.ExecutePlanQuery_w1"
                                      : "morsel.ExecutePlanQuery_w2",
                         -1);
            return db_->ExecutePlanQuery(*plan);
          }();
          const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
          db_->set_exec_workers(1);
          ECODB_RETURN_NOT_OK(r.status());
          uint64_t cells = 0;
          ReadAnswer(v, r.value().result, &cells);
          if (workers == 1) {
            w1_ms.push_back(ms);
            continue;
          }
          w2_ms.push_back(ms);
          const ParallelPhaseSummary ph =
              db_->machine()->SummarizeCorePhase();
          core_speedup.push_back(
              ph.makespan_s > 0 ? ph.busy_sum_s / ph.makespan_s : 1.0);
        }
      }
    }
    db_->machine()->ResetCoreLedgers();
    const double w2 = Median(w2_ms);
    out->push_back({"morsel.execute_ms_w2", w2, "ms"});
    out->push_back({"morsel.host_speedup_w2", Median(w1_ms) / w2, "ratio"});
    out->push_back({"morsel.sim_core_speedup", Median(core_speedup), "ratio"});
    return Status::OK();
  }

 protected:
  Result<Digest> Oracle(int64_t key) override {
    ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan,
                           db_->PlanSql(Sql(static_cast<int>(key))));
    return RowModeDigest(db_.get(), *plan);
  }

 private:
  // The client's pass over a sort result: every cell read, the key order
  // checked, the answer recorded for the check after the run.
  void ReadAnswer(int v, const ResultSet& rs, uint64_t* cells) {
    Digest d;
    if (!ReadResult(rs, sort_cols_[static_cast<size_t>(v)],
                    kSortVariants[v].descending, &d, cells)) {
      RecordBadAnswer();
    }
    RecordAnswer(v, d);
  }

  static std::string Sql(int v) {
    return std::string("SELECT * FROM lineitem ORDER BY ") +
           kSortVariants[v].column + (kSortVariants[v].descending ? " DESC"
                                                                  : " ASC");
  }

  double sf_;
  std::vector<int> sort_cols_;  ///< sort key column per variant
};

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  return Mix64(Mix64(Mix64(seed) ^ a) ^ b);
}

Result<SetupTimes> BenchWorkload::LoadFresh(const EngineProfile& profile,
                                            double sf, Tracer* tracer) {
  db_.reset();
  DatabaseOptions opt;
  opt.profile = profile;
  opt.exec_workers = 1;
  db_ = std::make_unique<Database>(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  SetupTimes t;
  int64_t t0 = NowNs();
  {
    ScopedSpan s(tracer, "tpch.LoadTpch", -1);
    ECODB_RETURN_NOT_OK(db_->LoadTpch(gen));
  }
  int64_t t1 = NowNs();
  {
    ScopedSpan s(tracer, "storage.WarmUp", -1);
    ECODB_RETURN_NOT_OK(db_->WarmUp());
  }
  int64_t t2 = NowNs();
  t.load_s = Seconds(t0, t1);
  t.warmup_s = Seconds(t1, t2);
  return t;
}

void BenchWorkload::RecordError(const Status& st) {
  if (first_error_.empty()) first_error_ = st.ToString();
}

Result<int64_t> BenchWorkload::VerifyAnswers() {
  int64_t wrong = bad_answers_;
  for (const auto& [key, seen] : answers_) {
    Result<Digest> want = Oracle(key);
    if (!want.ok()) RecordError(want.status());
    for (const auto& [digest, count] : seen) {
      if (!want.ok() || !(digest == want.value())) wrong += count;
    }
  }
  return wrong;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"pvc_q5", "qed_selections",
                                                  "sort_drain"};
  return kNames;
}

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            uint64_t seed, const Scale& scale) {
  if (name == "pvc_q5") return std::make_unique<PvcQ5>(seed, scale.pvc_sf);
  if (name == "qed_selections") {
    return std::make_unique<QedSelections>(seed, scale.memory_sf);
  }
  if (name == "sort_drain") {
    return std::make_unique<SortDrain>(seed, scale.memory_sf);
  }
  return nullptr;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double HostRefMs() {
  constexpr size_t kN = size_t{1} << 18;
  std::vector<uint64_t> v(kN);
  for (size_t k = 0; k < kN; ++k) v[k] = Mix64(k);
  const int64_t t0 = NowNs();
  std::sort(v.begin(), v.end());
  std::unordered_map<uint64_t, uint32_t> counts;
  for (uint64_t x : v) ++counts[x >> 46];
  const int64_t t1 = NowNs();
  if (counts.empty()) std::abort();  // keeps the kernel's work observable
  return static_cast<double>(t1 - t0) * 1e-6;
}

}  // namespace ecobench
