#include "workloads.h"

#include <chrono>
#include <cstdio>

#include "common/random.h"
#include "workload/insta.h"
#include "workload/queries.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace perfbench {

using vdb::Status;
using vdb::core::VerdictContext;
using vdb::core::VerdictOptions;
using vdb::engine::Database;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return vdb::SplitMix64Finalize(seed * 0x9E3779B97F4A7C15ull + salt);
}

namespace {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Check(const std::string& what, const Status& st) {
  if (st.ok()) return st;
  return Status::Internal(what + ": " + st.ToString());
}

template <typename T>
Status Check(const std::string& what, const vdb::Result<T>& r) {
  return Check(what, r.status());
}

Status Exec(Database* db, const std::string& sql) {
  return Check(sql, db->Execute(sql));
}

Status Generate(Database* db, const std::string& name, int64_t rows,
                uint64_t seed) {
  return Check("generate " + name,
               vdb::workload::GenerateSynthetic(db, name, rows, seed));
}

/// Instantiates a template with one seeded constant per variant, printed
/// with three decimals. Variant i draws from the i-th of kVariants equal
/// slices of [lo, hi), so the constants change with the seed while the
/// shape's average selectivity, and with it its cost, barely does.
Shape Seeded(const char* name, int weight, const char* fmt, vdb::Rng* rng,
             double lo, double hi) {
  constexpr int kVariants = 4;
  Shape s{name, weight, {}};
  for (int i = 0; i < kVariants; ++i) {
    const double c = lo + (hi - lo) * (i + rng->NextDouble()) / kVariants;
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, c);
    s.variants.push_back(buf);
  }
  return s;
}

std::unique_ptr<VerdictContext> MakeContext(Database* db,
                                            VerdictOptions opts) {
  return std::make_unique<VerdictContext>(
      db, vdb::driver::EngineKind::kGeneric, opts);
}

/// The seed of the k-th staging batch.
uint64_t StageSeed(uint64_t seed, int k) {
  return SubSeed(seed, 1000 + static_cast<uint64_t>(k));
}

// ---- sales: small_sample and ingest ---------------------------------------

constexpr int64_t kSalesRows = 1'000'000;
constexpr int64_t kSales2Rows = kSalesRows / 4;
constexpr int64_t kStageRows = 1'000;

Status SetupSales(uint64_t seed, bool stratified, Instance* out) {
  out->db = std::make_unique<Database>(SubSeed(seed, 1));
  Database* db = out->db.get();
  const double t0 = NowS();
  VDB_RETURN_IF_ERROR(Generate(db, "sales", kSalesRows, SubSeed(seed, 2)));
  VDB_RETURN_IF_ERROR(Generate(db, "sales2", kSales2Rows, SubSeed(seed, 3)));
  const double t1 = NowS();
  VerdictOptions opts;
  opts.num_threads = 1;
  out->ctx = MakeContext(db, opts);
  auto& b = out->ctx->sample_builder();
  for (const char* table : {"sales", "sales2"}) {
    VDB_RETURN_IF_ERROR(
        Check("uniform sample", b.CreateUniformSample(table, 0.02)));
    VDB_RETURN_IF_ERROR(
        Check("hashed sample", b.CreateHashedSample(table, "id", 0.02)));
  }
  if (stratified) {
    VDB_RETURN_IF_ERROR(
        Check("stratified sample",
              b.CreateStratifiedSample("sales", {"g100"}, 0.02)));
  }
  out->datagen_s = t1 - t0;
  out->build_s = NowS() - t1;
  return Status::Ok();
}

std::vector<Shape> SalesShapes(uint64_t seed) {
  vdb::Rng rng(SubSeed(seed, 10));
  return {
      Seeded("flat", 1,
             "select sum(value) as s, avg(value) as a, count(*) as c"
             " from sales where u < %.3f",
             &rng, 0.3, 0.9),
      {"group_g10", 1,
       {"select g10, sum(value) as s, avg(value) as a, count(*) as c"
        " from sales group by g10"}},
      Seeded("group_g100", 1,
             "select g100, count(*) as c, avg(value) as a from sales"
             " where u < %.3f group by g100",
             &rng, 0.6, 0.95),
      Seeded("nested", 1,
             "select avg(s) as m from (select g100, sum(value) as s"
             " from sales where u < %.3f group by g100) as t",
             &rng, 0.5, 0.95),
      Seeded("universe_join", 1,
             "select count(*) as c, sum(a.value) as s from sales a"
             " inner join sales2 b on a.id = b.id where a.u < %.3f",
             &rng, 0.5, 0.95),
  };
}

Status StageSales(Instance* inst, uint64_t seed, int k,
                  const std::string& name) {
  VDB_RETURN_IF_ERROR(Exec(inst->db.get(), "drop table if exists " + name));
  return Generate(inst->db.get(), name, kStageRows, StageSeed(seed, k));
}

// small_sample: AQP's intended regime. Each query issues 2-3 statements
// (catalog read, NDV probe, rewritten query) against a ~20K-row sample, so
// middleware and per-statement fixed cost dominate, and an engine-throughput
// change should not move it.
Status SetupSmallSample(uint64_t seed, Instance* out) {
  return SetupSales(seed, /*stratified=*/false, out);
}

// ingest: the write path of the same sampling and catalog layers: base
// INSERT, per-sample maintenance, and the metadata-table rewrite in
// UpdateCounts, whose cost grows with the base table. Any read-side cache
// must stay correct and cheap after writes.
Status SetupIngest(uint64_t seed, Instance* out) {
  return SetupSales(seed, /*stratified=*/true, out);
}

// ---- large_sample -----------------------------------------------------------

constexpr int64_t kLargeRows = 2'000'000;
constexpr int kLargeGroups = 5'000;

/// Copies `from` into `to` with the derived group column g5k.
Status DeriveLarge(Database* db, const std::string& from,
                   const std::string& to, uint64_t seed) {
  // (id * 7919 + c) % 5000 puts exactly rows/5000 rows in every group, since
  // 7919 is prime to 5000; the seeded offset changes which ids share one.
  const std::string offset = std::to_string(SubSeed(seed, 4) % kLargeGroups);
  VDB_RETURN_IF_ERROR(
      Exec(db, "create table " + to +
                   " as select id, value, u, g10, g100, (id * 7919 + " +
                   offset + ") % " + std::to_string(kLargeGroups) +
                   " as g5k from " + from));
  return Exec(db, "drop table " + from);
}

// large_sample: engine aggregation dominates (group table, morsel partial
// merge, thread pool) and middleware is under 1% of the time. Its
// high-cardinality group reaches ~400K (group, subsample) cells.
Status SetupLargeSample(uint64_t seed, Instance* out) {
  out->db = std::make_unique<Database>(SubSeed(seed, 1));
  Database* db = out->db.get();
  const double t0 = NowS();
  VDB_RETURN_IF_ERROR(Generate(db, "sales_raw", kLargeRows, SubSeed(seed, 2)));
  VDB_RETURN_IF_ERROR(DeriveLarge(db, "sales_raw", "sales", seed));
  const double t1 = NowS();
  VerdictOptions opts;
  opts.num_threads = 2;
  opts.io_budget = 0.2;
  out->ctx = MakeContext(db, opts);
  VDB_RETURN_IF_ERROR(
      Check("uniform sample",
            out->ctx->sample_builder().CreateUniformSample("sales", 0.2)));
  out->datagen_s = t1 - t0;
  out->build_s = NowS() - t1;
  return Status::Ok();
}

std::vector<Shape> LargeShapes(uint64_t seed) {
  vdb::Rng rng(SubSeed(seed, 10));
  // Weights 8:1:1 put the median inside the g10 latency range and p95 in the
  // middle of the g5k range, away from the boundaries between shapes.
  return {
      Seeded("group_g10", 8,
             "select g10, sum(value) as s, avg(value) as a from sales"
             " where u < %.3f group by g10",
             &rng, 0.8, 0.95),
      Seeded("group_g100", 1,
             "select g100, count(*) as c, avg(value) as a from sales"
             " where u < %.3f group by g100",
             &rng, 0.6, 0.95),
      Seeded("group_g5k", 1,
             "select g5k, sum(value) as s, count(*) as c from sales"
             " where u < %.3f group by g5k",
             &rng, 0.6, 0.95),
  };
}

Status StageLarge(Instance* inst, uint64_t seed, int k,
                  const std::string& name) {
  Database* db = inst->db.get();
  const std::string raw = name + "_raw";
  VDB_RETURN_IF_ERROR(Exec(db, "drop table if exists " + name));
  VDB_RETURN_IF_ERROR(Generate(db, raw, kStageRows, StageSeed(seed, k)));
  return DeriveLarge(db, raw, name, seed);
}

// ---- paper_mix --------------------------------------------------------------

// paper_mix: the paper's own traffic, the 33 queries of §6.2 on TPC-H and
// Instacart data with 13 samples. It is the only workload where the sample
// planner picks among many samples and join pairings, and where 8 of 33
// queries pass through to exact joins that set p95, so the exact path is
// measured too.
//
// The base tables are those of the §6.2 experiments (bench::AqpFixture),
// generated from the generators' fixed seeds; the run's seed draws the
// uniform samples, the query seeds and the query order.
Status SetupPaperMix(uint64_t seed, Instance* out) {
  out->db = std::make_unique<Database>(SubSeed(seed, 1));
  Database* db = out->db.get();
  const double t0 = NowS();
  vdb::workload::TpchConfig tc;
  tc.scale = 1.0;
  VDB_RETURN_IF_ERROR(
      Check("generate tpch", vdb::workload::GenerateTpch(db, tc)));
  vdb::workload::InstaConfig ic;
  ic.scale = 1.0;
  VDB_RETURN_IF_ERROR(
      Check("generate insta", vdb::workload::GenerateInsta(db, ic)));
  const double t1 = NowS();
  // The sample set and options of the §6.2 experiments (bench::AqpFixture).
  VerdictOptions opts;
  opts.min_rows_for_sampling = 30000;
  opts.io_budget = 0.12;
  opts.min_tuples_per_group = 16;
  opts.num_threads = 2;
  out->ctx = MakeContext(db, opts);
  auto& b = out->ctx->sample_builder();
  struct Spec {
    const char* table;
    const char* column;  // nullptr: uniform
    double ratio;
  };
  const Spec specs[] = {
      {"lineitem", nullptr, 0.01},       {"lineitem", "l_orderkey", 0.02},
      {"lineitem", "l_partkey", 0.02},   {"orders", nullptr, 0.05},
      {"orders", "o_orderkey", 0.02},    {"partsupp", nullptr, 0.10},
      {"partsupp", "ps_suppkey", 0.10},  {"partsupp", "ps_partkey", 0.10},
      {"order_products", nullptr, 0.02}, {"order_products", "order_id", 0.02},
      {"orders_insta", nullptr, 0.05},   {"orders_insta", "order_id", 0.02},
      {"orders_insta", "user_id", 0.02},
  };
  for (const Spec& s : specs) {
    auto r = s.column == nullptr
                 ? b.CreateUniformSample(s.table, s.ratio)
                 : b.CreateHashedSample(s.table, s.column, s.ratio);
    VDB_RETURN_IF_ERROR(Check(s.table, r));
  }
  out->datagen_s = t1 - t0;
  out->build_s = NowS() - t1;
  return Status::Ok();
}

std::vector<Shape> PaperShapes(uint64_t /*seed*/) {
  std::vector<Shape> shapes;
  for (auto* list :
       {vdb::workload::TpchQueries, vdb::workload::InstaQueries}) {
    for (const auto& q : list()) shapes.push_back({q.id, 1, {q.sql}});
  }
  return shapes;
}

Status StagePaper(Instance* inst, uint64_t seed, int k,
                  const std::string& name) {
  Database* db = inst->db.get();
  VDB_RETURN_IF_ERROR(Exec(db, "drop table if exists " + name));
  // About 6K existing lineitem rows, a different slice for every batch.
  const uint64_t slice = (SubSeed(seed, 5) + static_cast<uint64_t>(k)) % 101;
  return Exec(db, "create table " + name +
                      " as select * from lineitem where l_orderkey % 101 = " +
                      std::to_string(slice));
}

const Workload kWorkloads[] = {
    {"small_sample", 230, 0, "sales", SetupSmallSample, SalesShapes,
     StageSales},
    {"large_sample", 14, 0, "sales", SetupLargeSample, LargeShapes,
     StageLarge},
    {"ingest", 200, 20, "sales", SetupIngest, SalesShapes, StageSales},
    {"paper_mix", 40, 0, "lineitem", SetupPaperMix, PaperShapes, StagePaper},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
