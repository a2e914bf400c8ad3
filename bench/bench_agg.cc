// Flat aggregation sink benchmark: the open-addressing group table + SoA
// scatter-accumulate path (engine/agg_table.h, FlatAggregator) against the
// per-group accumulator-object reference sink, swept across group counts
// and thread counts.
//
// Two shapes:
//   - group-count sweep: GROUP BY g, sum+count over 10 / 1K / 100K / 1M
//     distinct groups — from a handful of cache-resident accumulator lanes
//     to group tables far beyond LLC, where probe misses dominate.
//   - sid shape: GROUP BY (g10, sid) over a derived table assigning a
//     row-addressed `1 + floor(rand() * 100)` subsample id — the AQP hot
//     path the VerdictDB rewriter emits (Figure 7's inner loop), with its
//     Double sid key and 1000-group (10 x 100) product.
//   - small-sample sid shape: GROUP BY (g100, sid) over 16K rows — one
//     morsel holding ~8K of the 10K (100 x 100) groups, the size of the
//     samples AQP runs on, where per-statement fixed cost (key gather,
//     finalize) rather than scan throughput sets the latency.
//   - count-distinct shapes: the middleware's NDV probe,
//     `select count(distinct g)` over 10 and 100K distinct values, and a
//     grouped `count(distinct w)` (GROUP BY g10, w over 1K values) — the
//     flat sink's (value, group) pair sets, built through the dense
//     group-id arm for these integer domains.
//
// Both sinks produce bit-identical results (pinned by FlatAggTest); only
// the execution strategy differs. --smoke shrinks rows/reps for the
// sanitizer CI jobs; --json writes BENCH_agg.json.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "engine/planner.h"

namespace {

using namespace vdb;
using engine::Column;
using engine::Database;
using engine::Table;
using engine::TablePtr;

/// Rows with `g` uniform over [0, groups) in random order plus a double
/// measure; the same data for every sink and thread count.
TablePtr BuildTable(size_t rows, size_t groups, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> g(rows);
  std::vector<double> v(rows);
  for (size_t r = 0; r < rows; ++r) {
    g[r] = static_cast<int64_t>(rng.NextBounded(groups));
    // Multiples of 0.25: partial-sum merge order cannot perturb results.
    v[r] = static_cast<double>(rng.NextInRange(0, 4000)) * 0.25;
  }
  auto t = std::make_shared<Table>();
  t->AddColumn("g", Column::FromData(TypeId::kInt64, std::move(g), {}, {}, {}));
  t->AddColumn("v",
               Column::FromData(TypeId::kDouble, {}, std::move(v), {}, {}));
  return t;
}

/// BuildTable plus an Int64 column w uniform over [0, values), drawn from its
/// own stream so g and v match BuildTable's.
TablePtr BuildTableWithW(size_t rows, size_t groups, size_t values,
                         uint64_t seed) {
  TablePtr t = BuildTable(rows, groups, seed);
  Rng rng(seed + 1);
  std::vector<int64_t> w(rows);
  for (size_t r = 0; r < rows; ++r) {
    w[r] = static_cast<int64_t>(rng.NextBounded(values));
  }
  t->AddColumn("w", Column::FromData(TypeId::kInt64, std::move(w), {}, {}, {}));
  return t;
}

struct SweepPoint {
  size_t groups;
  const char* label;
};

void RunCase(Database* db, const std::string& sql, const std::string& op,
             size_t rows, int reps) {
  // Reference sink first (serial; the object path has no parallel merge for
  // comparison parity — flat is what the planner actually runs).
  db->set_num_threads(1);
  (void)db->Execute(sql);  // warm-up: thread pool, faults, allocator
  engine::SetFlatAggSinkForTest(false);
  const double ref =
      bench::TimeMedianMs(reps, [&] { (void)db->Execute(sql); });
  engine::SetFlatAggSinkForTest(true);
  std::printf("%-34s %10.1f %11.2fM %9s\n", "reference (object sink) @1",
              ref, static_cast<double>(rows) / ref / 1e3, "1.00x");
  bench::BenchJsonRecord(op, "reference", ref, 1);

  for (int threads : {1, 2, 4, 8}) {
    db->set_num_threads(threads);
    const double ms =
        bench::TimeMedianMs(reps, [&] { (void)db->Execute(sql); });
    char label[64];
    std::snprintf(label, sizeof(label), "flat sink @%d", threads);
    std::printf("%-34s %10.1f %11.2fM %8.2fx\n", label, ms,
                static_cast<double>(rows) / ms / 1e3, ref / ms);
    bench::BenchJsonRecord(op, "flat", ms, threads);
  }
  db->set_num_threads(1);
}

void RunGroupSweep(bool smoke) {
  const size_t rows = smoke ? 100'000 : 1'000'000;
  const int reps = smoke ? 1 : 5;
  const std::vector<SweepPoint> points =
      smoke ? std::vector<SweepPoint>{{10, "10"}, {1'000, "1K"}}
            : std::vector<SweepPoint>{{10, "10"},
                                      {1'000, "1K"},
                                      {100'000, "100K"},
                                      {1'000'000, "1M"}};
  for (const SweepPoint& p : points) {
    std::printf("\n== GROUP BY g: %zu rows, %s groups ==\n", rows, p.label);
    std::printf("%-34s %10s %12s %10s\n", "sink", "ms", "rows/s", "speedup");
    Database db(4242);
    if (!db.RegisterTable("t", BuildTable(rows, p.groups, 17)).ok()) return;
    RunCase(&db, "select g, sum(v) as s, count(*) as c from t group by g",
            std::string("group by g (") + p.label + " groups)", rows, reps);
  }
}

void RunSidShape(bool smoke) {
  const size_t rows = smoke ? 100'000 : 1'000'000;
  const int reps = smoke ? 1 : 5;
  std::printf("\n== GROUP BY (g10, sid): %zu rows, b = 100 ==\n", rows);
  std::printf("%-34s %10s %12s %10s\n", "sink", "ms", "rows/s", "speedup");
  Database db(4242);
  if (!db.RegisterTable("t", BuildTable(rows, 10, 23)).ok()) return;
  RunCase(&db,
          "select g, sid, sum(v) as e, count(*) as ss from "
          "(select *, 1 + floor(rand() * 100) as sid from t) as d "
          "group by g, sid",
          "group by (g10, sid)", rows, reps);
}

void RunSmallSampleShape(bool smoke) {
  const size_t rows = 16'384;  // one morsel: no cross-morsel merge runs
  const int reps = smoke ? 3 : 51;
  std::printf("\n== GROUP BY (g100, sid): %zu rows (one morsel), b = 100 ==\n",
              rows);
  std::printf("%-34s %10s %12s %10s\n", "sink", "ms", "rows/s", "speedup");
  Database db(4242);
  if (!db.RegisterTable("t", BuildTable(rows, 100, 29)).ok()) return;
  RunCase(&db,
          "select g, sid, sum(v) as e, count(*) as ss from "
          "(select *, 1 + floor(rand() * 100) as sid from t) as d "
          "group by g, sid",
          "group by (g100, sid) 16K rows", rows, reps);
}

void RunDistinctShapes(bool smoke) {
  const size_t rows = smoke ? 100'000 : 1'000'000;
  const int reps = smoke ? 1 : 5;
  for (const SweepPoint& p :
       {SweepPoint{10, "10"}, SweepPoint{100'000, "100K"}}) {
    std::printf("\n== count(distinct g): %zu rows, %s distinct values ==\n",
                rows, p.label);
    std::printf("%-34s %10s %12s %10s\n", "sink", "ms", "rows/s", "speedup");
    Database db(4242);
    if (!db.RegisterTable("t", BuildTable(rows, p.groups, 31)).ok()) return;
    RunCase(&db, "select count(distinct g) as d from t",
            std::string("count(distinct g) (") + p.label + " values)", rows,
            reps);
  }
  std::printf("\n== GROUP BY g10, count(distinct w): %zu rows, 1K values ==\n",
              rows);
  std::printf("%-34s %10s %12s %10s\n", "sink", "ms", "rows/s", "speedup");
  Database db(4242);
  if (!db.RegisterTable("t", BuildTableWithW(rows, 10, 1'000, 37)).ok()) {
    return;
  }
  RunCase(&db, "select g, count(distinct w) as d from t group by g",
          "group by g10, count(distinct w)", rows, reps);
}

}  // namespace

int main(int argc, char** argv) {
  vdb::bench::BenchJsonInit("agg", argc, argv);
  const bool smoke = vdb::bench::HasFlag(argc, argv, "--smoke");
  RunGroupSweep(smoke);
  RunSidShape(smoke);
  RunSmallSampleShape(smoke);
  RunDistinctShapes(smoke);
  vdb::bench::BenchJsonWrite();
  return 0;
}
