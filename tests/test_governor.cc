// Query governor end-to-end: cooperative cancellation, deadlines, memory
// budgets, and the fault-injection sweep.
//
// The contract under test (docs/INVARIANTS.md, "Cancellation / budget
// contract"):
//   - a tripped guard unwinds every execution stage with a clean Status
//     (kCancelled / kDeadlineExceeded / kResourceExhausted) at 1, 2 and 8
//     threads — no crash, no partial result, no corrupted engine state;
//   - an armed-but-untripped guard is invisible: results are bit-identical
//     to an unguarded run, including row order and rand()-derived values;
//   - budget trips are leak-free (the CI fault-injection leg runs this
//     binary under ASan+UBSan) and a statement that tripped leaves the
//     Database fully usable;
//   - every governed site doubles as a fault point, and injecting a failure
//     at each reachable site produces a clean error, never an abort.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/governor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/verdict_context.h"
#include "engine/database.h"

namespace vdb::engine {
namespace {

constexpr uint64_t kSeed = 20260808;
constexpr size_t kTestMorselRows = 500;

TablePtr BuildOrders(size_t n) {
  Rng rng(kSeed);
  auto t = std::make_shared<Table>();
  t->AddColumn("id", TypeId::kInt64);
  t->AddColumn("city", TypeId::kString);
  t->AddColumn("price", TypeId::kDouble);
  t->AddColumn("k", TypeId::kInt64);
  const char* cities[] = {"ann arbor", "detroit", "chicago", "nyc", "sf"};
  for (size_t r = 0; r < n; ++r) {
    double price = static_cast<double>(rng.NextInRange(0, 4000)) * 0.25;
    t->AppendRow({Value::Int(static_cast<int64_t>(r)),
                  Value::String(cities[rng.NextBounded(5)]),
                  Value::Double(price),
                  Value::Int(rng.NextInRange(0, 60))});
  }
  return t;
}

TablePtr BuildDim() {
  auto t = std::make_shared<Table>();
  t->AddColumn("k", TypeId::kInt64);
  t->AddColumn("label", TypeId::kString);
  for (int64_t k = 0; k < 50; ++k) {
    t->AppendRow({Value::Int(k), Value::String("label_" + std::to_string(k))});
  }
  return t;
}

std::unique_ptr<Database> MakeDb(size_t rows, int num_threads) {
  auto db = std::make_unique<Database>(kSeed);
  db->set_num_threads(num_threads);
  EXPECT_TRUE(db->RegisterTable("orders", BuildOrders(rows)).ok());
  EXPECT_TRUE(db->RegisterTable("dim", BuildDim()).ok());
  return db;
}

// One query per execution stage the governor polls: scan/filter, grouped
// aggregation (all paths), hash join build+probe, non-equi (cross) join,
// derived table, and the row-addressed rand() rewrite shape.
const std::vector<std::string>& WorkloadQueries() {
  static const std::vector<std::string> kQueries = {
      "select id, price from orders where price > 500",
      "select city, count(*) as c, sum(price) as sp from orders "
      "group by city order by city",
      "select d.label, count(*) as c, avg(o.price) as ap from orders o "
      "inner join dim d on o.k = d.k group by d.label order by d.label",
      "select count(*) as c from orders o inner join dim d on o.k < d.k "
      "where d.k > 47",
      "select count(*) as c from orders o cross join dim d",
      "select city, c from (select city, count(*) as c from orders "
      "group by city) t order by city",
      "select city, sid, count(*) as c from (select *, 1 + floor(rand() * 8) "
      "as sid from orders) t group by city, sid order by city, sid",
      // The flat COUNT(DISTINCT) pair sets (site agg_distinct_pairs).
      "select city, count(distinct id % 97) as d from orders group by city "
      "order by city",
  };
  return kQueries;
}

bool IsGovernorCode(StatusCode code) {
  return code == StatusCode::kCancelled ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

void ExpectBitIdentical(const ResultSet& ref, const ResultSet& got,
                        const std::string& what) {
  ASSERT_EQ(ref.NumCols(), got.NumCols()) << what;
  ASSERT_EQ(ref.NumRows(), got.NumRows()) << what;
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    for (size_t c = 0; c < ref.NumCols(); ++c) {
      ASSERT_TRUE(ref.Get(r, c).Equals(got.Get(r, c)))
          << what << " cell (" << r << "," << c << "): "
          << ref.Get(r, c).ToString() << " vs " << got.Get(r, c).ToString();
    }
  }
}

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFaultPoints();
    SetMorselRowsForTest(kTestMorselRows);
  }
  void TearDown() override {
    SetMorselRowsForTest(0);
    DisarmAllFaultPoints();
  }
};

// ---- ExecGuard unit behavior ------------------------------------------------

TEST_F(GovernorTest, GuardStartsDisarmedAndPollsOk) {
  ExecGuard g;
  EXPECT_TRUE(g.Check("unit").ok());
  EXPECT_TRUE(g.TryReserve(1 << 20, "unit").ok());
  EXPECT_EQ(g.reserved_bytes(), static_cast<uint64_t>(1 << 20));
  g.Release(1 << 20);
  EXPECT_EQ(g.reserved_bytes(), 0u);
}

TEST_F(GovernorTest, CancelTripsEveryPollAndNamesTheSite) {
  ExecGuard g;
  g.RequestCancel();
  const Status s = g.Check("join_probe");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("join_probe"), std::string::npos) << s.message();
  // TryReserve polls first: a cancelled guard charges nothing.
  EXPECT_EQ(g.TryReserve(64, "join_probe").code(), StatusCode::kCancelled);
  EXPECT_EQ(g.reserved_bytes(), 0u);
  g.ResetForStatement();
  EXPECT_TRUE(g.Check("join_probe").ok());
}

TEST_F(GovernorTest, DeadlineTripsAfterItPasses) {
  ExecGuard g;
  g.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  const Status s = g.Check("agg_partial");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("agg_partial"), std::string::npos);
  g.set_deadline_after_ms(0);  // disarm
  EXPECT_TRUE(g.Check("agg_partial").ok());
}

TEST_F(GovernorTest, BudgetChargesExactlyAndTripsWithoutCharging) {
  ExecGuard g;
  g.set_memory_budget_bytes(1000);
  EXPECT_TRUE(g.TryReserve(600, "a").ok());
  const Status s = g.TryReserve(600, "b");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("b"), std::string::npos);
  EXPECT_EQ(g.reserved_bytes(), 600u);  // the failed reserve charged nothing
  EXPECT_TRUE(g.TryReserve(400, "c").ok());
  EXPECT_EQ(g.peak_reserved_bytes(), 1000u);
  g.Release(1000);
  g.Release(1 << 30);  // saturating: over-release never underflows
  EXPECT_EQ(g.reserved_bytes(), 0u);
  EXPECT_EQ(g.peak_reserved_bytes(), 1000u);  // peak survives releases
  g.ResetForStatement();
  EXPECT_EQ(g.peak_reserved_bytes(), 0u);
  EXPECT_EQ(g.memory_budget_bytes(), 1000u);  // budget survives re-arming
}

TEST_F(GovernorTest, ScopedReservationReleasesAndReportsFailure) {
  ExecGuard g;
  g.set_memory_budget_bytes(100);
  {
    ScopedReservation ok(&g, 80, "scratch");
    EXPECT_TRUE(ok.status().ok());
    EXPECT_EQ(g.reserved_bytes(), 80u);
    ScopedReservation fail(&g, 80, "scratch");
    EXPECT_EQ(fail.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(g.reserved_bytes(), 80u);  // failed charge stays zero
  }
  EXPECT_EQ(g.reserved_bytes(), 0u);  // both released on scope exit
  // Null guard: free, always ok.
  ScopedReservation null_guard(nullptr, 1 << 30, "scratch");
  EXPECT_TRUE(null_guard.status().ok());
}

// ---- whole-statement unwinding at 1 / 2 / 8 threads -------------------------

TEST_F(GovernorTest, CancelUnwindsEveryStageAtEveryThreadCount) {
  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(4001, threads);
    ExecGuard guard;
    for (const std::string& sql : WorkloadQueries()) {
      guard.ResetForStatement();
      guard.RequestCancel();
      auto got = db->Execute(sql, &guard);
      ASSERT_FALSE(got.ok()) << sql << " @" << threads;
      EXPECT_EQ(got.status().code(), StatusCode::kCancelled)
          << sql << " @" << threads << " -> " << got.status().ToString();
      // The aborted statement must leave the Database fully usable.
      guard.ResetForStatement();
      auto again = db->Execute(sql, &guard);
      ASSERT_TRUE(again.ok())
          << sql << " @" << threads << " -> " << again.status().ToString();
    }
  }
}

TEST_F(GovernorTest, DeadlineUnwindsEveryStageAtEveryThreadCount) {
  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(4001, threads);
    ExecGuard guard;
    for (const std::string& sql : WorkloadQueries()) {
      guard.ResetForStatement();
      guard.set_deadline_after_ms(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      auto got = db->Execute(sql, &guard);
      ASSERT_FALSE(got.ok()) << sql << " @" << threads;
      EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
          << sql << " @" << threads << " -> " << got.status().ToString();
    }
    guard.set_deadline_after_ms(0);
  }
}

TEST_F(GovernorTest, TinyBudgetTripsRowProportionalStagesCleanly) {
  // 4001 orders rows: the join's key-hash scratch alone wants ~36 KB, the
  // probe's pair lists more; a 1 KB budget must trip them all with
  // kResourceExhausted and charge nothing durable (ASan leg proves
  // leak-free).
  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(4001, threads);
    ExecGuard guard;
    guard.set_memory_budget_bytes(1024);
    int tripped = 0;
    for (const std::string& sql : WorkloadQueries()) {
      guard.ResetForStatement();
      auto got = db->Execute(sql, &guard);
      if (got.ok()) continue;  // stages with no row-proportional reserve
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
          << sql << " @" << threads << " -> " << got.status().ToString();
      ++tripped;
    }
    EXPECT_GT(tripped, 0) << "@" << threads;
    // A generous budget on the same guard runs the whole workload again.
    guard.set_memory_budget_bytes(1ull << 32);
    for (const std::string& sql : WorkloadQueries()) {
      guard.ResetForStatement();
      auto got = db->Execute(sql, &guard);
      ASSERT_TRUE(got.ok())
          << sql << " @" << threads << " -> " << got.status().ToString();
    }
    EXPECT_GT(guard.peak_reserved_bytes(), 0u);
  }
}

TEST_F(GovernorTest, NarrowSelectOverWideJoinChargesOnlyItsColumns) {
  // A joined pair of orders (id, city, price, k) and dim (k, label) is 80
  // bytes at full width under Table::ApproxBytes' model (8 per number, 24
  // per string). A count(*) keyed on k gathers only the two k columns, so
  // the statement's whole peak reservation, join scratch included, stays
  // below the full-width gather charge alone; the same join under a
  // `select *` derived table, whose star keeps every column, charges at
  // least that much.
  constexpr uint64_t kFullPairBytes = 8 + 24 + 8 + 8 + 8 + 24;
  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(4001, threads);
    ExecGuard guard;
    guard.set_memory_budget_bytes(1ull << 40);
    auto narrow = db->Execute(
        "select count(*) as c from orders o inner join dim d on o.k = d.k",
        &guard);
    ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
    const auto pairs = static_cast<uint64_t>(narrow.value().Get(0, 0).AsInt());
    ASSERT_GT(pairs, 1000u);
    const uint64_t full_width = pairs * kFullPairBytes;
    EXPECT_LT(guard.peak_reserved_bytes(), full_width) << "@" << threads;

    guard.ResetForStatement();
    auto wide = db->Execute(
        "select count(*) as c from (select * from orders o inner join dim d "
        "on o.k = d.k) as j",
        &guard);
    ASSERT_TRUE(wide.ok()) << wide.status().ToString();
    ExpectBitIdentical(narrow.value(), wide.value(),
                       "narrow vs star @" + std::to_string(threads));
    EXPECT_GE(guard.peak_reserved_bytes(), full_width) << "@" << threads;
  }
}

// ---- armed-but-untripped guard: bit-identity --------------------------------

TEST_F(GovernorTest, UntrippedGuardIsBitIdenticalToUnguardedRun) {
  for (int threads : {1, 2, 8}) {
    for (const std::string& sql : WorkloadQueries()) {
      // Identical databases so NewQuerySeed draws match run for run.
      auto ref_db = MakeDb(4001, threads);
      auto ref = ref_db->Execute(sql);
      ASSERT_TRUE(ref.ok()) << sql << " -> " << ref.status().ToString();

      auto db = MakeDb(4001, threads);
      ExecGuard guard;
      guard.set_memory_budget_bytes(1ull << 40);
      guard.set_deadline_after_ms(10l * 60 * 1000);
      auto got = db->Execute(sql, &guard);
      ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
      ExpectBitIdentical(ref.value(), got.value(),
                         sql + " @" + std::to_string(threads));
    }
  }
}

// ---- concurrent-statement isolation -----------------------------------------

TEST_F(GovernorTest, DoomedStatementDoesNotPerturbConcurrentOnes) {
  // Two guards, one shared Database: thread A's pre-cancelled statements
  // must never leak into thread B's ungoverned exact results. (The CI TSan
  // job runs this suite; see also ParallelTest.SharedDatabaseConcurrentSelects.)
  auto db = MakeDb(4001, 4);
  const std::string sql =
      "select city, count(*) as c, sum(price) as sp from orders "
      "group by city order by city";
  auto ref = db->Execute(sql);
  ASSERT_TRUE(ref.ok());

  constexpr int kIters = 15;
  int cancelled_bad = 0, clean_bad = 0;
  std::thread doomed([&]() {
    ExecGuard guard;
    for (int i = 0; i < kIters; ++i) {
      guard.ResetForStatement();
      guard.RequestCancel();
      auto got = db->Execute(sql, &guard);
      if (got.ok() || got.status().code() != StatusCode::kCancelled) {
        ++cancelled_bad;
      }
    }
  });
  std::thread clean([&]() {
    for (int i = 0; i < kIters; ++i) {
      auto got = db->Execute(sql);
      if (!got.ok() || got.value().NumRows() != ref.value().NumRows()) {
        ++clean_bad;
        continue;
      }
      for (size_t r = 0; r < ref.value().NumRows(); ++r) {
        for (size_t c = 0; c < ref.value().NumCols(); ++c) {
          if (!ref.value().Get(r, c).Equals(got.value().Get(r, c))) {
            ++clean_bad;
          }
        }
      }
    }
  });
  doomed.join();
  clean.join();
  EXPECT_EQ(cancelled_bad, 0);
  EXPECT_EQ(clean_bad, 0);
}

// ---- fault-injection sweep --------------------------------------------------

TEST_F(GovernorTest, FaultSweepEveryReachableSiteFailsClean) {
  auto db = MakeDb(4001, 4);

  // Pass 1: observation mode discovers which governed sites this workload
  // actually reaches (fault points fire even for ungoverned statements).
  SetFaultObservationForTest(true);
  for (const std::string& sql : WorkloadQueries()) {
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
  }
  SetFaultObservationForTest(false);
  const std::vector<std::string> sites = ObservedFaultSites();
  ASSERT_FALSE(sites.empty());
  // The stages the tentpole governs must all be represented.
  for (const char* must :
       {"agg_partial", "join_build", "join_probe", "gather", "gather_alloc",
        "cross_join", "agg_distinct_pairs"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), must), sites.end())
        << "workload never reached governed site " << must;
  }

  // Pass 2: arm each site to fail on its first hit; every query either
  // avoids the site or unwinds with the injected status — never a crash.
  for (const std::string& site : sites) {
    DisarmAllFaultPoints();
    ArmFaultPointNth(site, 1, StatusCode::kResourceExhausted);
    int failed = 0;
    for (const std::string& sql : WorkloadQueries()) {
      auto got = db->Execute(sql);
      if (got.ok()) continue;
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
          << site << " / " << sql << " -> " << got.status().ToString();
      EXPECT_NE(got.status().message().find(site), std::string::npos)
          << got.status().ToString();
      ++failed;
    }
    EXPECT_GT(failed, 0) << "armed site " << site << " never fired";
  }

  // Pass 3: disarmed again, the workload runs clean.
  DisarmAllFaultPoints();
  for (const std::string& sql : WorkloadQueries()) {
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
  }
}

TEST_F(GovernorTest, GroupGrowFaultNeverYieldsWrongGroups) {
  // agg_group_grow is consulted only by merge tables (the group merge and
  // the flat COUNT(DISTINCT) pair sets), which have a failure path.
  // Unguarded scratch tables (per-morsel group ids, the object sink's
  // DISTINCT sets) must not latch the fault: they cannot report it, so they
  // would drop groups and still return OK. An armed site must either fail
  // the query with its name or leave the answer exact.
  const std::vector<std::string> queries = {
      // One morsel: only the morsel-local group table runs.
      "select count(*) as groups, sum(c) as n from (select k, count(*) as c "
      "from orders where id < 400 group by k) t",
      // Nine morsels: the merge table runs too.
      "select count(*) as groups, sum(c) as n from (select k, id % 97 as m, "
      "count(*) as c from orders group by k, id % 97) t",
      "select count(distinct k) as dk, count(distinct id % 97) as dm "
      "from orders",
  };
  auto db = MakeDb(4001, 2);
  std::vector<ResultSet> clean;
  for (const std::string& sql : queries) {
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
    clean.push_back(std::move(got).ValueOrDie());
  }
  ArmFaultPointNth("agg_group_grow", 1, StatusCode::kResourceExhausted);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto got = db->Execute(queries[i]);
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(got.status().message().find("agg_group_grow"),
                std::string::npos)
          << got.status().ToString();
      continue;
    }
    ExpectBitIdentical(clean[i], got.value(), queries[i]);
  }
}

TEST_F(GovernorTest, DistinctPairFaultNeverYieldsWrongCounts) {
  // The flat COUNT(DISTINCT) pair sets are charged at agg_distinct_pairs:
  // per morsel as each partial's pairs are built, then as the merge adds
  // pairs. Failing the Nth charge must fail the query with that site's
  // name or leave the answer exact — never drop pairs and return OK.
  const std::vector<std::string> queries = {
      "select count(distinct k) as dk from orders where id < 400",
      "select count(distinct k) as dk, count(distinct id % 97) as dm "
      "from orders",
      "select city, count(distinct id % 97) as d, sum(price) as s "
      "from orders group by city",
  };
  auto db = MakeDb(4001, 2);
  std::vector<ResultSet> clean;
  for (const std::string& sql : queries) {
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
    clean.push_back(std::move(got).ValueOrDie());
  }
  int failed = 0;
  for (uint64_t nth : {1u, 2u, 5u, 12u}) {
    for (size_t i = 0; i < queries.size(); ++i) {
      DisarmAllFaultPoints();
      ArmFaultPointNth("agg_distinct_pairs", nth,
                       StatusCode::kResourceExhausted);
      auto got = db->Execute(queries[i]);
      if (!got.ok()) {
        ++failed;
        EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
        EXPECT_NE(got.status().message().find("agg_distinct_pairs"),
                  std::string::npos)
            << got.status().ToString();
        continue;
      }
      ExpectBitIdentical(clean[i], got.value(),
                         queries[i] + " nth=" + std::to_string(nth));
    }
  }
  EXPECT_GT(failed, 0) << "agg_distinct_pairs never fired";
  DisarmAllFaultPoints();
  // A budget too small for the pair sets unwinds cleanly as well.
  ExecGuard guard;
  guard.set_memory_budget_bytes(4096);
  auto got = db->Execute(queries[1], &guard);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernorTest, EnvSpecArmsAndRejectsMalformedInput) {
  EXPECT_TRUE(ArmFromEnvSpec("agg_partial=3,join_build=1"));
  auto db = MakeDb(2001, 2);
  auto got = db->Execute(
      "select d.label, count(*) as c from orders o "
      "inner join dim d on o.k = d.k group by d.label");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  DisarmAllFaultPoints();

  EXPECT_FALSE(ArmFromEnvSpec("=3"));
  EXPECT_FALSE(ArmFromEnvSpec("no_equals_sign"));
  DisarmAllFaultPoints();
}

// ---- the middleware facade: options-driven limits ---------------------------

class GovernorFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFaultPoints();
    SetMorselRowsForTest(kTestMorselRows);
  }
  void TearDown() override {
    SetMorselRowsForTest(0);
    DisarmAllFaultPoints();
  }
};

TEST_F(GovernorFacadeTest, GenerousLimitsReportPeakMemoryAndSucceed) {
  // A universe join of two hashed samples: the rewritten query exercises the
  // join build/probe charges, so the reported peak must be nonzero while the
  // generous limits never trip.
  Database db(777);
  Rng rng(kSeed);
  auto fact = std::make_shared<Table>();
  fact->AddColumn("k", TypeId::kInt64);
  fact->AddColumn("v", TypeId::kDouble);
  for (int i = 0; i < 8000; ++i) {
    fact->AppendRow({Value::Int(rng.NextInRange(0, 299)),
                     Value::Double(rng.NextDouble() * 100.0)});
  }
  auto dim = std::make_shared<Table>();
  dim->AddColumn("k", TypeId::kInt64);
  dim->AddColumn("w", TypeId::kDouble);
  for (int64_t k = 0; k < 300; ++k) {
    dim->AppendRow(
        {Value::Int(k), Value::Double(1.0 + static_cast<double>(k % 5))});
  }
  ASSERT_TRUE(db.RegisterTable("fact", fact).ok());
  ASSERT_TRUE(db.RegisterTable("dim", dim).ok());
  db.set_num_threads(4);
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 100;
  opts.io_budget = 0.30;
  opts.timeout_ms = 10 * 60 * 1000;
  opts.memory_budget_bytes = 1ull << 40;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateHashedSample("fact", "k", 0.2).ok());
  ASSERT_TRUE(ctx.sample_builder().CreateHashedSample("dim", "k", 0.2).ok());

  core::VerdictContext::ExecInfo info;
  auto rs = ctx.Execute(
      "select sum(f.v * d.w) as s from fact f inner join dim d on f.k = d.k",
      &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  EXPECT_FALSE(info.degraded);
  EXPECT_GT(info.peak_memory_bytes, 0u);
}

TEST_F(GovernorFacadeTest, InjectedFailureSurfacesAsCleanStatus) {
  Database db(778);
  ASSERT_TRUE(db.RegisterTable("orders", BuildOrders(8000)).ok());
  db.set_num_threads(4);
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 1000;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateUniformSample("orders", 0.10).ok());

  ArmFaultPointNth("agg_partial", 1, StatusCode::kResourceExhausted);
  auto rs = ctx.Execute(
      "select city, sum(price) as sp from orders group by city");
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(IsGovernorCode(rs.status().code())) << rs.status().ToString();
  DisarmAllFaultPoints();

  // Disarmed, the same context serves the query.
  auto again = ctx.Execute(
      "select city, sum(price) as sp from orders group by city");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(GovernorFacadeTest, SampleBuildsAreGovernedByTheStandingBudget) {
  // The budget is armed from construction, so the offline stage is governed
  // too: a sample gather that would exceed it unwinds with
  // kResourceExhausted instead of materializing.
  Database db(779);
  ASSERT_TRUE(db.RegisterTable("orders", BuildOrders(8000)).ok());
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 1000;
  opts.memory_budget_bytes = 2048;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  auto st = ctx.sample_builder().CreateUniformSample("orders", 0.5);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kResourceExhausted)
      << st.status().ToString();
  // Lifting the budget makes the same build succeed on the same context.
  ctx.exec_guard().ResetForStatement();
  ctx.exec_guard().set_memory_budget_bytes(0);
  EXPECT_TRUE(ctx.sample_builder().CreateUniformSample("orders", 0.5).ok());
}

TEST_F(GovernorFacadeTest, TrippedExactFallbackDegradesToApproximateAnswer) {
  // The HAC setup from test_core: a singleton group's stderr is unmeasurable,
  // so min_accuracy > 0 forces the exact fallback deterministically. We then
  // inject a budget failure into that fallback (and only it) by arming
  // agg_partial to fail on the hit AFTER the approximate phase's last one —
  // hit counts depend only on row counts, so the threshold is stable.
  Database db(4321);
  auto t = std::make_shared<Table>();
  t->AddColumn("g", TypeId::kInt64);
  t->AddColumn("v", TypeId::kDouble);
  for (int i = 0; i < 5000; ++i) {
    t->AppendRow({Value::Int(1), Value::Double(10.0 + (i % 7))});
  }
  t->AppendRow({Value::Int(2), Value::Double(42.0)});
  ASSERT_TRUE(db.RegisterTable("skew", t).ok());
  db.set_num_threads(4);
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 1000;
  opts.io_budget = 1.0;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateUniformSample("skew", 1.0).ok());

  const std::string sql =
      "select g, sum(v) as s from skew group by g order by g";

  // Count the approximate phase's agg_partial consultations (no fallback).
  SetFaultObservationForTest(true);
  {
    auto warm = ctx.ExecuteApprox(sql);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  const uint64_t approx_hits = FaultPointHits("agg_partial");
  SetFaultObservationForTest(false);
  DisarmAllFaultPoints();
  ASSERT_GT(approx_hits, 0u);

  // Now force the fallback and make its first aggregation poll fail.
  ctx.options().min_accuracy = 0.5;
  ArmFaultPointNth("agg_partial", approx_hits + 1,
                   StatusCode::kResourceExhausted);
  core::VerdictContext::ExecInfo info;
  auto ans = ctx.ExecuteApprox(sql, &info);
  DisarmAllFaultPoints();
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_TRUE(info.approximated);
  EXPECT_TRUE(info.exact_rerun);
  EXPECT_TRUE(info.degraded);
  EXPECT_NE(info.degradation_note.find("exact fallback"), std::string::npos)
      << info.degradation_note;
}

}  // namespace
}  // namespace vdb::engine
