// End-to-end VerdictDB middleware tests: classification, flattening,
// planning, rewriting, answer accuracy, HAC, nested queries, joins of
// samples, and count-distinct.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "core/flattener.h"
#include "core/query_classifier.h"
#include "core/verdict_context.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/queries.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace vdb::core {
namespace {

// ---------------------------------------------------------------------------
// Classifier
// ---------------------------------------------------------------------------

QueryClass Classify(const std::string& sql) {
  auto sel = sql::ParseSelect(sql);
  EXPECT_TRUE(sel.ok()) << sql;
  return ClassifyQuery(*sel.value());
}

TEST(ClassifierTest, SupportsAggregates) {
  auto qc = Classify("select city, count(*), sum(x) from t group by city");
  EXPECT_TRUE(qc.supported);
  EXPECT_TRUE(qc.has_mean_like);
  EXPECT_FALSE(qc.has_extreme);
}

TEST(ClassifierTest, RejectsSelectStar) {
  EXPECT_FALSE(Classify("select * from t").supported);
}

TEST(ClassifierTest, RejectsExists) {
  EXPECT_FALSE(
      Classify("select count(*) from t where exists (select 1 from s)")
          .supported);
}

TEST(ClassifierTest, RejectsPureExtreme) {
  auto qc = Classify("select min(x), max(x) from t");
  EXPECT_FALSE(qc.supported);
  EXPECT_TRUE(qc.has_extreme);
}

TEST(ClassifierTest, DetectsCountDistinct) {
  auto qc = Classify("select count(distinct user_id) from t");
  EXPECT_TRUE(qc.supported);
  EXPECT_TRUE(qc.has_count_distinct);
  EXPECT_EQ(qc.count_distinct_column, "user_id");
}

TEST(ClassifierTest, RejectsDistinctOutsideCountMinMax) {
  // Only count(distinct) has an estimator; min/max ignore DISTINCT. A
  // distinct sum or mean must pass through (and fail in the engine), not
  // be approximated as the plain sum.
  for (const char* sql : {"select sum(distinct g10) from t",
                          "select g, avg(distinct x) from t group by g",
                          "select count(*), stddev(distinct x) from t"}) {
    auto qc = Classify(sql);
    EXPECT_FALSE(qc.supported) << sql;
    EXPECT_NE(qc.reason.find("distinct"), std::string::npos) << qc.reason;
  }
  auto qc = Classify("select count(*), max(distinct x) from t");
  EXPECT_TRUE(qc.supported) << qc.reason;
  EXPECT_TRUE(qc.has_extreme);
}

TEST(ClassifierTest, DetectsNestedAggregate) {
  auto qc = Classify(
      "select avg(s) from (select city, sum(price) as s from orders "
      "group by city) as t");
  EXPECT_TRUE(qc.supported);
  EXPECT_TRUE(qc.nested_aggregate);
}

TEST(ClassifierTest, ExtractsJoinEdges) {
  auto qc = Classify(
      "select count(*) from a inner join b on a.k = b.k "
      "inner join c on b.j = c.j");
  ASSERT_EQ(qc.relations.size(), 3u);
  ASSERT_EQ(qc.join_edges.size(), 2u);
  EXPECT_EQ(qc.join_edges[0].left_alias, "a");
  EXPECT_EQ(qc.join_edges[0].right_column, "k");
}

// ---------------------------------------------------------------------------
// Flattener
// ---------------------------------------------------------------------------

TEST(FlattenerTest, FlattensCorrelatedComparison) {
  auto sel = sql::ParseSelect(
      "select sum(l_extendedprice) as s from lineitem "
      "inner join part on p_partkey = l_partkey "
      "where l_quantity < (select avg(l_quantity) from lineitem "
      "where l_partkey = part.p_partkey)");
  ASSERT_TRUE(sel.ok());
  auto n = FlattenComparisonSubqueries(sel.value().get());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  std::string text = sql::PrintSelect(*sel.value());
  EXPECT_NE(text.find("group by"), std::string::npos);
  EXPECT_NE(text.find("__vdb_f0"), std::string::npos);
  EXPECT_EQ(text.find("(select avg"), std::string::npos);
}

TEST(FlattenerTest, LeavesUncorrelatedAlone) {
  auto sel = sql::ParseSelect(
      "select count(*) as c from t where x > (select avg(x) from t)");
  ASSERT_TRUE(sel.ok());
  auto n = FlattenComparisonSubqueries(sel.value().get());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end approximation
// ---------------------------------------------------------------------------

class VerdictE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        workload::GenerateSynthetic(&db_, "big", 200000, 99).ok());
    VerdictOptions opts;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.05;
    ctx_ = std::make_unique<VerdictContext>(&db_,
                                            driver::EngineKind::kGeneric,
                                            opts);
    // 4% of 200K = ~8000 rows (~800 per g10 group): per-group estimates
    // carry ~3.5% relative stderr, so the 15% tolerances below sit at >4
    // sigma for any seed rather than relying on a lucky draw.
    auto s = ctx_->sample_builder().CreateUniformSample("big", 0.04);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    sample_rows_ = s.value().sample_rows;
  }

  double Exact(const std::string& sql, int col = 0) {
    auto rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.value().GetDouble(0, static_cast<size_t>(col));
  }

  engine::Database db_{7777};
  std::unique_ptr<VerdictContext> ctx_;
  uint64_t sample_rows_ = 0;
};

TEST_F(VerdictE2E, SampleSizeNearExpectation) {
  EXPECT_NEAR(static_cast<double>(sample_rows_), 8000.0, 600.0);
}

TEST_F(VerdictE2E, ApproximateCount) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select count(*) as c from big", &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  double approx = rs.value().GetDouble(0, 0);
  EXPECT_NEAR(approx, 200000.0, 200000.0 * 0.05);
  // Error column present and sane.
  int err_col = rs.value().ColumnIndex("c_err");
  ASSERT_GE(err_col, 0);
  double err = rs.value().GetDouble(0, static_cast<size_t>(err_col));
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 200000.0 * 0.10);
}

TEST_F(VerdictE2E, ApproximateSumAvgWithFilter) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select sum(value) as s, avg(value) as a from big where u < 0.5",
      &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  double exact_sum =
      Exact("select sum(value) as s from big where u < 0.5");
  double exact_avg =
      Exact("select avg(value) as a from big where u < 0.5");
  EXPECT_NEAR(rs.value().GetDouble(0, 0), exact_sum,
              std::abs(exact_sum) * 0.10);
  EXPECT_NEAR(rs.value().GetDouble(0, 1), exact_avg,
              std::abs(exact_avg) * 0.10);
}

TEST_F(VerdictE2E, ApproximateGroupBy) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select g10, count(*) as c, sum(value) as s from big group by g10 "
      "order by g10",
      &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  ASSERT_EQ(rs.value().NumRows(), 10u);
  auto exact = db_.Execute(
      "select g10, count(*) as c, sum(value) as s from big group by g10 "
      "order by g10");
  ASSERT_TRUE(exact.ok());
  for (size_t r = 0; r < 10; ++r) {
    double ec = exact.value().GetDouble(r, 1);
    double es = exact.value().GetDouble(r, 2);
    EXPECT_NEAR(rs.value().GetDouble(r, 1), ec, ec * 0.15) << "group " << r;
    EXPECT_NEAR(rs.value().GetDouble(r, 2), es, std::abs(es) * 0.15);
  }
}

TEST_F(VerdictE2E, ErrorEstimateCoversTruth) {
  // The reported 95% CI should cover the exact answer in the vast majority
  // of groups (this is a smoke check, not a calibration study).
  auto ans = ctx_->ExecuteApprox(
      "select g10, avg(value) as a from big group by g10 order by g10");
  ASSERT_TRUE(ans.ok());
  auto exact = db_.Execute(
      "select g10, avg(value) as a from big group by g10 order by g10");
  ASSERT_TRUE(exact.ok());
  int err_col = ans.value().result.ColumnIndex("a_err");
  ASSERT_GE(err_col, 0);
  int covered = 0;
  for (size_t r = 0; r < 10; ++r) {
    double point = ans.value().result.GetDouble(r, 1);
    double half =
        ans.value().result.GetDouble(r, static_cast<size_t>(err_col));
    double truth = exact.value().GetDouble(r, 1);
    if (truth >= point - 2 * half && truth <= point + 2 * half) ++covered;
  }
  EXPECT_GE(covered, 8);
}

TEST_F(VerdictE2E, PassthroughOnUnsupported) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select min(value) as m from big", &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(info.approximated);
  EXPECT_FALSE(info.skip_reason.empty());
  EXPECT_DOUBLE_EQ(rs.value().GetDouble(0, 0),
                   Exact("select min(value) as m from big"));
}

TEST_F(VerdictE2E, DistinctSumPassesThroughAndFailsLoudly) {
  // The distinct sum of g10 over 0..9 is 45; it used to come back as the
  // approximate plain sum (~900K) with an error bar.
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select sum(distinct g10) as s from big", &info);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kUnsupported)
      << rs.status().ToString();
  EXPECT_FALSE(info.approximated);
  EXPECT_NE(info.skip_reason.find("distinct"), std::string::npos)
      << info.skip_reason;
}

TEST_F(VerdictE2E, DecomposesExtremePlusMeanLike) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select g10, max(value) as mx, avg(value) as a from big group by g10",
      &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  ASSERT_EQ(rs.value().NumRows(), 10u);
  // max column must be exact.
  auto exact = db_.Execute(
      "select g10, max(value) as mx from big group by g10");
  ASSERT_TRUE(exact.ok());
  std::map<int64_t, double> exact_mx;
  for (size_t r = 0; r < exact.value().NumRows(); ++r) {
    exact_mx[exact.value().Get(r, 0).AsInt()] =
        exact.value().GetDouble(r, 1);
  }
  for (size_t r = 0; r < rs.value().NumRows(); ++r) {
    int64_t g = rs.value().Get(r, 0).AsInt();
    EXPECT_DOUBLE_EQ(rs.value().GetDouble(r, 1), exact_mx[g]);
  }
}

TEST_F(VerdictE2E, HacFallsBackToExact) {
  ctx_->options().min_accuracy = 0.9999;  // impossible at 2% sampling
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select avg(value) as a from big", &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.exact_rerun);
  EXPECT_DOUBLE_EQ(rs.value().GetDouble(0, 0),
                   Exact("select avg(value) as a from big"));
  ctx_->options().min_accuracy = 0.0;
}

TEST_F(VerdictE2E, HacTreatsUnmeasurableGroupsConservatively) {
  // A group whose sample contains exactly ONE tuple lands in exactly one
  // subsample, so its stderr is NULL (stddev over one estimate) and its
  // relative error cannot be measured. The contract must count such groups
  // and fail conservatively instead of passing vacuously on the measured
  // subset.
  engine::Database db(4321);
  auto t = std::make_shared<engine::Table>();
  t->AddColumn("g", TypeId::kInt64);
  t->AddColumn("v", TypeId::kDouble);
  for (int i = 0; i < 5000; ++i) {
    t->AppendRow({Value::Int(1), Value::Double(10.0 + (i % 7))});
  }
  t->AppendRow({Value::Int(2), Value::Double(42.0)});  // the singleton group
  ASSERT_TRUE(db.RegisterTable("skew", t).ok());
  VerdictOptions opts;
  opts.min_rows_for_sampling = 1000;
  opts.io_budget = 1.0;
  VerdictContext vctx(&db, driver::EngineKind::kGeneric, opts);
  // tau = 1.0: every row (including the singleton) enters the sample, so
  // the vacuous-stderr row is guaranteed, not seed-dependent.
  ASSERT_TRUE(vctx.sample_builder().CreateUniformSample("skew", 1.0).ok());

  const std::string sql =
      "select g, sum(v) as s from skew group by g order by g";
  auto ans = vctx.ExecuteApprox(sql);
  ASSERT_TRUE(ans.ok());
  EXPECT_GT(ans.value().unmeasured_rows, 0);
  int64_t no_spread = 0;
  for (const auto& agg : ans.value().aggregates) {
    no_spread += agg.no_spread_rows;
  }
  EXPECT_GT(no_spread, 0);

  // With a (loose) contract enabled, the unverifiable group must force the
  // exact fallback even though every measured group is well within bounds.
  vctx.options().min_accuracy = 0.5;
  VerdictContext::ExecInfo info;
  auto rs = vctx.Execute(sql, &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.exact_rerun);
  auto exact = db.Execute(sql);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(rs.value().NumRows(), exact.value().NumRows());
  for (size_t r = 0; r < rs.value().NumRows(); ++r) {
    EXPECT_DOUBLE_EQ(rs.value().GetDouble(r, 1), exact.value().GetDouble(r, 1));
  }
}

TEST_F(VerdictE2E, HighCardinalityGroupingIsRejected) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select id, sum(value) as s from big group by id limit 5", &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(info.approximated);
}

TEST_F(VerdictE2E, RewrittenSqlIsExposed) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select count(*) as c from big", &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_NE(info.rewritten_sql.find("__vdb_sid"), std::string::npos);
  EXPECT_NE(info.rewritten_sql.find("big_vdb_uniform"), std::string::npos);
  EXPECT_GT(info.subsamples, 1);
}

TEST_F(VerdictE2E, StatementLogStaysBoundedAcrossQueries) {
  // The log restarts with every user query: a query leaves exactly its own
  // statements, the same number every time it runs, never the history.
  const driver::Connection& conn = ctx_->connection();
  const char* const kQueries[] = {
      "select count(*) as c from big",
      "select g10, sum(value) as s from big group by g10",
      "select id, sum(value) as s from big group by id limit 5",
  };
  size_t first_run[3] = {0, 0, 0};
  for (int i = 0; i < 60; ++i) {
    const char* sql = kQueries[i % 3];
    ASSERT_TRUE(ctx_->Execute(sql).ok()) << sql;
    const size_t n = conn.statement_log().size();
    ASSERT_GT(n, 0u) << sql;
    if (i < 3) first_run[i] = n;
    ASSERT_EQ(n, first_run[i % 3]) << sql << " run " << i;
  }
  // The last query was the passthrough: its exact statement ends the log.
  EXPECT_NE(conn.statement_log().back().find("limit 5"), std::string::npos)
      << conn.statement_log().back();

  // Offline-stage statements issued after a query stay visible until the
  // next user query starts.
  ASSERT_TRUE(
      ctx_->sample_builder().CreateHashedSample("big", "id", 0.02).ok());
  const std::vector<std::string> with_build = conn.statement_log();
  ASSERT_GT(with_build.size(), first_run[2]);
  ASSERT_TRUE(ctx_->Execute(kQueries[0]).ok());
  for (const std::string& stmt : conn.statement_log()) {
    EXPECT_EQ(std::find(with_build.begin() + static_cast<std::ptrdiff_t>(
                                                 first_run[2]),
                        with_build.end(), stmt),
              with_build.end())
        << "sample-build statement survived the next query: " << stmt;
  }
}

// ---------------------------------------------------------------------------
// Group-cardinality (NDV) probe
// ---------------------------------------------------------------------------

TEST(VerdictNdvProbeTest, MultiColumnProbeCountsTheKeyTuples) {
  // A multi-column GROUP BY probes count(distinct concat(a, '|', b)) before
  // planning, and the answer is the group hint that sizes b. On tq-1's and
  // tq-16's NULL-free keys, none holding a '|', the probe (on concat's
  // batch kernel) counts exactly the key tuples a GROUP BY forms, at every
  // thread count. (concat is NULL when any key is, so a tuple holding a
  // NULL is left out of the count.)
  engine::Database db(4242);
  workload::TpchConfig tc;
  tc.scale = 0.1;
  ASSERT_TRUE(workload::GenerateTpch(&db, tc).ok());
  VerdictOptions opts;
  opts.min_rows_for_sampling = 3000;
  VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateUniformSample("lineitem", 0.05).ok());
  const std::string kPrefix = "select count(distinct concat(";
  const std::string kSep = ", '|', ";
  int probed = 0;
  for (const auto& q : workload::TpchQueries()) {
    if (q.id != "tq-1" && q.id != "tq-16") continue;
    ASSERT_TRUE(ctx.Execute(q.sql).ok()) << q.id;
    std::string probe;
    for (const std::string& stmt : ctx.connection().statement_log()) {
      if (stmt.rfind(kPrefix, 0) == 0) probe = stmt;
    }
    ASSERT_FALSE(probe.empty()) << q.id << " issued no multi-column probe";
    ++probed;
    // "select count(distinct concat(a, '|', b)) as c from t"
    const size_t args = kPrefix.size();
    const size_t close = probe.find(')', args);
    const size_t sep = probe.find(kSep, args);
    ASSERT_LT(sep, close) << probe;
    const std::string a = probe.substr(args, sep - args);
    const std::string b =
        probe.substr(sep + kSep.size(), close - sep - kSep.size());
    const std::string table = probe.substr(probe.rfind(' ') + 1);
    const std::string groups = "select count(*) as c from (select " + a +
                               ", " + b + " from " + table + " group by " +
                               a + ", " + b + ") as t";
    for (int threads : {1, 2, 8}) {
      db.set_num_threads(threads);
      auto hint = db.Execute(probe);
      auto truth = db.Execute(groups);
      ASSERT_TRUE(hint.ok()) << probe << ": " << hint.status().ToString();
      ASSERT_TRUE(truth.ok()) << groups << ": " << truth.status().ToString();
      EXPECT_GT(truth.value().Get(0, 0).AsInt(), 1) << groups;
      EXPECT_EQ(hint.value().Get(0, 0).AsInt(),
                truth.value().Get(0, 0).AsInt())
          << probe << " @" << threads;
    }
  }
  EXPECT_EQ(probed, 2);
}

// ---------------------------------------------------------------------------
// Joins of two samples (universe join) and count-distinct
// ---------------------------------------------------------------------------

class VerdictJoinE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fact and dimension-ish tables sharing a join key domain.
    auto fact = std::make_shared<engine::Table>();
    fact->AddColumn("k", TypeId::kInt64);
    fact->AddColumn("v", TypeId::kDouble);
    auto dim = std::make_shared<engine::Table>();
    dim->AddColumn("k", TypeId::kInt64);
    dim->AddColumn("w", TypeId::kDouble);
    Rng rng(5);
    const int64_t keys = 30000;
    for (int64_t i = 0; i < keys; ++i) {
      dim->AppendRow({Value::Int(i), Value::Double(rng.NextDouble())});
      int lines = static_cast<int>(1 + rng.NextBounded(4));
      for (int j = 0; j < lines; ++j) {
        fact->AppendRow(
            {Value::Int(i), Value::Double(5.0 + rng.NextDouble() * 10.0)});
      }
    }
    ASSERT_TRUE(db_.RegisterTable("fact", fact).ok());
    ASSERT_TRUE(db_.RegisterTable("dim", dim).ok());

    VerdictOptions opts;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.20;
    ctx_ = std::make_unique<VerdictContext>(&db_,
                                            driver::EngineKind::kGeneric,
                                            opts);
    ASSERT_TRUE(
        ctx_->sample_builder().CreateHashedSample("fact", "k", 0.1).ok());
    ASSERT_TRUE(
        ctx_->sample_builder().CreateHashedSample("dim", "k", 0.1).ok());
  }

  engine::Database db_{1212};
  std::unique_ptr<VerdictContext> ctx_;
};

TEST_F(VerdictJoinE2E, UniverseJoinOfTwoSamples) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select sum(f.v * d.w) as s from fact f inner join dim d on f.k = d.k",
      &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  auto exact = db_.Execute(
      "select sum(f.v * d.w) as s from fact f inner join dim d on f.k = d.k");
  ASSERT_TRUE(exact.ok());
  double truth = exact.value().GetDouble(0, 0);
  EXPECT_NEAR(rs.value().GetDouble(0, 0), truth, std::abs(truth) * 0.15);
  // Both relations must be substituted with samples.
  EXPECT_NE(info.rewritten_sql.find("fact_vdb_hashed_k"), std::string::npos);
  EXPECT_NE(info.rewritten_sql.find("dim_vdb_hashed_k"), std::string::npos);
}

TEST_F(VerdictJoinE2E, CountDistinctOnHashedSample) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select count(distinct k) as d from fact", &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  EXPECT_NEAR(rs.value().GetDouble(0, 0), 30000.0, 30000.0 * 0.10);
}

// ---------------------------------------------------------------------------
// Nested aggregation (§5.2)
// ---------------------------------------------------------------------------

TEST(VerdictNestedTest, NestedAggregateQuery) {
  engine::Database db(31);
  ASSERT_TRUE(workload::GenerateSynthetic(&db, "big", 120000, 3).ok());
  VerdictOptions opts;
  opts.min_rows_for_sampling = 10000;
  opts.io_budget = 0.05;
  VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateUniformSample("big", 0.02).ok());

  VerdictContext::ExecInfo info;
  auto rs = ctx.Execute(
      "select avg(s) as a from (select g100, sum(value) as s from big "
      "group by g100) as t",
      &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  auto exact = db.Execute(
      "select avg(s) as a from (select g100, sum(value) as s from big "
      "group by g100) as t");
  ASSERT_TRUE(exact.ok());
  double truth = exact.value().GetDouble(0, 0);
  EXPECT_NEAR(rs.value().GetDouble(0, 0), truth, std::abs(truth) * 0.15);
}

// ---------------------------------------------------------------------------
// Flattened correlated subquery, end to end
// ---------------------------------------------------------------------------

TEST(VerdictFlattenE2E, CorrelatedComparisonSubquery) {
  engine::Database db(64);
  auto t = std::make_shared<engine::Table>();
  t->AddColumn("grp", TypeId::kInt64);
  t->AddColumn("x", TypeId::kDouble);
  Rng rng(11);
  for (int i = 0; i < 60000; ++i) {
    t->AppendRow({Value::Int(static_cast<int64_t>(rng.NextBounded(50))),
                  Value::Double(rng.NextDouble() * 100.0)});
  }
  ASSERT_TRUE(db.RegisterTable("measurements", t).ok());
  VerdictOptions opts;
  opts.min_rows_for_sampling = 10000;
  opts.io_budget = 0.10;
  VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(
      ctx.sample_builder().CreateUniformSample("measurements", 0.05).ok());

  const char* sql =
      "select count(*) as c from measurements m"
      " where m.x > (select avg(x) from measurements where grp = m.grp)";
  VerdictContext::ExecInfo info;
  auto rs = ctx.Execute(sql, &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  // The engine itself cannot evaluate correlated subqueries; the exact
  // reference uses the manually flattened equivalent.
  auto exact = db.Execute(
      "select count(*) as c from measurements m"
      " inner join (select grp, avg(x) as ax from measurements group by grp)"
      " as g on g.grp = m.grp where m.x > g.ax");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  double truth = exact.value().GetDouble(0, 0);
  EXPECT_NEAR(rs.value().GetDouble(0, 0), truth, truth * 0.15);
}

}  // namespace
}  // namespace vdb::core
