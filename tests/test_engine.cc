// Engine execution tests: scans, filters, expressions, joins, aggregation,
// windows, subqueries, DDL.

#include <gtest/gtest.h>

#include "common/hash.h"
#include "engine/database.h"
#include "engine/hll.h"
#include "engine/planner.h"

namespace vdb::engine {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = std::make_shared<Table>();
    t->AddColumn("id", TypeId::kInt64);
    t->AddColumn("city", TypeId::kString);
    t->AddColumn("price", TypeId::kDouble);
    t->AddColumn("qty", TypeId::kInt64);
    struct Row {
      int64_t id;
      const char* city;
      double price;
      int64_t qty;
    };
    const Row rows[] = {
        {1, "ann arbor", 10.0, 1}, {2, "ann arbor", 20.0, 2},
        {3, "detroit", 30.0, 3},   {4, "detroit", 40.0, 4},
        {5, "chicago", 50.0, 5},   {6, "chicago", 60.0, 6},
        {7, "chicago", 70.0, 7},
    };
    for (const auto& r : rows) {
      t->AppendRow({Value::Int(r.id), Value::String(r.city),
                    Value::Double(r.price), Value::Int(r.qty)});
    }
    ASSERT_TRUE(db_.RegisterTable("orders", t).ok());

    auto c = std::make_shared<Table>();
    c->AddColumn("city", TypeId::kString);
    c->AddColumn("state", TypeId::kString);
    c->AppendRow({Value::String("ann arbor"), Value::String("MI")});
    c->AppendRow({Value::String("detroit"), Value::String("MI")});
    c->AppendRow({Value::String("chicago"), Value::String("IL")});
    ASSERT_TRUE(db_.RegisterTable("cities", c).ok());
  }

  ResultSet Run(const std::string& sql) {
    auto rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? rs.value() : ResultSet{};
  }

  Database db_;
};

TEST_F(EngineTest, SelectStar) {
  auto rs = Run("select * from orders");
  EXPECT_EQ(rs.NumRows(), 7u);
  EXPECT_EQ(rs.NumCols(), 4u);
  EXPECT_EQ(rs.names[1], "city");
}

TEST_F(EngineTest, Projection) {
  auto rs = Run("select id, price * 2 as double_price from orders");
  EXPECT_EQ(rs.NumCols(), 2u);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 1), 20.0);
}

TEST_F(EngineTest, Filter) {
  auto rs = Run("select id from orders where price > 35 and qty < 7");
  EXPECT_EQ(rs.NumRows(), 3u);
}

TEST_F(EngineTest, FilterWithInList) {
  auto rs = Run("select id from orders where city in ('detroit', 'chicago')");
  EXPECT_EQ(rs.NumRows(), 5u);
}

TEST_F(EngineTest, FilterWithLike) {
  auto rs = Run("select id from orders where city like 'ann%'");
  EXPECT_EQ(rs.NumRows(), 2u);
}

TEST_F(EngineTest, FilterBetween) {
  auto rs = Run("select id from orders where price between 20 and 50");
  EXPECT_EQ(rs.NumRows(), 4u);
}

TEST_F(EngineTest, CaseExpression) {
  auto rs = Run(
      "select sum(case when city = 'chicago' then price else 0.0 end) as s "
      "from orders");
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 0), 180.0);
}

TEST_F(EngineTest, Aggregates) {
  auto rs = Run(
      "select count(*) as c, sum(price) as s, avg(price) as a, "
      "min(price) as mn, max(price) as mx from orders");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 1), 280.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 2), 40.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 3), 10.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 4), 70.0);
}

TEST_F(EngineTest, GroupBy) {
  auto rs = Run(
      "select city, count(*) as c, sum(price) as s from orders "
      "group by city order by city");
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_EQ(rs.Get(0, 0).AsString(), "ann arbor");
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 2);
  EXPECT_DOUBLE_EQ(rs.GetDouble(1, 2), 180.0);  // chicago
}

TEST_F(EngineTest, GroupByExpression) {
  auto rs = Run(
      "select qty % 2 as parity, count(*) as c from orders "
      "group by qty % 2 order by parity");
  ASSERT_EQ(rs.NumRows(), 2u);
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 3);  // even qty: 2,4,6
  EXPECT_EQ(rs.Get(1, 1).AsInt(), 4);
}

TEST_F(EngineTest, Having) {
  auto rs = Run(
      "select city, count(*) as c from orders group by city "
      "having count(*) > 2");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.Get(0, 0).AsString(), "chicago");
}

TEST_F(EngineTest, HavingOnUnselectedAggregate) {
  auto rs = Run(
      "select city from orders group by city having sum(price) >= 100");
  EXPECT_EQ(rs.NumRows(), 1u);
}

TEST_F(EngineTest, CountDistinctAndVariance) {
  auto rs = Run(
      "select count(distinct city) as dc, var(price) as v, "
      "stddev(qty) as sd from orders");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 3);
  EXPECT_NEAR(rs.GetDouble(0, 1), 466.666, 0.01);
  EXPECT_NEAR(rs.GetDouble(0, 2), 2.160, 0.01);
}

TEST_F(EngineTest, OnlyCountHonoursDistinct) {
  // x = 1, 1, 2, 2.0 in groups g = 0, 0, 1, 1: count(distinct x) is 2 (2
  // and 2.0 are one value), min/max ignore DISTINCT, and every other
  // aggregate with DISTINCT is refused instead of silently summing
  // duplicates (sum(distinct x) used to return 6, and 2 and 4 per group).
  auto t = std::make_shared<Table>();
  t->AddColumn("g", TypeId::kInt64);
  t->AddColumn("x", TypeId::kInt64);
  t->AppendRow({Value::Int(0), Value::Int(1)});
  t->AppendRow({Value::Int(0), Value::Int(1)});
  t->AppendRow({Value::Int(1), Value::Int(2)});
  t->AppendRow({Value::Int(1), Value::Double(2.0)});
  ASSERT_TRUE(db_.RegisterTable("d", t).ok());
  for (bool flat : {true, false}) {
    SetFlatAggSinkForTest(flat);
    auto rs = Run("select count(distinct x) as c, min(distinct x) as mn, "
                  "max(distinct x) as mx from d");
    EXPECT_EQ(rs.Get(0, 0).AsInt(), 2) << "flat=" << flat;
    EXPECT_EQ(rs.Get(0, 1).AsDouble(), 1.0) << "flat=" << flat;
    EXPECT_EQ(rs.Get(0, 2).AsDouble(), 2.0) << "flat=" << flat;
    auto grouped = Run("select g, count(distinct x) as c from d group by g");
    ASSERT_EQ(grouped.NumRows(), 2u);
    EXPECT_EQ(grouped.Get(0, 1).AsInt(), 1) << "flat=" << flat;
    EXPECT_EQ(grouped.Get(1, 1).AsInt(), 1) << "flat=" << flat;
    for (const char* sql :
         {"select sum(distinct x) as s from d",
          "select g, sum(distinct x) as s from d group by g",
          "select avg(distinct x) as a from d",
          "select g, avg(distinct x) as a, count(*) as c from d group by g",
          "select stddev(distinct x) as s from d",
          "select count(*) as c from d having sum(distinct x) > 0",
          "select count(distinct *) as c from d"}) {
      auto bad = db_.Execute(sql);
      ASSERT_FALSE(bad.ok()) << sql << " flat=" << flat;
      EXPECT_EQ(bad.status().code(), StatusCode::kUnsupported) << sql;
      EXPECT_NE(bad.status().message().find("distinct"), std::string::npos)
          << bad.status().ToString();
    }
  }
  SetFlatAggSinkForTest(true);
}

TEST_F(EngineTest, QuantileAndMedian) {
  auto rs = Run(
      "select median(price) as m, quantile(price, 0.25) as q from orders");
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 0), 40.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 1), 25.0);
}

TEST_F(EngineTest, InnerJoin) {
  auto rs = Run(
      "select state, sum(price) as s from orders "
      "inner join cities on orders.city = cities.city "
      "group by state order by state");
  ASSERT_EQ(rs.NumRows(), 2u);
  EXPECT_EQ(rs.Get(0, 0).AsString(), "IL");
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 1), 180.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(1, 1), 100.0);
}

TEST_F(EngineTest, JoinWithResidualPredicate) {
  auto rs = Run(
      "select count(*) as c from orders o inner join cities c2 "
      "on o.city = c2.city and o.price > 30");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 4);
}

TEST_F(EngineTest, LeftJoin) {
  auto rs = Run(
      "select count(*) as c, count(s2.state) as matched from orders o "
      "left join (select * from cities where state = 'MI') as s2 "
      "on o.city = s2.city");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 4);
}

TEST_F(EngineTest, DerivedTable) {
  auto rs = Run(
      "select avg(s) as a from (select city, sum(price) as s from orders "
      "group by city) as t");
  EXPECT_NEAR(rs.GetDouble(0, 0), 280.0 / 3.0, 1e-9);
}

TEST_F(EngineTest, DerivedPruningMatchesNamesCaseInsensitively) {
  // The outer statement's references decide which derived outputs survive;
  // they match the outputs' names case-insensitively, as binding does.
  auto rs = Run("select CITY from (select id, city from orders) as o "
                "where ID = 3");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.Get(0, 0).AsString(), "detroit");
  rs = Run("select Price from (select id, city, price as PRICE from orders) "
           "as o where id = 2");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 0), 20.0);
}

TEST_F(EngineTest, ScalarSubquery) {
  auto rs = Run(
      "select count(*) as c from orders "
      "where price > (select avg(price) from orders)");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 3);
}

TEST_F(EngineTest, ExistsSubquery) {
  auto rs = Run(
      "select count(*) as c from orders where exists "
      "(select 1 from cities where state = 'IL')");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
}

TEST_F(EngineTest, WindowPartition) {
  auto rs = Run(
      "select city, count(*) as c, "
      "(sum(count(*)) over ()) as total from orders group by city");
  ASSERT_EQ(rs.NumRows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rs.Get(r, 2).AsInt(), 7);
  }
}

TEST_F(EngineTest, WindowPartitionByGroupColumn) {
  // The shape VerdictDB's rewriter emits (Appendix G, Query 9).
  auto rs = Run(
      "select city, qty % 2 as parity, count(*) as c, "
      "sum(count(*)) over (partition by city) as city_total "
      "from orders group by city, qty % 2 order by city, parity");
  ASSERT_EQ(rs.NumRows(), 6u);
  // chicago has 3 rows total.
  for (size_t r = 0; r < rs.NumRows(); ++r) {
    if (rs.Get(r, 0).AsString() == "chicago") {
      EXPECT_EQ(rs.Get(r, 3).AsInt(), 3);
    }
  }
}

TEST_F(EngineTest, OrderByAndLimit) {
  auto rs = Run("select id, price from orders order by price desc limit 3");
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  EXPECT_EQ(rs.Get(2, 0).AsInt(), 5);
}

TEST_F(EngineTest, OrderByOrdinal) {
  auto rs = Run("select city, sum(price) as s from orders group by city "
                "order by 2 desc");
  EXPECT_EQ(rs.Get(0, 0).AsString(), "chicago");
}

TEST_F(EngineTest, Distinct) {
  auto rs = Run("select distinct city from orders");
  EXPECT_EQ(rs.NumRows(), 3u);
}

TEST_F(EngineTest, UnionAll) {
  auto rs = Run(
      "select id from orders where id <= 2 union all "
      "select id from orders where id >= 6");
  EXPECT_EQ(rs.NumRows(), 4u);
}

TEST_F(EngineTest, CreateTableAsAndInsert) {
  ASSERT_TRUE(db_.Execute("create table big as select * from orders "
                          "where price >= 40").ok());
  auto rs = Run("select count(*) as c from big");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 4);
  ASSERT_TRUE(db_.Execute("insert into big select * from orders "
                          "where price < 40").ok());
  rs = Run("select count(*) as c from big");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  ASSERT_TRUE(db_.Execute("drop table big").ok());
  EXPECT_FALSE(db_.Execute("select * from big").ok());
  EXPECT_TRUE(db_.Execute("drop table if exists big").ok());
}

TEST_F(EngineTest, SelectConstants) {
  auto rs = Run("select 1 + 2 as three, 'x' as s");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(rs.Get(0, 1).AsString(), "x");
}

TEST_F(EngineTest, ModByMinusOneIsZeroNotATrap) {
  // INT64_MIN % -1 is undefined in C++ and raises SIGFPE on x86; the engine
  // defines x % -1 = 0 on every path: a constant expression, a derived-table
  // column, mod(), and a table column.
  const std::string kMin = "(0 - 9223372036854775807 - 1)";
  for (const std::string& sql :
       {"select " + kMin + " % (0 - 1) as m",
        "select x % (0 - 1) as m from (select " + kMin + " as x) t",
        "select mod(" + kMin + ", 0 - 1) as m",
        "select x % d as m from (select " + kMin +
            " as x, 0 - 1 as d) t"}) {
    auto rs = Run(sql);
    ASSERT_EQ(rs.NumRows(), 1u) << sql;
    EXPECT_EQ(rs.Get(0, 0).AsInt(), 0) << sql;
  }
  auto rs = Run("select id % (0 - 1) as m from orders where id = 7");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 0);
  rs = Run("select -7 % 3 as a, 7 % (0 - 3) as b, 5 % 0 as c");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), -1);
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 1);
  EXPECT_TRUE(rs.Get(0, 2).is_null());
}

TEST_F(EngineTest, NullHandling) {
  ASSERT_TRUE(db_.Execute("create table n as select id, "
                          "case when id > 5 then null else price end as p "
                          "from orders").ok());
  auto rs = Run("select count(*) as c, count(p) as cp, sum(p) as s from n");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 5);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 2), 150.0);
  // Three-valued logic: NULL comparisons don't satisfy WHERE.
  rs = Run("select count(*) as c from n where p > 0");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 5);
  rs = Run("select count(*) as c from n where p is null");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 2);
}

TEST_F(EngineTest, RandIsDeterministicPerSeed) {
  Database db1(123), db2(123);
  auto t = std::make_shared<Table>();
  t->AddColumn("x", TypeId::kInt64);
  for (int i = 0; i < 100; ++i) t->AppendRow({Value::Int(i)});
  ASSERT_TRUE(db1.RegisterTable("t", t).ok());
  ASSERT_TRUE(db2.RegisterTable("t", t).ok());
  auto r1 = db1.Execute("select count(*) as c from t where rand() < 0.5");
  auto r2 = db2.Execute("select count(*) as c from t where rand() < 0.5");
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().Get(0, 0).AsInt(), r2.value().Get(0, 0).AsInt());
}

TEST_F(EngineTest, ErrorOnUnknownColumn) {
  auto rs = db_.Execute("select nope from orders");
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ErrorOnUngroupedColumn) {
  auto rs = db_.Execute("select city, count(*) from orders");
  EXPECT_FALSE(rs.ok());
}

TEST(HyperLogLogTest, EstimatesCardinality) {
  HyperLogLog hll(14);
  for (uint64_t i = 0; i < 100000; ++i) {
    hll.AddHash(vdb::HashMix64(i % 5000));
  }
  EXPECT_NEAR(hll.Estimate(), 5000, 5000 * 0.05);
}

TEST(HyperLogLogTest, MergeIsUnion) {
  HyperLogLog a(12), b(12);
  for (uint64_t i = 0; i < 2000; ++i) a.AddHash(vdb::HashMix64(i));
  for (uint64_t i = 1000; i < 3000; ++i) b.AddHash(vdb::HashMix64(i));
  a.Merge(b);
  EXPECT_NEAR(a.Estimate(), 3000, 3000 * 0.1);
}

TEST(EngineNdvTest, ApproxDistinct) {
  Database db;
  auto t = std::make_shared<Table>();
  t->AddColumn("x", TypeId::kInt64);
  for (int i = 0; i < 50000; ++i) t->AppendRow({Value::Int(i % 1234)});
  ASSERT_TRUE(db.RegisterTable("t", t).ok());
  auto rs = db.Execute("select ndv(x) as d from t");
  ASSERT_TRUE(rs.ok());
  EXPECT_NEAR(static_cast<double>(rs.value().Get(0, 0).AsInt()), 1234.0,
              1234 * 0.05);
}

}  // namespace
}  // namespace vdb::engine
