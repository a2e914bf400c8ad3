// Differential tests for the vectorized expression evaluator: the batch
// evaluator (engine/vector_eval.h) must agree with the row-at-a-time
// interpreter (engine/expr_eval.h) — values and NULLs, including three-valued
// logic — on randomized expression trees and NULL patterns, plus
// selection-vector edge cases (empty, all-pass, single-row).
//
// The late-materialization section at the bottom fuzzes the full engine
// pipeline: every query runs through the view pipeline (WHERE survivors stay
// a (table, SelVector) RowView all the way to the result boundary) at 1, 2
// and 8 threads, against an eager-gather reference that materializes the
// filtered table between the scan and the rest of the query. All four runs
// must be BIT-identical — doubles compared by bit pattern — across
// randomized predicates, NULL patterns, and full-mantissa values.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/expr_eval.h"
#include "engine/kernels/kernels.h"
#include "engine/table.h"
#include "engine/vector_eval.h"
#include "sql/ast.h"
#include "sql/printer.h"

namespace vdb::engine {
namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;

// ---------------------------------------------------------------------------
// Random table / expression generation
// ---------------------------------------------------------------------------

TablePtr MakeRandomTable(Rng* rng, size_t rows) {
  auto t = std::make_shared<Table>();
  t->AddColumn("i1", TypeId::kInt64);
  t->AddColumn("i2", TypeId::kInt64);     // with NULLs
  t->AddColumn("d1", TypeId::kDouble);
  t->AddColumn("d2", TypeId::kDouble);    // with NULLs
  t->AddColumn("s1", TypeId::kString);    // with NULLs
  t->AddColumn("b1", TypeId::kBool);
  static const char* kStrings[] = {"a", "ab", "abc", "ba", "x", ""};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int(rng->NextInRange(-6, 6)));
    row.push_back(rng->NextBernoulli(0.25)
                      ? Value::Null()
                      : Value::Int(rng->NextInRange(-4, 4)));
    row.push_back(
        Value::Double(static_cast<double>(rng->NextInRange(-40, 40)) / 8.0));
    row.push_back(rng->NextBernoulli(0.25)
                      ? Value::Null()
                      : Value::Double(
                            static_cast<double>(rng->NextInRange(-20, 20)) /
                            4.0));
    row.push_back(rng->NextBernoulli(0.2)
                      ? Value::Null()
                      : Value::String(kStrings[rng->NextBounded(6)]));
    row.push_back(Value::Bool(rng->NextBernoulli(0.5)));
    t->AppendRow(row);
  }
  return t;
}

class ExprGen {
 public:
  explicit ExprGen(Rng* rng) : rng_(rng) {}

  Expr::Ptr Gen(int depth) {
    if (depth <= 0 || rng_->NextBernoulli(0.25)) return GenLeaf();
    switch (rng_->NextBounded(10)) {
      case 0: return GenArith(depth);
      case 1: return GenCompare(depth);
      case 2: return GenLogic(depth);
      case 3: return GenUnary(depth);
      case 4: return GenCase(depth);
      case 5: return GenIsNull(depth);
      case 6: return GenInList(depth);
      case 7: return GenBetween(depth);
      case 8: return GenFunction(depth);
      default: return GenLike(depth);
    }
  }

 private:
  Expr::Ptr GenLeaf() {
    if (rng_->NextBernoulli(0.55)) {
      // Bound column reference.
      static const char* kCols[] = {"i1", "i2", "d1", "d2", "s1", "b1"};
      const int idx = static_cast<int>(rng_->NextBounded(6));
      auto e = sql::MakeColumnRef("", kCols[idx]);
      e->bound_column = idx;
      return e;
    }
    switch (rng_->NextBounded(5)) {
      case 0: return sql::MakeIntLit(rng_->NextInRange(-5, 5));
      case 1:
        return sql::MakeDoubleLit(
            static_cast<double>(rng_->NextInRange(-10, 10)) / 4.0);
      case 2: {
        static const char* kPool[] = {"a", "ab", "b", "%b%", "a_"};
        return sql::MakeStringLit(kPool[rng_->NextBounded(5)]);
      }
      case 3: return sql::MakeLiteral(Value::Bool(rng_->NextBernoulli(0.5)));
      default: return sql::MakeLiteral(Value::Null());
    }
  }

  Expr::Ptr GenArith(int depth) {
    static const BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                    BinaryOp::kMul, BinaryOp::kDiv,
                                    BinaryOp::kMod};
    return sql::MakeBinary(kOps[rng_->NextBounded(5)], Gen(depth - 1),
                           Gen(depth - 1));
  }

  Expr::Ptr GenCompare(int depth) {
    static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                    BinaryOp::kLt, BinaryOp::kLe,
                                    BinaryOp::kGt, BinaryOp::kGe};
    return sql::MakeBinary(kOps[rng_->NextBounded(6)], Gen(depth - 1),
                           Gen(depth - 1));
  }

  Expr::Ptr GenLogic(int depth) {
    return sql::MakeBinary(
        rng_->NextBernoulli(0.5) ? BinaryOp::kAnd : BinaryOp::kOr,
        Gen(depth - 1), Gen(depth - 1));
  }

  Expr::Ptr GenUnary(int depth) {
    return sql::MakeUnary(
        rng_->NextBernoulli(0.5) ? UnaryOp::kNeg : UnaryOp::kNot,
        Gen(depth - 1));
  }

  Expr::Ptr GenCase(int depth) {
    auto e = std::make_unique<Expr>(ExprKind::kCase);
    const size_t whens = 1 + rng_->NextBounded(2);
    for (size_t i = 0; i < whens; ++i) {
      e->case_whens.push_back(Gen(depth - 1));
      e->case_thens.push_back(Gen(depth - 1));
    }
    if (rng_->NextBernoulli(0.7)) e->case_else = Gen(depth - 1);
    return e;
  }

  Expr::Ptr GenIsNull(int depth) {
    auto e = std::make_unique<Expr>(ExprKind::kIsNull);
    e->args.push_back(Gen(depth - 1));
    e->negated = rng_->NextBernoulli(0.5);
    return e;
  }

  Expr::Ptr GenInList(int depth) {
    auto e = std::make_unique<Expr>(ExprKind::kInList);
    e->args.push_back(Gen(depth - 1));
    const size_t items = 1 + rng_->NextBounded(3);
    for (size_t i = 0; i < items; ++i) e->args.push_back(Gen(depth - 1));
    e->negated = rng_->NextBernoulli(0.5);
    return e;
  }

  Expr::Ptr GenBetween(int depth) {
    auto e = std::make_unique<Expr>(ExprKind::kBetween);
    e->args.push_back(Gen(depth - 1));
    e->args.push_back(Gen(depth - 1));
    e->args.push_back(Gen(depth - 1));
    e->negated = rng_->NextBernoulli(0.5);
    return e;
  }

  Expr::Ptr GenLike(int depth) {
    static const char* kPatterns[] = {"a%", "%b", "%a%", "a_", "_", "%"};
    return sql::MakeBinary(BinaryOp::kLike, Gen(depth - 1),
                           sql::MakeStringLit(kPatterns[rng_->NextBounded(6)]));
  }

  Expr::Ptr GenFunction(int depth) {
    // rand-family calls are fair game: draws are row-addressed, so the
    // batch kernels and the row interpreter produce identical values (each
    // generated call gets its own site id).
    switch (rng_->NextBounded(11)) {
      case 0: return Call("abs", Gen(depth - 1));
      case 1: return Call("floor", Gen(depth - 1));
      case 2: return Call("coalesce", Gen(depth - 1), Gen(depth - 1));
      case 3:
        return Call("if", Gen(depth - 1), Gen(depth - 1), Gen(depth - 1));
      case 4: return Call("length", Gen(depth - 1));
      case 5: return Call("verdict_hash", Gen(depth - 1));
      case 6: return Sited(Call("rand"));
      case 7: return Sited(Call("rand_poisson"));
      case 8: return Call("ceil", Gen(depth - 1));
      case 9: return Call("sqrt", Gen(depth - 1));
      default: return Call("greatest", Gen(depth - 1), Gen(depth - 1));
    }
  }

  Expr::Ptr Sited(Expr::Ptr e) {
    e->rand_site = next_site_++;
    return e;
  }

  template <typename... Args>
  Expr::Ptr Call(std::string name, Args... args) {
    std::vector<Expr::Ptr> argv;
    (argv.push_back(std::move(args)), ...);
    return sql::MakeFunction(std::move(name), std::move(argv));
  }

  Rng* rng_;
  int next_site_ = 1;
};

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.AsDouble(), y = b.AsDouble();
    if (std::isnan(x) && std::isnan(y)) return true;
    return x == y;
  }
  if (a.type() == TypeId::kString && b.type() == TypeId::kString) {
    return a.AsString() == b.AsString();
  }
  return false;
}

/// Row-side reference: evaluates per row and materializes through
/// Column::Append, exactly as the pre-vectorization executor did.
Result<Column> RowReference(const Expr& e, const Batch& b) {
  Column col;
  for (size_t k = 0; k < b.size(); ++k) {
    RowCtx ctx{b.table, b.RowAt(k), b.rand_seed, b.row_id_offset};
    auto v = EvalExpr(e, ctx);
    if (!v.ok()) return v.status();
    col.Append(v.value());
  }
  return col;
}

void ExpectBatchMatchesRow(const Expr& e, const Batch& b) {
  auto row_col = RowReference(e, b);
  auto batch_col = EvalExprBatch(e, b);
  ASSERT_EQ(row_col.ok(), batch_col.ok()) << sql::PrintExpr(e);
  if (!row_col.ok()) return;
  const Column& rc = row_col.value();
  const Column& bc = batch_col.value();
  ASSERT_EQ(rc.size(), b.size());
  ASSERT_EQ(bc.size(), b.size()) << sql::PrintExpr(e);
  for (size_t k = 0; k < b.size(); ++k) {
    EXPECT_TRUE(SameValue(rc.Get(k), bc.Get(k)))
        << sql::PrintExpr(e) << " row " << k << ": row-eval="
        << rc.Get(k).ToString() << " batch=" << bc.Get(k).ToString();
  }

  // Predicate semantics: selected rows must match EvalPredicate exactly.
  SelVector batch_sel;
  ASSERT_TRUE(EvalPredicateBatch(e, b, &batch_sel).ok());
  SelVector row_sel;
  for (size_t k = 0; k < b.size(); ++k) {
    RowCtx ctx{b.table, b.RowAt(k), b.rand_seed, b.row_id_offset};
    auto pass = EvalPredicate(e, ctx);
    ASSERT_TRUE(pass.ok());
    if (pass.value()) row_sel.push_back(b.RowAt(k));
  }
  EXPECT_EQ(batch_sel, row_sel) << sql::PrintExpr(e);
}

// ---------------------------------------------------------------------------
// Differential fuzz
// ---------------------------------------------------------------------------

TEST(VectorEvalFuzz, BatchMatchesRowOnFullTable) {
  Rng rng(20260729);
  auto t = MakeRandomTable(&rng, 257);
  ExprGen gen(&rng);
  for (int i = 0; i < 400; ++i) {
    auto e = gen.Gen(4);
    Batch b{t.get(), nullptr, /*rand_seed=*/7};
    ExpectBatchMatchesRow(*e, b);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(VectorEvalFuzz, BatchMatchesRowUnderSelectionVector) {
  Rng rng(42424242);
  auto t = MakeRandomTable(&rng, 301);
  ExprGen gen(&rng);
  for (int i = 0; i < 200; ++i) {
    SelVector sel;
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      if (rng.NextBernoulli(0.4)) sel.push_back(r);
    }
    auto e = gen.Gen(3);
    Batch b{t.get(), &sel, /*rand_seed=*/11};
    ExpectBatchMatchesRow(*e, b);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(VectorEvalFuzz, RandomNullPatterns) {
  // Tables whose nullable columns are mostly/entirely NULL stress the lazy
  // null-mask paths.
  Rng rng(555);
  auto t = std::make_shared<Table>();
  t->AddColumn("i1", TypeId::kInt64);
  t->AddColumn("i2", TypeId::kInt64);
  t->AddColumn("d1", TypeId::kDouble);
  t->AddColumn("d2", TypeId::kDouble);
  t->AddColumn("s1", TypeId::kString);
  t->AddColumn("b1", TypeId::kBool);
  for (size_t r = 0; r < 64; ++r) {
    t->AppendRow({Value::Null(), Value::Null(),
                  rng.NextBernoulli(0.1) ? Value::Double(1.5) : Value::Null(),
                  Value::Null(), Value::Null(), Value::Null()});
  }
  ExprGen gen(&rng);
  for (int i = 0; i < 150; ++i) {
    auto e = gen.Gen(3);
    Batch b{t.get(), nullptr, /*rand_seed=*/3};
    ExpectBatchMatchesRow(*e, b);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(VectorEvalFuzz, ConcatBatchMatchesRow) {
  // concat's batch kernel (string lanes appended in place, constants
  // rendered once, every other value through Value::ToString) must build
  // the row interpreter's string on every lane: 0-3 random arguments joined
  // by '|' literals, as the multi-column NDV probe writes them, over the
  // full table (where the column types must agree too) and under a
  // selection vector.
  Rng rng(31337);
  auto t = MakeRandomTable(&rng, 257);
  ExprGen gen(&rng);
  for (int i = 0; i < 200; ++i) {
    std::vector<Expr::Ptr> args;
    const size_t arity = rng.NextBounded(4);
    for (size_t a = 0; a < arity; ++a) {
      if (a > 0) args.push_back(sql::MakeStringLit("|"));
      args.push_back(gen.Gen(2));
    }
    auto e = sql::MakeFunction("concat", std::move(args));
    Batch full{t.get(), nullptr, /*rand_seed=*/7};
    ExpectBatchMatchesRow(*e, full);
    auto row_col = RowReference(*e, full);
    auto batch_col = EvalExprBatch(*e, full);
    if (row_col.ok() && batch_col.ok()) {
      EXPECT_EQ(row_col.value().type(), batch_col.value().type())
          << sql::PrintExpr(*e);
    }
    SelVector sel;
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      if (rng.NextBernoulli(0.4)) sel.push_back(r);
    }
    Batch part{t.get(), &sel, /*rand_seed=*/11};
    ExpectBatchMatchesRow(*e, part);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Dispatch-level differential fuzz: every randomized expression must produce
// BIT-identical results (doubles compared by bit pattern, NULL masks exactly)
// under every available SIMD dispatch level. Tables carry the adversarial
// float classes (NaN, +0.0/-0.0, +/-inf) and extreme int64 values, and row
// counts straddle the 64-row word boundary so the AVX2 kernels' scalar tail
// handoff is exercised on every width.
// ---------------------------------------------------------------------------

TablePtr MakeAdversarialTable(Rng* rng, size_t rows) {
  auto t = std::make_shared<Table>();
  t->AddColumn("i1", TypeId::kInt64);
  t->AddColumn("i2", TypeId::kInt64);
  t->AddColumn("d1", TypeId::kDouble);
  t->AddColumn("d2", TypeId::kDouble);
  t->AddColumn("s1", TypeId::kString);
  t->AddColumn("b1", TypeId::kBool);
  const double kDoublePool[] = {
      std::numeric_limits<double>::quiet_NaN(),
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1.5,
      -2.25,
      1e300,
  };
  const int64_t kIntPool[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), -3, 0, 5};
  static const char* kStrings[] = {"a", "ab", "", "ba"};
  auto pick_double = [&] {
    return rng->NextBernoulli(0.5)
               ? kDoublePool[rng->NextBounded(8)]
               : static_cast<double>(rng->NextInRange(-40, 40)) / 8.0;
  };
  auto pick_int = [&] {
    return rng->NextBernoulli(0.3) ? kIntPool[rng->NextBounded(5)]
                                   : rng->NextInRange(-6, 6);
  };
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int(pick_int()));
    row.push_back(rng->NextBernoulli(0.25) ? Value::Null()
                                           : Value::Int(pick_int()));
    row.push_back(Value::Double(pick_double()));
    row.push_back(rng->NextBernoulli(0.25) ? Value::Null()
                                           : Value::Double(pick_double()));
    row.push_back(rng->NextBernoulli(0.2)
                      ? Value::Null()
                      : Value::String(kStrings[rng->NextBounded(4)]));
    row.push_back(Value::Bool(rng->NextBernoulli(0.5)));
    t->AppendRow(row);
  }
  return t;
}

/// Bit-exact column equality: NULL masks must match exactly, doubles are
/// compared as raw bit patterns (distinguishing -0.0 from 0.0 and preserving
/// the NaN class), everything else by exact value.
void ExpectColumnsBitIdentical(const Column& a, const Column& b,
                               const Expr& e, const char* level) {
  ASSERT_EQ(a.size(), b.size()) << sql::PrintExpr(e);
  ASSERT_EQ(a.type(), b.type()) << sql::PrintExpr(e) << " level " << level;
  for (size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a.IsNull(k), b.IsNull(k))
        << sql::PrintExpr(e) << " row " << k << " level " << level;
    if (a.IsNull(k)) continue;
    const Value va = a.Get(k), vb = b.Get(k);
    if (va.type() == TypeId::kDouble && vb.type() == TypeId::kDouble) {
      const double x = va.AsDouble(), y = vb.AsDouble();
      uint64_t xb, yb;
      std::memcpy(&xb, &x, sizeof(xb));
      std::memcpy(&yb, &y, sizeof(yb));
      ASSERT_EQ(xb, yb) << sql::PrintExpr(e) << " row " << k << " level "
                        << level << ": " << x << " vs " << y;
    } else {
      ASSERT_TRUE(SameValue(va, vb))
          << sql::PrintExpr(e) << " row " << k << " level " << level << ": "
          << va.ToString() << " vs " << vb.ToString();
    }
  }
}

TEST(SimdDispatchFuzz, BatchResultsBitIdenticalAcrossDispatchLevels) {
  namespace k = kernels;
  const k::SimdLevel detected = k::DetectedSimdLevel();
  std::vector<k::SimdLevel> levels{k::SimdLevel::kScalar};
  if (detected != k::SimdLevel::kScalar) levels.push_back(detected);
  // With only the scalar level available the loop still validates the
  // scalar-vs-scalar plumbing; the real cross-check needs AVX2 hardware.
  Rng rng(0xD15BA7C4);
  // Row counts straddling whole-word boundaries: sub-word, exact words, and
  // words plus ragged tails.
  const size_t kRowCounts[] = {1, 63, 64, 65, 127, 192, 301};
  for (size_t rows : kRowCounts) {
    auto t = MakeAdversarialTable(&rng, rows);
    ExprGen gen(&rng);
    for (int i = 0; i < 40; ++i) {
      auto e = gen.Gen(4);
      std::vector<Column> cols;
      std::vector<SelVector> sels;
      bool evals_ok = true;
      for (size_t li = 0; li < levels.size(); ++li) {
        k::SetSimdLevelForTest(levels[li]);
        Batch b{t.get(), nullptr, /*rand_seed=*/7};
        auto c = EvalExprBatch(*e, b);
        SelVector sel;
        Status ps = EvalPredicateBatch(*e, b, &sel);
        k::SetSimdLevelForTest(detected);
        // Errors come from the expression tree, never from a kernel, so if
        // any level errors it must be level 0 (and all levels alike).
        if (!c.ok() || !ps.ok()) {
          ASSERT_EQ(li, size_t{0})
              << "level-dependent error: " << sql::PrintExpr(*e);
          evals_ok = false;
          break;
        }
        cols.push_back(std::move(c).ValueOrDie());
        sels.push_back(std::move(sel));
      }
      if (!evals_ok) continue;
      for (size_t li = 1; li < cols.size(); ++li) {
        ExpectColumnsBitIdentical(cols[0], cols[li], *e,
                                  k::SimdLevelName(levels[li]));
        EXPECT_EQ(sels[0], sels[li])
            << sql::PrintExpr(*e) << " predicate survivors diverge at level "
            << k::SimdLevelName(levels[li]);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Pins the gather kernels (gather_i64 / gather_f64) behind
// Column::AppendSelected: the AVX2 i64gather lanes must produce the same
// bytes as the scalar loops for arbitrary (unsorted, repeating) row lists,
// NULL masks included, at row counts straddling the 4-wide vector tail.
TEST(SimdDispatchFuzz, GatherLanesBitIdenticalAcrossDispatchLevels) {
  namespace k = kernels;
  const k::SimdLevel detected = k::DetectedSimdLevel();
  Rng rng(0x6A7BE2);
  Column ints(TypeId::kInt64);
  Column dbls(TypeId::kDouble);
  const size_t kSrcRows = 1031;
  for (size_t r = 0; r < kSrcRows; ++r) {
    if (rng.NextBernoulli(0.15)) {
      ints.AppendNull();
    } else {
      ints.AppendInt(static_cast<int64_t>(rng.Next()));
    }
    if (rng.NextBernoulli(0.15)) {
      dbls.AppendNull();
    } else {
      dbls.AppendDouble(rng.NextDouble() * 1e12 - 5e11);
    }
  }
  const size_t kCounts[] = {0, 1, 3, 4, 5, 63, 64, 65, 997};
  for (size_t count : kCounts) {
    std::vector<uint32_t> rows(count);
    for (size_t i = 0; i < count; ++i) {
      rows[i] = static_cast<uint32_t>(rng.NextBounded(kSrcRows));
    }
    for (const Column* src : {&ints, &dbls}) {
      k::SetSimdLevelForTest(k::SimdLevel::kScalar);
      Column a(src->type());
      a.AppendSelected(*src, rows.data(), count);
      k::SetSimdLevelForTest(detected);
      Column b(src->type());
      b.AppendSelected(*src, rows.data(), count);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << "row " << i;
        if (a.IsNull(i)) continue;
        if (src->type() == TypeId::kInt64) {
          ASSERT_EQ(a.IntData()[i], b.IntData()[i]) << "row " << i;
        } else {
          uint64_t ab, bb;
          std::memcpy(&ab, &a.DoubleData()[i], 8);
          std::memcpy(&bb, &b.DoubleData()[i], 8);
          ASSERT_EQ(ab, bb) << "row " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Selection-vector edge cases
// ---------------------------------------------------------------------------

class VectorEvalEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    table_ = MakeRandomTable(&rng, 50);
    pred_ = sql::MakeBinary(BinaryOp::kGt, BoundRef("i1", 0),
                            sql::MakeIntLit(0));
  }

  static Expr::Ptr BoundRef(const std::string& name, int idx) {
    auto e = sql::MakeColumnRef("", name);
    e->bound_column = idx;
    return e;
  }

  TablePtr table_;
  Expr::Ptr pred_;
};

TEST_F(VectorEvalEdgeTest, EmptySelection) {
  SelVector sel;  // no rows survive upstream
  Batch b{table_.get(), &sel, /*rand_seed=*/1};
  auto col = EvalExprBatch(*pred_, b);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.value().size(), 0u);
  SelVector out;
  ASSERT_TRUE(EvalPredicateBatch(*pred_, b, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(VectorEvalEdgeTest, EmptyTable) {
  auto empty = table_->CloneSchema();
  Batch b{empty.get(), nullptr, /*rand_seed=*/1};
  auto col = EvalExprBatch(*pred_, b);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.value().size(), 0u);
}

TEST_F(VectorEvalEdgeTest, AllPassSelection) {
  auto always = sql::MakeBinary(BinaryOp::kEq, sql::MakeIntLit(1),
                                sql::MakeIntLit(1));
  Batch b{table_.get(), nullptr, /*rand_seed=*/1};
  SelVector out;
  ASSERT_TRUE(EvalPredicateBatch(*always, b, &out).ok());
  ASSERT_EQ(out.size(), table_->num_rows());
  for (uint32_t r = 0; r < out.size(); ++r) EXPECT_EQ(out[r], r);
}

TEST_F(VectorEvalEdgeTest, SingleRowSelection) {
  SelVector sel{7};
  Batch b{table_.get(), &sel, /*rand_seed=*/1};
  ExpectBatchMatchesRow(*pred_, b);
  auto col = EvalExprBatch(*BoundRef("d1", 2), b);
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(col.value().size(), 1u);
  EXPECT_TRUE(SameValue(col.value().Get(0), table_->Get(7, 2)));
}

// ---------------------------------------------------------------------------
// Three-valued logic pinning (NULL AND/OR/NOT)
// ---------------------------------------------------------------------------

TEST(VectorEvalLogicTest, KleeneTruthTable) {
  // One row; operands are literals covering all 9 AND/OR combinations.
  auto t = std::make_shared<Table>();
  Column c(TypeId::kInt64);
  c.AppendInt(0);
  t->AddColumn("x", std::move(c));

  auto lit = [](int tri) -> Expr::Ptr {  // -1 null, 0 false, 1 true
    if (tri < 0) return sql::MakeLiteral(Value::Null());
    return sql::MakeLiteral(Value::Bool(tri == 1));
  };
  const int tris[] = {-1, 0, 1};
  for (int a : tris) {
    for (int bvals : tris) {
      for (bool is_and : {true, false}) {
        auto e = sql::MakeBinary(is_and ? BinaryOp::kAnd : BinaryOp::kOr,
                                 lit(a), lit(bvals));
        Batch batch{t.get(), nullptr, /*rand_seed=*/5};
        ExpectBatchMatchesRow(*e, batch);
      }
    }
  }
  for (int a : tris) {
    auto e = sql::MakeUnary(UnaryOp::kNot, lit(a));
    Batch batch{t.get(), nullptr, /*rand_seed=*/5};
    ExpectBatchMatchesRow(*e, batch);
  }
}

// ---------------------------------------------------------------------------
// Bulk-copy paths
// ---------------------------------------------------------------------------

TEST(BulkCopyTest, AppendRangeAdoptsTypeAndNulls) {
  Column src(TypeId::kInt64);
  src.AppendInt(1);
  src.AppendNull();
  src.AppendInt(3);
  Column dst;
  dst.AppendRange(src, 0, 3);
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.type(), TypeId::kInt64);
  EXPECT_EQ(dst.Get(0).AsInt(), 1);
  EXPECT_TRUE(dst.IsNull(1));
  EXPECT_EQ(dst.Get(2).AsInt(), 3);
}

TEST(BulkCopyTest, AppendRangeMismatchedTypesFallsBack) {
  Column src(TypeId::kInt64);
  src.AppendInt(7);
  Column dst(TypeId::kDouble);
  dst.AppendDouble(0.5);
  dst.AppendRange(src, 0, 1);
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(dst.Get(1).AsDouble(), 7.0);
}

TEST(BulkCopyTest, TableAppendSelectedGathers) {
  Rng rng(17);
  auto t = MakeRandomTable(&rng, 30);
  SelVector sel{29, 0, 15, 15};
  auto out = t->CloneSchema();
  out->AppendSelected(*t, sel);
  ASSERT_EQ(out->num_rows(), 4u);
  for (size_t c = 0; c < t->num_columns(); ++c) {
    for (size_t i = 0; i < sel.size(); ++i) {
      EXPECT_TRUE(SameValue(out->Get(i, c), t->Get(sel[i], c)))
          << "col " << c << " sel " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// RowView: composition, guards, gather fast paths
// ---------------------------------------------------------------------------

TablePtr MakeSequenceTable(size_t rows) {
  auto t = std::make_shared<Table>();
  std::vector<int64_t> v(rows);
  std::vector<double> d(rows);
  for (size_t r = 0; r < rows; ++r) {
    v[r] = static_cast<int64_t>(r);
    d[r] = static_cast<double>(r) * 1.5;
  }
  t->AddColumn("v", Column::FromData(TypeId::kInt64, std::move(v), {}, {}, {}));
  t->AddColumn("d", Column::FromData(TypeId::kDouble, {}, std::move(d), {}, {}));
  return t;
}

TEST(RowViewTest, ComposeFlattensViewOfView) {
  auto t = MakeSequenceTable(10);
  auto view = RowView::Select(t, {2, 4, 6, 8});
  ASSERT_TRUE(view.ok());
  // Positions into the view, not the table: {3, 0, 0} -> physical {8, 2, 2}.
  auto composed = view.value().Compose({3, 0, 0});
  ASSERT_TRUE(composed.ok());
  const RowView& cv = composed.value();
  ASSERT_EQ(cv.num_rows(), 3u);
  EXPECT_EQ(cv.RowAt(0), 8u);
  EXPECT_EQ(cv.RowAt(1), 2u);
  EXPECT_EQ(cv.RowAt(2), 2u);
  auto gathered = cv.Gather();
  ASSERT_EQ(gathered->num_rows(), 3u);
  EXPECT_EQ(gathered->Get(0, 0).AsInt(), 8);
  EXPECT_EQ(gathered->Get(1, 0).AsInt(), 2);
}

TEST(RowViewTest, ComposeOutOfRangeIsAStatusError) {
  auto t = MakeSequenceTable(10);
  auto view = RowView::Select(t, {1, 3});
  ASSERT_TRUE(view.ok());
  auto bad = view.value().Compose({2});  // view has 2 rows: positions 0 and 1
  EXPECT_FALSE(bad.ok());
}

TEST(RowViewTest, SelectOutOfRangeIsAStatusError) {
  auto t = MakeSequenceTable(10);
  auto bad = RowView::Select(t, {9, 10});
  EXPECT_FALSE(bad.ok());
}

TEST(RowViewTest, IdentityGatherIsZeroCopyAndPrefixTrims) {
  auto t = MakeSequenceTable(10);
  auto view = RowView::All(t);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view.value().is_identity());
  EXPECT_EQ(view.value().Gather().get(), t.get());  // zero-copy fast path
  RowView prefix = view.value().Prefix(3);
  EXPECT_FALSE(prefix.is_identity());
  auto gathered = prefix.Gather();
  ASSERT_EQ(gathered->num_rows(), 3u);
  EXPECT_NE(gathered.get(), t.get());
  EXPECT_EQ(gathered->Get(2, 0).AsInt(), 2);
  // Prefix beyond the view is the whole view.
  EXPECT_EQ(view.value().Prefix(99).num_rows(), 10u);
}

TEST(RowViewTest, ChunkedGatherColumnMatchesSerial) {
  SetMorselRowsForTest(8);
  auto t = MakeSequenceTable(200);
  SelVector sel;
  for (uint32_t r = 0; r < 200; r += 3) sel.push_back(r);
  auto view = RowView::Select(t, sel);
  ASSERT_TRUE(view.ok());
  Column serial = view.value().GatherColumn(t->column(1), 1);
  Column chunked = view.value().GatherColumn(t->column(1), 4);
  ASSERT_EQ(serial.size(), chunked.size());
  EXPECT_EQ(serial.type(), chunked.type());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(SameValue(serial.Get(i), chunked.Get(i))) << i;
  }
  SetMorselRowsForTest(0);
}

TEST(ConcatChunksTest, UniformAndMixedTypes) {
  // Uniform int chunks with a kNull chunk absorbed as NULLs.
  Column a(TypeId::kInt64);
  a.AppendInt(1);
  a.AppendInt(2);
  Column allnull = Column::FromData(TypeId::kNull, {}, {}, {}, {1, 1});
  Column b(TypeId::kInt64);
  b.AppendInt(3);
  std::vector<Column> chunks;
  chunks.push_back(a);
  chunks.push_back(allnull);
  chunks.push_back(b);
  Column out = Column::ConcatChunks(std::move(chunks));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.type(), TypeId::kInt64);
  EXPECT_EQ(out.Get(0).AsInt(), 1);
  EXPECT_TRUE(out.IsNull(2));
  EXPECT_EQ(out.Get(4).AsInt(), 3);

  // Int chunk + double chunk: promote exactly like per-value Append.
  Column ic(TypeId::kInt64);
  ic.AppendInt(7);
  Column dc(TypeId::kDouble);
  dc.AppendDouble(0.5);
  std::vector<Column> mixed;
  mixed.push_back(std::move(ic));
  mixed.push_back(std::move(dc));
  Column m = Column::ConcatChunks(std::move(mixed));
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(m.Get(0).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(m.Get(1).AsDouble(), 0.5);
}

// ---------------------------------------------------------------------------
// Late materialization: view pipeline vs eager-gather pipeline, 1/2/8 threads
// ---------------------------------------------------------------------------

/// Bit-level value equality: doubles must match in their bit patterns, not
/// just numerically (this is what "at most one gather, and it changes
/// nothing" means for floating point).
bool BitIdentical(const Value& a, const Value& b) {
  if (a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() != b.type()) return false;
  if (a.type() == TypeId::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  if (a.type() == TypeId::kString) return a.AsString() == b.AsString();
  return a.AsInt() == b.AsInt();
}

void ExpectBitIdenticalResults(const ResultSet& ref, const ResultSet& got,
                               const std::string& what) {
  ASSERT_EQ(ref.NumCols(), got.NumCols()) << what;
  ASSERT_EQ(ref.NumRows(), got.NumRows()) << what;
  for (size_t c = 0; c < ref.NumCols(); ++c) {
    EXPECT_EQ(ref.names[c], got.names[c]) << what;
  }
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    for (size_t c = 0; c < ref.NumCols(); ++c) {
      ASSERT_TRUE(BitIdentical(ref.Get(r, c), got.Get(r, c)))
          << what << " cell (" << r << "," << c
          << "): " << ref.Get(r, c).ToString() << " vs "
          << got.Get(r, c).ToString();
    }
  }
}

/// Random fact table: a grouping key, full-mantissa doubles (partial-sum
/// merges would be ulp-visible without the fixed morsel structure), a
/// nullable int, and a nullable string.
TablePtr MakeFactTable(Rng* rng, size_t rows) {
  auto t = std::make_shared<Table>();
  t->AddColumn("g", TypeId::kInt64);
  t->AddColumn("x", TypeId::kDouble);
  t->AddColumn("y", TypeId::kInt64);
  t->AddColumn("s", TypeId::kString);
  static const char* kStrings[] = {"a", "bb", "ccc", "d", ""};
  for (size_t r = 0; r < rows; ++r) {
    t->AppendRow({Value::Int(rng->NextInRange(0, 6)),
                  Value::Double((rng->NextDouble() - 0.5) * 1e6),
                  rng->NextBernoulli(0.2) ? Value::Null()
                                          : Value::Int(rng->NextInRange(-50, 50)),
                  rng->NextBernoulli(0.15)
                      ? Value::Null()
                      : Value::String(kStrings[rng->NextBounded(5)])});
  }
  return t;
}

class LateMaterializationTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMorselRowsForTest(512); }
  void TearDown() override { SetMorselRowsForTest(0); }

  static constexpr uint64_t kSeed = 20260729;
  static constexpr size_t kRows = 4099;  // last morsel is a partial one

  /// Runs `select_list ... from t where pred ... tail` over the view
  /// pipeline (WHERE stays a view) at 1, 2 and 8 threads, and over an eager
  /// reference that materializes the filtered table first (create table ..
  /// as select * where ..), asserting all four result sets bit-identical.
  void CheckQuery(const std::string& pred, const std::string& select_list,
                  const std::string& tail = "") {
    const std::string suffix = tail.empty() ? "" : " " + tail;
    const std::string view_sql =
        select_list + " from t where " + pred + suffix;
    // Eager-gather reference: filter -> full-width materialize -> rest.
    Database eager_db(kSeed);
    {
      Rng data_rng(kSeed);
      ASSERT_TRUE(
          eager_db.RegisterTable("t", MakeFactTable(&data_rng, kRows)).ok());
    }
    auto created =
        eager_db.Execute("create table tf as select * from t where " + pred);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto ref = eager_db.Execute(select_list + " from tf" + suffix);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    for (int threads : {1, 2, 8}) {
      Database db(kSeed);
      Rng data_rng(kSeed);
      ASSERT_TRUE(db.RegisterTable("t", MakeFactTable(&data_rng, kRows)).ok());
      db.set_num_threads(threads);
      auto got = db.Execute(view_sql);
      ASSERT_TRUE(got.ok()) << view_sql << " -> " << got.status().ToString();
      ExpectBitIdenticalResults(
          ref.value(), got.value(),
          view_sql + " @" + std::to_string(threads) + " threads");
    }
  }
};

TEST_F(LateMaterializationTest, FilterProject) {
  CheckQuery("x > 0", "select g, x, x * 2.5 as xs");
}

TEST_F(LateMaterializationTest, FilterProjectNullableExpressions) {
  CheckQuery("y is not null and y < 20",
             "select y, x / y as q, coalesce(s, 'z') as cs");
}

TEST_F(LateMaterializationTest, FilterAggregate) {
  CheckQuery("x > -100000",
             "select g, count(*) as c, sum(x) as sx, avg(x) as ax, "
             "var(x) as vx, min(y) as mn, count(distinct s) as ds",
             "group by g");
}

TEST_F(LateMaterializationTest, FilterGlobalAggregate) {
  CheckQuery("y is not null",
             "select count(*) as c, sum(x * y) as sxy, stddev(x) as dx");
}

TEST_F(LateMaterializationTest, FilterHaving) {
  CheckQuery("x < 250000", "select g, sum(x) as sx",
             "group by g having count(*) > 100");
}

TEST_F(LateMaterializationTest, FilterDistinctOrderLimit) {
  CheckQuery("y > 0", "select distinct g, y", "order by g, y limit 11");
}

TEST_F(LateMaterializationTest, FilterOrderByExpressionDesc) {
  CheckQuery("x > 0", "select g, x", "order by x desc limit 37");
}

TEST_F(LateMaterializationTest, RandomizedPredicates) {
  Rng rng(99);
  for (int i = 0; i < 12; ++i) {
    const int64_t c1 = rng.NextInRange(-400000, 400000);
    const int64_t c2 = rng.NextInRange(-40, 40);
    const std::string pred = "x > " + std::to_string(c1) + " and (y < " +
                             std::to_string(c2) + " or y is null)";
    CheckQuery(pred, "select g, count(*) as c, sum(x) as sx, avg(x) as ax",
               "group by g");
    CheckQuery(pred, "select g, x, y", "order by x limit 23");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(LateMaterializationTest, RandPredicateSeedReproducible) {
  // rand() runs morsel-parallel; its draws are row-addressed, so the
  // selected rows are identical whether the survivors are gathered eagerly
  // or carried as a view, at every thread count.
  CheckQuery("rand() < 0.5", "select g, count(*) as c, sum(x) as sx",
             "group by g");
}

// ---- view-pipeline edge cases ---------------------------------------------

TEST_F(LateMaterializationTest, AllFalsePredicateKeepsSchema) {
  Database db(kSeed);
  Rng data_rng(kSeed);
  ASSERT_TRUE(db.RegisterTable("t", MakeFactTable(&data_rng, 100)).ok());
  for (int threads : {1, 8}) {
    db.set_num_threads(threads);
    auto rs = db.Execute("select g, x, x + 1 as xp from t where x > 1e300");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs.value().NumRows(), 0u);
    ASSERT_EQ(rs.value().NumCols(), 3u);  // schema-complete, not schema-less
    EXPECT_EQ(rs.value().names[0], "g");
    EXPECT_EQ(rs.value().names[2], "xp");
    EXPECT_EQ(rs.value().table->num_columns(), 3u);
  }
}

TEST_F(LateMaterializationTest, EmptySourceTableKeepsSchema) {
  Database db(kSeed);
  auto empty = std::make_shared<Table>();
  empty->AddColumn("a", TypeId::kInt64);
  empty->AddColumn("b", TypeId::kDouble);
  ASSERT_TRUE(db.RegisterTable("t", empty).ok());
  auto rs = db.Execute("select a, b, a * b as ab from t where a > 0");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().NumRows(), 0u);
  EXPECT_EQ(rs.value().NumCols(), 3u);
  EXPECT_EQ(rs.value().table->num_columns(), 3u);
}

TEST_F(LateMaterializationTest, SelectionWithSingleRowLastMorsel) {
  // 512-row morsels; exactly 2 * 512 + 1 surviving rows puts one lone row in
  // the final morsel of every downstream view scan.
  Database db(kSeed);
  auto t = MakeSequenceTable(3000);
  ASSERT_TRUE(db.RegisterTable("t", t).ok());
  const std::string sql =
      "select v, d, d * 2.0 as dd from t where v < 1025";  // 1025 survivors
  ResultSet ref;
  for (int threads : {1, 2, 8}) {
    db.set_num_threads(threads);
    auto rs = db.Execute(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs.value().NumRows(), 1025u);
    EXPECT_EQ(rs.value().Get(1024, 0).AsInt(), 1024);
    if (threads == 1) {
      ref = rs.value();
    } else {
      ExpectBitIdenticalResults(ref, rs.value(),
                                sql + " @" + std::to_string(threads));
    }
  }
}

TEST_F(LateMaterializationTest, SingleSurvivorProjection) {
  Database db(kSeed);
  auto t = MakeSequenceTable(3000);
  ASSERT_TRUE(db.RegisterTable("t", t).ok());
  for (int threads : {1, 8}) {
    db.set_num_threads(threads);
    auto rs = db.Execute("select v, d from t where v = 1717");
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().NumRows(), 1u);
    ASSERT_EQ(rs.value().NumCols(), 2u);
    EXPECT_EQ(rs.value().Get(0, 0).AsInt(), 1717);
  }
}

}  // namespace
}  // namespace vdb::engine
