#include "check.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "core/flattener.h"
#include "engine/aggregates.h"
#include "sql/parser.h"

namespace perfbench {

using vdb::Value;
using vdb::engine::ResultSet;

namespace {

vdb::Result<ResultSet> RunFlattened(vdb::engine::Database* db,
                                    vdb::sql::SelectStmt* sel) {
  auto flattened = vdb::core::FlattenComparisonSubqueries(sel);
  if (!flattened.ok()) return flattened.status();
  return db->ExecuteSelect(*sel);
}

bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case vdb::TypeId::kNull:
      return true;
    case vdb::TypeId::kDouble: {
      const double x = a.AsDouble(), y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case vdb::TypeId::kString:
      return a.AsString() == b.AsString();
    default:
      return a.AsInt() == b.AsInt();
  }
}

bool IsPointColumn(const vdb::core::ApproxAnswer& got, size_t col) {
  for (const auto& a : got.aggregates) {
    if (a.point_column == static_cast<int>(col)) return true;
  }
  return false;
}

/// Group-key columns: the user columns (those the exact answer also has)
/// that are not approximated aggregates.
std::vector<size_t> KeyColumns(const vdb::core::ApproxAnswer& got,
                               const ResultSet& exact) {
  std::vector<size_t> keys;
  for (size_t c = 0; c < exact.NumCols(); ++c) {
    if (!IsPointColumn(got, c)) keys.push_back(c);
  }
  return keys;
}

std::string RowKey(const ResultSet& rs, size_t row,
                   const std::vector<size_t>& cols) {
  std::string key;
  for (size_t c : cols) {
    key += vdb::engine::ValueGroupKey(rs.Get(row, c));
    key.push_back('\x1f');
  }
  return key;
}

double Ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

vdb::Result<ExactAnswer> ComputeExact(vdb::engine::Database* db,
                                      const std::string& sql) {
  ExactAnswer out;
  auto parsed = vdb::sql::ParseSelect(sql);
  if (!parsed.ok()) return parsed.status();
  const auto t0 = std::chrono::steady_clock::now();
  auto rs = RunFlattened(db, parsed.value().get());
  out.ms = Ms(t0);
  if (!rs.ok()) return rs.status();
  out.result = std::move(rs).ValueOrDie();
  out.limited = parsed.value()->limit >= 0;
  if (out.limited) {
    auto unlimited = vdb::sql::ParseSelect(sql);
    if (!unlimited.ok()) return unlimited.status();
    unlimited.value()->limit = -1;
    auto all = RunFlattened(db, unlimited.value().get());
    if (!all.ok()) return all.status();
    out.all_groups = std::move(all).ValueOrDie();
  } else {
    out.all_groups = out.result;
  }
  return out;
}

bool SameResult(const ResultSet& a, const ResultSet& b) {
  if (a.names != b.names || a.NumRows() != b.NumRows()) return false;
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumCols(); ++c) {
      if (!SameCell(a.Get(r, c), b.Get(r, c))) return false;
    }
  }
  return true;
}

std::string CheckPassthrough(const ResultSet& got, const ExactAnswer& exact) {
  if (SameResult(got, exact.result)) return "";
  return "passthrough answer differs from the exact answer (" +
         std::to_string(got.NumRows()) + " vs " +
         std::to_string(exact.result.NumRows()) + " rows)";
}

std::string CheckApproximated(const vdb::core::ApproxAnswer& got,
                              const ExactAnswer& exact) {
  const ResultSet& all = exact.all_groups;
  if (got.aggregates.empty()) return "approximated answer has no aggregates";
  if (got.result.NumCols() < all.NumCols()) {
    return "approximated answer lacks user columns";
  }
  const std::vector<size_t> keys = KeyColumns(got, all);
  std::set<std::string> exact_keys;
  for (size_t r = 0; r < all.NumRows(); ++r) {
    exact_keys.insert(RowKey(all, r, keys));
  }
  std::set<std::string> got_keys;
  for (size_t r = 0; r < got.result.NumRows(); ++r) {
    const std::string k = RowKey(got.result, r, keys);
    if (exact_keys.count(k) == 0) return "approximated answer invents a group";
    got_keys.insert(k);
    for (const auto& a : got.aggregates) {
      for (int c : {a.point_column, a.error_column}) {
        if (c < 0) continue;
        const Value v = got.result.Get(r, static_cast<size_t>(c));
        if (v.is_null() || !std::isfinite(v.AsDouble())) {
          return "non-finite value in column " +
                 got.result.names[static_cast<size_t>(c)];
        }
      }
    }
  }
  if (!exact.limited && got_keys.size() != exact_keys.size()) {
    return "approximated answer has " + std::to_string(got_keys.size()) +
           " of " + std::to_string(exact_keys.size()) + " groups";
  }
  return "";
}

void Accuracy::Add(const vdb::core::ApproxAnswer& got,
                   const ExactAnswer& exact) {
  const ResultSet& all = exact.all_groups;
  const std::vector<size_t> keys = KeyColumns(got, all);
  std::map<std::string, size_t> exact_rows;
  for (size_t r = 0; r < all.NumRows(); ++r) {
    exact_rows[RowKey(all, r, keys)] = r;
  }
  for (size_t r = 0; r < got.result.NumRows(); ++r) {
    auto it = exact_rows.find(RowKey(got.result, r, keys));
    if (it == exact_rows.end()) continue;
    for (const auto& a : got.aggregates) {
      if (a.error_column < 0) continue;
      const auto col = static_cast<size_t>(a.point_column);
      const double truth = all.GetDouble(it->second, col);
      if (std::abs(truth) < 1e-9) continue;
      const double est = got.result.GetDouble(r, col);
      const double half_width =
          got.result.GetDouble(r, static_cast<size_t>(a.error_column));
      rel_errors.push_back(std::abs(est - truth) / std::abs(truth));
      ++cells;
      if (std::abs(est - truth) <= half_width) ++covered;
    }
  }
}

}  // namespace perfbench
