#include "engine/functions.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "engine/aggregates.h"

namespace vdb::engine {

bool IsAggregateFunction(const std::string& name) {
  if (AggregateRegistry::Global().Has(name)) return true;
  static const char* kAggs[] = {
      "count", "sum",    "avg",       "min",          "max",
      "var",   "var_samp", "variance", "stddev",      "stddev_samp",
      "quantile", "median", "approx_median", "percentile", "ndv",
      "approx_distinct", "approx_count_distinct",
  };
  for (const char* a : kAggs) {
    if (name == a) return true;
  }
  return false;
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer wildcard matcher (% = any run, _ = any char).
  size_t t = 0, p = 0, star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

Status Arity(const std::string& name, const std::vector<Value>& args,
             size_t lo, size_t hi) {
  if (args.size() < lo || args.size() > hi) {
    return Status::InvalidArgument("wrong argument count for " + name);
  }
  return Status::Ok();
}

bool AnyNull(const std::vector<Value>& args) {
  for (const auto& a : args) {
    if (a.is_null()) return true;
  }
  return false;
}

}  // namespace

Result<Value> CallScalarFunction(const std::string& name,
                                 const std::vector<Value>& args,
                                 const RandAddr& rand_addr) {
  // rand-family first: no args, no null handling. Row-addressed: the value
  // depends only on (query seed, row id, call site), so the row interpreter
  // and the batch kernels in vector_eval.cc agree bit for bit.
  if (name == "rand" || name == "random") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 0, 0));
    return Value::Double(RandAt(rand_addr));
  }
  if (name == "rand_poisson") {
    // Poisson(1) draw; used by SQL formulations of consolidated bootstrap
    // (each tuple's multiplicity within one resample).
    VDB_RETURN_IF_ERROR(Arity(name, args, 0, 0));
    return Value::Int(PoissonOneFromUniform(RandAt(rand_addr)));
  }
  if (name == "coalesce") {
    for (const auto& a : args) {
      if (!a.is_null()) return a;
    }
    return Value::Null();
  }
  if (name == "if") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 3, 3));
    return (!args[0].is_null() && args[0].AsBool()) ? args[1] : args[2];
  }
  if (name == "nullif") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    if (!args[0].is_null() && !args[1].is_null() && args[0].Equals(args[1])) {
      return Value::Null();
    }
    return args[0];
  }
  // Remaining builtins: NULL in -> NULL out.
  if (AnyNull(args)) return Value::Null();

  if (name == "floor") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Int(DoubleToInt64(std::floor(args[0].AsDouble())));
  }
  if (name == "ceil" || name == "ceiling") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Int(DoubleToInt64(std::ceil(args[0].AsDouble())));
  }
  if (name == "abs") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    if (args[0].type() == TypeId::kInt64) {
      // Unsigned negation: defined wrap on INT64_MIN (abs(INT64_MIN) ==
      // INT64_MIN), matching NegateValue and the arithmetic kernels.
      const int64_t x = args[0].AsInt();
      return Value::Int(
          x < 0 ? static_cast<int64_t>(0ull - static_cast<uint64_t>(x)) : x);
    }
    return Value::Double(std::abs(args[0].AsDouble()));
  }
  if (name == "sqrt") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Double(std::sqrt(args[0].AsDouble()));
  }
  if (name == "exp") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Double(std::exp(args[0].AsDouble()));
  }
  if (name == "ln" || name == "log") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Double(std::log(args[0].AsDouble()));
  }
  if (name == "power" || name == "pow") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return Value::Double(std::pow(args[0].AsDouble(), args[1].AsDouble()));
  }
  if (name == "mod") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    int64_t d = args[1].AsInt();
    if (d == 0) return Value::Null();
    return Value::Int(Int64Mod(args[0].AsInt(), d));
  }
  if (name == "round") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 2));
    double x = args[0].AsDouble();
    if (args.size() == 2) {
      double scale = std::pow(10.0, args[1].AsDouble());
      return Value::Double(std::round(x * scale) / scale);
    }
    return Value::Int(static_cast<int64_t>(std::llround(x)));
  }
  if (name == "sign") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    double x = args[0].AsDouble();
    return Value::Int(x > 0 ? 1 : (x < 0 ? -1 : 0));
  }
  if (name == "greatest") {
    Value best = args[0];
    for (const auto& a : args) {
      if (a.Compare(best) > 0) best = a;
    }
    return best;
  }
  if (name == "least") {
    Value best = args[0];
    for (const auto& a : args) {
      if (a.Compare(best) < 0) best = a;
    }
    return best;
  }
  // Uniform hash to [0, 1): the paper's "hash function (e.g., md5, crc32)"
  // requirement for universe samples.
  if (name == "verdict_hash" || name == "unit_hash") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Double(HashUnit(args[0]));
  }
  if (name == "crc32") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Int(Crc32(args[0].ToString()));
  }
  if (name == "hash64") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Int(static_cast<int64_t>(HashValue(args[0]) >> 1));
  }
  if (name == "length") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Int(static_cast<int64_t>(args[0].ToString().size()));
  }
  if (name == "upper") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    std::string s = args[0].ToString();
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return Value::String(std::move(s));
  }
  if (name == "lower") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    std::string s = args[0].ToString();
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return Value::String(std::move(s));
  }
  if (name == "substr" || name == "substring") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 2, 3));
    std::string s = args[0].ToString();
    int64_t start = args[1].AsInt();  // 1-based
    if (start < 1) start = 1;
    if (static_cast<size_t>(start) > s.size()) return Value::String("");
    size_t from = static_cast<size_t>(start - 1);
    size_t len = args.size() == 3
                     ? static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()))
                     : std::string::npos;
    return Value::String(s.substr(from, len));
  }
  if (name == "concat") {
    std::string out;
    for (const auto& a : args) out += a.ToString();
    return Value::String(std::move(out));
  }
  if (name == "year") {
    // Dates are stored as yyyymmdd integers throughout the workloads.
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Int(args[0].AsInt() / 10000);
  }
  if (name == "month") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Int((args[0].AsInt() / 100) % 100);
  }
  if (name == "cast_double" || name == "to_double") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Double(args[0].AsDouble());
  }
  if (name == "cast_int" || name == "to_int") {
    VDB_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Value::Int(args[0].AsInt());
  }
  return Status::Unsupported("unknown function: " + name);
}

}  // namespace vdb::engine
