#include "engine/aggregates.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "common/governor.h"
#include "common/hash.h"
#include "engine/agg_table.h"
#include "engine/hll.h"
#include "engine/kernels/kernels.h"

namespace vdb::engine {

std::string ValueGroupKey(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return std::string("\x00N", 2);
    case TypeId::kBool:
    case TypeId::kInt64:
      return "\x01" + std::to_string(v.AsInt());
    case TypeId::kDouble: {
      double d = v.AsDouble();
      // One key for every NaN: %.17g would print "nan" vs "-nan" by sign,
      // while the vectorized group-id path (engine/group_ids.cc) puts all
      // NaNs in one equivalence class — the two must agree or parallel
      // partial-aggregation merges diverge from serial grouping.
      if (std::isnan(d)) return std::string("\x02nan");
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        return "\x01" + std::to_string(static_cast<int64_t>(d));
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "\x02%.17g", d);
      return buf;
    }
    case TypeId::kString:
      return "\x03" + v.AsString();
  }
  return "?";
}

void AggAccumulator::AddBatch(const Column& col, const uint32_t* rows,
                              size_t n) {
  for (size_t i = 0; i < n; ++i) Add(col.Get(rows[i]));
}

void AggAccumulator::AddRepeated(const Value& v, size_t n) {
  for (size_t i = 0; i < n; ++i) Add(v);
}

void AggAccumulator::Merge(const AggAccumulator&) {
  // Only reachable through a bug: the parallel path checks Mergeable()
  // before partitioning work, and the default Mergeable() is false.
  // (UDAs that want parallel execution override Mergeable + Merge.)
  assert(false && "Merge called on a non-mergeable accumulator");
}

AggregateRegistry& AggregateRegistry::Global() {
  // Leaked singleton behind a const pointer: the pointer itself is immutable
  // (no unsynchronized static mutation) and the pointee serializes every map
  // touch on mu_.
  static AggregateRegistry* const r = new AggregateRegistry();
  return *r;
}

void AggregateRegistry::Register(const std::string& name, UdaFactory factory) {
  MutexLock lock(mu_);
  factories_[name] = std::move(factory);
}

bool AggregateRegistry::Has(const std::string& name) const {
  MutexLock lock(mu_);
  return factories_.count(name) > 0;
}

std::unique_ptr<AggAccumulator> AggregateRegistry::Create(
    const std::string& name) const {
  UdaFactory factory;
  {
    MutexLock lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) return nullptr;
    factory = it->second;
  }
  // Run the factory outside the lock: a UDA factory is user code and may
  // itself consult the registry.
  return factory();
}

namespace {

class CountAcc : public AggAccumulator {
 public:
  explicit CountAcc(bool star) : star_(star) {}
  void Add(const Value& v) override {
    if (star_ || !v.is_null()) ++count_;
  }
  void AddBatch(const Column& col, const uint32_t* rows, size_t n) override {
    if (star_) {
      count_ += static_cast<int64_t>(n);
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsNull(rows[i])) ++count_;
    }
  }
  void AddRepeated(const Value& v, size_t n) override {
    if (star_ || !v.is_null()) count_ += static_cast<int64_t>(n);
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    count_ += static_cast<const CountAcc&>(other).count_;
  }
  Value Finalize() const override { return Value::Int(count_); }

 private:
  bool star_;
  int64_t count_ = 0;
};

/// COUNT(DISTINCT x): a flat open-addressing set of Values under the group
/// equivalence — the same GroupTable, hash, and equality the group-id path
/// uses, with no per-value string keys. The collision test mask applies so
/// the differential fuzz exercises same-hash distinct values here too.
class DistinctCountAcc : public AggAccumulator {
 public:
  DistinctCountAcc() { table_.Reset(8); }
  void Add(const Value& v) override {
    if (v.is_null()) return;
    const uint64_t h = GroupValueHash(v) & GroupHashMaskForTest();
    bool inserted;
    table_.FindOrInsert(
        h, [&](uint32_t g) { return GroupValuesEqual(values_[g], v); },
        &inserted);
    if (inserted) values_.push_back(v);
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const DistinctCountAcc&>(other);
    for (const Value& v : o.values_) Add(v);
  }
  Value Finalize() const override {
    return Value::Int(static_cast<int64_t>(values_.size()));
  }

 private:
  GroupTable table_;
  std::vector<Value> values_;
};

/// Kahan–Babuška–Neumaier compensated accumulation: (sum, comp) carries the
/// running value plus the rounding error of every addition so far, so
/// per-morsel partials lose (essentially) nothing and the morsel-order merge
/// recovers the near-correctly-rounded total. The planner runs every
/// mergeable aggregation through the same fixed morsel decomposition at
/// every thread count, so serial and N-thread results are bit-identical by
/// construction; the compensation buys accuracy on top (downstream error
/// estimators divide by these sums).
inline void NeumaierAdd(double& sum, double& comp, double x) {
  const double t = sum + x;
  if (std::abs(sum) >= std::abs(x)) {
    comp += (sum - t) + x;  // vdb-lint: allow(raw-double-accumulate) this IS the Neumaier compensation
  } else {
    comp += (x - t) + sum;  // vdb-lint: allow(raw-double-accumulate) this IS the Neumaier compensation
  }
  sum = t;
}

class SumAcc : public AggAccumulator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    any_ = true;
    if (v.type() != TypeId::kInt64) all_int_ = false;
    NeumaierAdd(sum_, comp_, v.AsDouble());
  }
  void AddBatch(const Column& col, const uint32_t* rows, size_t n) override {
    switch (col.type()) {
      case TypeId::kInt64:
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(rows[i])) continue;
          any_ = true;
          NeumaierAdd(sum_, comp_, static_cast<double>(col.GetInt(rows[i])));
        }
        break;
      case TypeId::kDouble:
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(rows[i])) continue;
          any_ = true;
          all_int_ = false;
          NeumaierAdd(sum_, comp_, col.GetDouble(rows[i]));
        }
        break;
      default:
        AggAccumulator::AddBatch(col, rows, n);
    }
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Compensated merge: fold the partial's value and its error term.
    const auto& o = static_cast<const SumAcc&>(other);
    NeumaierAdd(sum_, comp_, o.sum_);
    NeumaierAdd(sum_, comp_, o.comp_);
    any_ = any_ || o.any_;
    all_int_ = all_int_ && o.all_int_;
  }
  Value Finalize() const override {
    if (!any_) return Value::Null();
    const double total = sum_ + comp_;
    if (all_int_) return Value::Int(static_cast<int64_t>(std::llround(total)));
    return Value::Double(total);
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;  // Neumaier error term
  bool any_ = false;
  bool all_int_ = true;
};

class AvgAcc : public AggAccumulator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    NeumaierAdd(sum_, comp_, v.AsDouble());
    ++n_;
  }
  void AddBatch(const Column& col, const uint32_t* rows, size_t n) override {
    // GetNumeric matches Value::AsDouble for every type (strings read 0).
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(rows[i])) continue;
      NeumaierAdd(sum_, comp_, col.GetNumeric(rows[i]));
      ++n_;
    }
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const AvgAcc&>(other);
    NeumaierAdd(sum_, comp_, o.sum_);
    NeumaierAdd(sum_, comp_, o.comp_);
    n_ += o.n_;
  }
  Value Finalize() const override {
    if (n_ == 0) return Value::Null();
    return Value::Double((sum_ + comp_) / static_cast<double>(n_));
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;  // Neumaier error term
  int64_t n_ = 0;
};

class MinMaxAcc : public AggAccumulator {
 public:
  explicit MinMaxAcc(bool is_min) : is_min_(is_min) {}
  void Add(const Value& v) override {
    if (v.is_null()) return;
    if (!any_) {
      best_ = v;
      any_ = true;
      return;
    }
    int c = v.Compare(best_);
    if ((is_min_ && c < 0) || (!is_min_ && c > 0)) best_ = v;
  }
  void AddBatch(const Column& col, const uint32_t* rows, size_t n) override {
    // Scan for the batch-local extremum in a typed loop, then merge it via
    // Add so cross-batch state keeps the row-at-a-time semantics. Strict
    // comparisons keep the first-seen value on ties and NaNs, like Compare.
    switch (col.type()) {
      case TypeId::kInt64: {
        bool found = false;
        int64_t best = 0;
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(rows[i])) continue;
          const int64_t x = col.GetInt(rows[i]);
          if (!found || (is_min_ ? x < best : x > best)) {
            best = x;
            found = true;
          }
        }
        if (found) Add(Value::Int(best));
        break;
      }
      case TypeId::kDouble: {
        bool found = false;
        double best = 0.0;
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(rows[i])) continue;
          const double x = col.GetDouble(rows[i]);
          if (!found || (is_min_ ? x < best : x > best)) {
            best = x;
            found = true;
          }
        }
        if (found) Add(Value::Double(best));
        break;
      }
      case TypeId::kString: {
        const std::string* best = nullptr;
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(rows[i])) continue;
          const std::string& x = col.GetString(rows[i]);
          if (best == nullptr ||
              (is_min_ ? x.compare(*best) < 0 : x.compare(*best) > 0)) {
            best = &x;
          }
        }
        if (best != nullptr) Add(Value::String(*best));
        break;
      }
      default:
        AggAccumulator::AddBatch(col, rows, n);
    }
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const MinMaxAcc&>(other);
    // Add keeps the first-seen value on ties; merging in morsel order keeps
    // that "first in row order" tie-break.
    if (o.any_) Add(o.best_);
  }
  Value Finalize() const override { return any_ ? best_ : Value::Null(); }

 private:
  bool is_min_;
  bool any_ = false;
  Value best_;
};

/// Welford online variance; finalizes to sample variance or stddev.
class VarAcc : public AggAccumulator {
 public:
  explicit VarAcc(bool stddev) : stddev_(stddev) {}
  void Add(const Value& v) override {
    if (v.is_null()) return;
    double x = v.AsDouble();
    ++n_;
    double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
  }
  void AddBatch(const Column& col, const uint32_t* rows, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(rows[i])) continue;
      const double x = col.GetNumeric(rows[i]);
      ++n_;
      const double d = x - mean_;
      mean_ += d / static_cast<double>(n_);
      m2_ += d * (x - mean_);
    }
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Chan et al.'s pairwise update of Welford state. Algebraically equal to
    // the sequential recurrence (rounding can differ in the last ulps); the
    // planner applies the same morsel decomposition and merge order at every
    // thread count, so var/stddev are bit-identical across 1..N threads.
    const auto& o = static_cast<const VarAcc&>(other);
    if (o.n_ == 0) return;
    if (n_ == 0) {
      n_ = o.n_;
      mean_ = o.mean_;
      m2_ = o.m2_;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    const double total = na + nb;
    m2_ += o.m2_ + delta * delta * (na * nb / total);
    mean_ += delta * (nb / total);
    n_ += o.n_;
  }
  Value Finalize() const override {
    if (n_ < 2) return Value::Null();
    double var = m2_ / static_cast<double>(n_ - 1);
    return Value::Double(stddev_ ? std::sqrt(var) : var);
  }

 private:
  bool stddev_;
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Exact quantile over collected values (sorting at finalize). This is the
/// engine's `quantile(x, p)` / `median(x)` / `approx_median(x)`; like
/// Redshift's percentile functions it needs all qualifying values (a full
/// scan when run over a base table).
class QuantileAcc : public AggAccumulator {
 public:
  explicit QuantileAcc(double p) : p_(p) {}
  void Add(const Value& v) override {
    if (!v.is_null()) xs_.push_back(v.AsDouble());
  }
  void AddBatch(const Column& col, const uint32_t* rows, size_t n) override {
    xs_.reserve(xs_.size() + n);
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsNull(rows[i])) xs_.push_back(col.GetNumeric(rows[i]));
    }
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Concatenating morsel partials in morsel order reassembles the exact
    // row-order value sequence, so the sorted quantile is bit-identical to
    // the serial computation.
    const auto& o = static_cast<const QuantileAcc&>(other);
    xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end());
  }
  Value Finalize() const override {
    if (xs_.empty()) return Value::Null();
    std::vector<double> sorted = xs_;
    std::sort(sorted.begin(), sorted.end());
    double idx = p_ * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return Value::Double(sorted[lo] * (1 - frac) + sorted[hi] * frac);
  }

 private:
  double p_;
  std::vector<double> xs_;
};

/// HyperLogLog-based approximate distinct count (Impala's ndv analogue).
class NdvAcc : public AggAccumulator {
 public:
  void Add(const Value& v) override {
    if (!v.is_null()) hll_.AddHash(HashValue(v));
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Register-wise max: exact regardless of insertion order.
    hll_.Merge(static_cast<const NdvAcc&>(other).hll_);
  }
  Value Finalize() const override {
    return Value::Int(static_cast<int64_t>(std::llround(hll_.Estimate())));
  }

 private:
  HyperLogLog hll_;
};

// ---------------------------------------------------- flat SoA accumulators
//
// One class per scatterable aggregate, each mirroring its object-path
// counterpart above value for value: the same per-row recurrence in the same
// row order, the same per-call batch semantics, the same merge algebra.
// Group state lives in typed lane arrays indexed by gid; AddScatter is one
// pass over a batch column, no per-group heap objects, no per-group
// selection vectors.

/// Column::Append's result for a run of n NULLs: untyped, every slot
/// masked (no column at all for n == 0).
Column AllNullColumn(size_t n) {
  if (n == 0) return Column();
  return Column::FromData(TypeId::kNull, {}, {}, {},
                          std::vector<uint8_t>(n, 1));
}

/// Column::Append's result for per-group values that are Double, or NULL
/// where is_null[g] != 0 (vals[g] then holds the 0.0 placeholder): untyped
/// while every value is NULL, otherwise Double with a mask only when some
/// value is NULL.
Column DoubleOrNullColumn(std::vector<double> vals,
                          std::vector<uint8_t> is_null, size_t num_null) {
  if (num_null == vals.size()) return AllNullColumn(vals.size());
  if (num_null == 0) is_null.clear();
  return Column::FromData(TypeId::kDouble, {}, std::move(vals), {},
                          std::move(is_null));
}

class FlatCountAgg : public FlatAggregator {
 public:
  explicit FlatCountAgg(bool star) : star_(star) {}
  void ResizeGroups(size_t n) override { counts_.resize(n, 0); }
  void AddScatter(const Column* col, size_t base, const uint32_t* gids,
                  size_t n) override {
    if (star_ || col == nullptr) {
      for (size_t k = 0; k < n; ++k) ++counts_[gids[k]];
      return;
    }
    for (size_t k = 0; k < n; ++k) {
      if (!col->IsNull(base + k)) ++counts_[gids[k]];
    }
  }
  void AddScatterSelected(const Column* col, size_t base, const uint32_t* rows,
                          const uint32_t* gids, size_t n) override {
    if (star_ || col == nullptr) {
      for (size_t k = 0; k < n; ++k) ++counts_[gids[k]];
      return;
    }
    for (size_t k = 0; k < n; ++k) {
      if (!col->IsNull(base + rows[k])) ++counts_[gids[k]];
    }
  }
  void MergePartial(const FlatAggregator& other, const uint32_t* dst,
                    size_t n, size_t num_groups) override {
    const auto& o = static_cast<const FlatCountAgg&>(other);
    // A first occurrence starts at 0, so adding is its verbatim copy.
    ResizeGroups(num_groups);
    for (size_t k = 0; k < n; ++k) counts_[dst[k]] += o.counts_[k];
  }
  Value FinalizeGroup(uint32_t g) const override {
    return Value::Int(counts_[g]);
  }
  Column FinalizeColumn() const override {
    if (counts_.empty()) return Column();
    return Column::FromData(TypeId::kInt64, counts_, {}, {}, {});
  }

 private:
  bool star_;
  std::vector<int64_t> counts_;
};

/// SUM via the scatter-sum kernel: per-gid (sum, comp) Neumaier lanes plus
/// the any-value and saw-non-Int64 flags SumAcc tracks.
class FlatSumAgg : public FlatAggregator {
 public:
  void ResizeGroups(size_t n) override {
    sums_.resize(n, 0.0);
    comps_.resize(n, 0.0);
    any_.resize(n, 0);
    nonint_.resize(n, 0);
  }
  void AddScatter(const Column* col, size_t base, const uint32_t* gids,
                  size_t n) override {
    Scatter(col, base, nullptr, gids, n);
  }
  void AddScatterSelected(const Column* col, size_t base, const uint32_t* rows,
                          const uint32_t* gids, size_t n) override {
    Scatter(col, base, rows, gids, n);
  }
  void MergePartial(const FlatAggregator& other, const uint32_t* dst,
                    size_t n, size_t num_groups) override {
    const auto& o = static_cast<const FlatSumAgg&>(other);
    const size_t first = sums_.size();
    ResizeGroups(num_groups);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst[k];
      if (d >= first) {
        sums_[d] = o.sums_[k];
        comps_[d] = o.comps_[k];
        any_[d] = o.any_[k];
        nonint_[d] = o.nonint_[k];
        continue;
      }
      NeumaierAdd(sums_[d], comps_[d], o.sums_[k]);
      NeumaierAdd(sums_[d], comps_[d], o.comps_[k]);
      any_[d] |= o.any_[k];
      nonint_[d] |= o.nonint_[k];
    }
  }
  Value FinalizeGroup(uint32_t g) const override {
    if (!any_[g]) return Value::Null();
    const double total = sums_[g] + comps_[g];
    if (!nonint_[g]) {
      return Value::Int(static_cast<int64_t>(std::llround(total)));
    }
    return Value::Double(total);
  }
  Column FinalizeColumn() const override {
    // Append keeps Int64 until the first Double, then promotes every
    // earlier integer sum to double; NULL slots hold 0 / 0.0.
    const size_t n = sums_.size();
    std::vector<uint8_t> is_null(n, 0);
    size_t num_null = 0;
    bool any_double = false;
    for (size_t g = 0; g < n; ++g) {
      if (!any_[g]) {
        is_null[g] = 1;
        ++num_null;
      } else if (nonint_[g]) {
        any_double = true;
      }
    }
    if (any_double) {
      std::vector<double> vals(n, 0.0);
      for (size_t g = 0; g < n; ++g) {
        if (!any_[g]) continue;
        const double total = sums_[g] + comps_[g];
        vals[g] = nonint_[g] ? total
                             : static_cast<double>(std::llround(total));
      }
      return DoubleOrNullColumn(std::move(vals), std::move(is_null),
                                num_null);
    }
    if (num_null == n) return AllNullColumn(n);
    std::vector<int64_t> vals(n, 0);
    for (size_t g = 0; g < n; ++g) {
      if (any_[g]) {
        vals[g] = static_cast<int64_t>(std::llround(sums_[g] + comps_[g]));
      }
    }
    if (num_null == 0) is_null.clear();
    return Column::FromData(TypeId::kInt64, std::move(vals), {}, {},
                            std::move(is_null));
  }

 private:
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) {
    const uint8_t* nulls = col->NullData();
    if (nulls != nullptr) nulls += base;
    switch (col->type()) {
      case TypeId::kInt64:
        kernels::Ops().scatter_sum_i64(col->IntData() + base, nulls, rows,
                                       gids, n, sums_.data(), comps_.data(),
                                       any_.data(), nullptr);
        return;
      case TypeId::kDouble: {
        kernels::Ops().scatter_sum_f64(col->DoubleData() + base, nulls, rows,
                                       gids, n, sums_.data(), comps_.data(),
                                       any_.data(), nullptr);
        // SumAcc flips all_int_ per non-null double it adds; mark the same
        // groups here (cheap second pass — the kernel carries one flag).
        for (size_t k = 0; k < n; ++k) {
          const size_t r = rows == nullptr ? k : rows[k];
          if (nulls == nullptr || nulls[r] == 0) nonint_[gids[k]] = 1;
        }
        return;
      }
      default:
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          const Value v = col->Get(r);
          if (v.is_null()) continue;
          const uint32_t g = gids[k];
          any_[g] = 1;
          if (v.type() != TypeId::kInt64) nonint_[g] = 1;
          NeumaierAdd(sums_[g], comps_[g], v.AsDouble());
        }
    }
  }

  std::vector<double> sums_;
  std::vector<double> comps_;
  std::vector<uint8_t> any_;
  std::vector<uint8_t> nonint_;  // saw a non-Int64 value (inverse of all_int_)
};

/// AVG: Neumaier (sum, comp) lanes plus the non-null count. AvgAcc adds
/// GetNumeric for every column type; Int64/Bool lanes hit the i64 kernel
/// (static_cast<double> of the raw storage — the same value GetNumeric
/// reads), Double lanes the f64 kernel, everything else the generic loop.
class FlatAvgAgg : public FlatAggregator {
 public:
  void ResizeGroups(size_t n) override {
    sums_.resize(n, 0.0);
    comps_.resize(n, 0.0);
    ns_.resize(n, 0);
  }
  void AddScatter(const Column* col, size_t base, const uint32_t* gids,
                  size_t n) override {
    Scatter(col, base, nullptr, gids, n);
  }
  void AddScatterSelected(const Column* col, size_t base, const uint32_t* rows,
                          const uint32_t* gids, size_t n) override {
    Scatter(col, base, rows, gids, n);
  }
  void MergePartial(const FlatAggregator& other, const uint32_t* dst,
                    size_t n, size_t num_groups) override {
    const auto& o = static_cast<const FlatAvgAgg&>(other);
    const size_t first = sums_.size();
    ResizeGroups(num_groups);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst[k];
      if (d >= first) {
        sums_[d] = o.sums_[k];
        comps_[d] = o.comps_[k];
        ns_[d] = o.ns_[k];
        continue;
      }
      NeumaierAdd(sums_[d], comps_[d], o.sums_[k]);
      NeumaierAdd(sums_[d], comps_[d], o.comps_[k]);
      ns_[d] += o.ns_[k];
    }
  }
  Value FinalizeGroup(uint32_t g) const override {
    if (ns_[g] == 0) return Value::Null();
    return Value::Double((sums_[g] + comps_[g]) / static_cast<double>(ns_[g]));
  }
  Column FinalizeColumn() const override {
    const size_t n = ns_.size();
    std::vector<double> vals(n, 0.0);
    std::vector<uint8_t> is_null(n, 0);
    size_t num_null = 0;
    for (size_t g = 0; g < n; ++g) {
      if (ns_[g] == 0) {
        is_null[g] = 1;
        ++num_null;
        continue;
      }
      vals[g] = (sums_[g] + comps_[g]) / static_cast<double>(ns_[g]);
    }
    return DoubleOrNullColumn(std::move(vals), std::move(is_null), num_null);
  }

 private:
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) {
    const uint8_t* nulls = col->NullData();
    if (nulls != nullptr) nulls += base;
    switch (col->type()) {
      case TypeId::kBool:
      case TypeId::kInt64:
        kernels::Ops().scatter_sum_i64(col->IntData() + base, nulls, rows,
                                       gids, n, sums_.data(), comps_.data(),
                                       nullptr, ns_.data());
        return;
      case TypeId::kDouble:
        kernels::Ops().scatter_sum_f64(col->DoubleData() + base, nulls, rows,
                                       gids, n, sums_.data(), comps_.data(),
                                       nullptr, ns_.data());
        return;
      default:
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          const uint32_t g = gids[k];
          NeumaierAdd(sums_[g], comps_[g], col->GetNumeric(r));
          ++ns_[g];
        }
    }
  }

  std::vector<double> sums_;
  std::vector<double> comps_;
  std::vector<int64_t> ns_;
};

/// MIN/MAX. One AddScatter call is one reference AddBatch: each touched
/// group's batch-local extremum is found with the same strict typed
/// comparisons MinMaxAcc::AddBatch uses, then folded ONCE through the Add
/// recurrence — NOT folded row by row, which would diverge on NaNs
/// (Value::Compare buckets NaN as equal, so a NaN-then-smaller batch keeps
/// the pre-batch best under batch semantics but takes the smaller value
/// under row folding). Epoch-stamped scratch lanes avoid re-clearing
/// per-group state on every call.
class FlatMinMaxAgg : public FlatAggregator {
 public:
  explicit FlatMinMaxAgg(bool is_min) : is_min_(is_min) {}
  void ResizeGroups(size_t n) override {
    best_.resize(n);
    any_.resize(n, 0);
    epoch_.resize(n, 0);
  }
  void AddScatter(const Column* col, size_t base, const uint32_t* gids,
                  size_t n) override {
    Scatter(col, base, nullptr, gids, n);
  }
  void AddScatterSelected(const Column* col, size_t base, const uint32_t* rows,
                          const uint32_t* gids, size_t n) override {
    Scatter(col, base, rows, gids, n);
  }
  void MergePartial(const FlatAggregator& other, const uint32_t* dst,
                    size_t n, size_t num_groups) override {
    const auto& o = static_cast<const FlatMinMaxAgg&>(other);
    const size_t first = best_.size();
    ResizeGroups(num_groups);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst[k];
      if (d >= first) {
        best_[d] = o.best_[k];
        any_[d] = o.any_[k];
      } else if (o.any_[k]) {
        Fold(d, o.best_[k]);
      }
    }
  }
  Value FinalizeGroup(uint32_t g) const override {
    return any_[g] ? best_[g] : Value::Null();
  }
  Column FinalizeColumn() const override {
    // The extrema are stored as Values already (any type, including mixed
    // ones from per-morsel argument types), so Append is the typed path.
    Column out;
    for (size_t g = 0; g < best_.size(); ++g) {
      out.Append(any_[g] ? best_[g] : Value::Null());
    }
    return out;
  }

 private:
  /// MinMaxAcc::Add's exact recurrence (first-seen kept on ties and NaNs).
  void Fold(uint32_t g, const Value& v) {
    if (!any_[g]) {
      best_[g] = v;
      any_[g] = 1;
      return;
    }
    const int c = v.Compare(best_[g]);
    if ((is_min_ && c < 0) || (!is_min_ && c > 0)) best_[g] = v;
  }

  /// First touch of group g this call; stamps it and queues the fold.
  bool Touch(uint32_t g) {
    if (epoch_[g] == cur_epoch_) return false;
    epoch_[g] = cur_epoch_;
    touched_.push_back(g);
    return true;
  }

  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) {
    ++cur_epoch_;
    touched_.clear();
    switch (col->type()) {
      case TypeId::kInt64: {
        if (batch_i64_.size() < best_.size()) batch_i64_.resize(best_.size());
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          const int64_t x = col->GetInt(r);
          const uint32_t g = gids[k];
          if (Touch(g) || (is_min_ ? x < batch_i64_[g] : x > batch_i64_[g])) {
            batch_i64_[g] = x;
          }
        }
        for (uint32_t g : touched_) Fold(g, Value::Int(batch_i64_[g]));
        return;
      }
      case TypeId::kDouble: {
        if (batch_f64_.size() < best_.size()) batch_f64_.resize(best_.size());
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          const double x = col->GetDouble(r);
          const uint32_t g = gids[k];
          if (Touch(g) || (is_min_ ? x < batch_f64_[g] : x > batch_f64_[g])) {
            batch_f64_[g] = x;
          }
        }
        for (uint32_t g : touched_) Fold(g, Value::Double(batch_f64_[g]));
        return;
      }
      case TypeId::kString: {
        if (batch_str_.size() < best_.size()) batch_str_.resize(best_.size());
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          const std::string& x = col->GetString(r);
          const uint32_t g = gids[k];
          if (Touch(g) || (is_min_ ? x.compare(*batch_str_[g]) < 0
                                   : x.compare(*batch_str_[g]) > 0)) {
            batch_str_[g] = &x;
          }
        }
        for (uint32_t g : touched_) Fold(g, Value::String(*batch_str_[g]));
        return;
      }
      default:
        // MinMaxAcc::AddBatch falls back to row-at-a-time Add here; so do we.
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          const Value v = col->Get(r);
          if (!v.is_null()) Fold(gids[k], v);
        }
    }
  }

  bool is_min_;
  std::vector<Value> best_;
  std::vector<uint8_t> any_;
  // Per-call scratch: epoch stamp + batch-local extremum lanes.
  std::vector<uint64_t> epoch_;
  uint64_t cur_epoch_ = 0;
  std::vector<uint32_t> touched_;
  std::vector<int64_t> batch_i64_;
  std::vector<double> batch_f64_;
  std::vector<const std::string*> batch_str_;
};

/// VAR/STDDEV: Welford (n, mean, m2) lanes, Chan pairwise merge — the exact
/// recurrences of VarAcc in the same row order.
class FlatVarAgg : public FlatAggregator {
 public:
  explicit FlatVarAgg(bool stddev) : stddev_(stddev) {}
  void ResizeGroups(size_t n) override {
    ns_.resize(n, 0);
    means_.resize(n, 0.0);
    m2s_.resize(n, 0.0);
  }
  void AddScatter(const Column* col, size_t base, const uint32_t* gids,
                  size_t n) override {
    Scatter(col, base, nullptr, gids, n);
  }
  void AddScatterSelected(const Column* col, size_t base, const uint32_t* rows,
                          const uint32_t* gids, size_t n) override {
    Scatter(col, base, rows, gids, n);
  }
  void MergePartial(const FlatAggregator& other, const uint32_t* dst,
                    size_t n, size_t num_groups) override {
    const auto& o = static_cast<const FlatVarAgg&>(other);
    const size_t first = ns_.size();
    ResizeGroups(num_groups);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst[k];
      if (d < first && o.ns_[k] == 0) continue;
      // VarAcc::Merge: an empty side takes the other's state verbatim.
      if (d >= first || ns_[d] == 0) {
        ns_[d] = o.ns_[k];
        means_[d] = o.means_[k];
        m2s_[d] = o.m2s_[k];
        continue;
      }
      const double na = static_cast<double>(ns_[d]);
      const double nb = static_cast<double>(o.ns_[k]);
      const double delta = o.means_[k] - means_[d];
      const double total = na + nb;
      m2s_[d] += o.m2s_[k] + delta * delta * (na * nb / total);
      means_[d] += delta * (nb / total);
      ns_[d] += o.ns_[k];
    }
  }
  Value FinalizeGroup(uint32_t g) const override {
    if (ns_[g] < 2) return Value::Null();
    const double var = m2s_[g] / static_cast<double>(ns_[g] - 1);
    return Value::Double(stddev_ ? std::sqrt(var) : var);
  }
  Column FinalizeColumn() const override {
    const size_t n = ns_.size();
    std::vector<double> vals(n, 0.0);
    std::vector<uint8_t> is_null(n, 0);
    size_t num_null = 0;
    for (size_t g = 0; g < n; ++g) {
      if (ns_[g] < 2) {
        is_null[g] = 1;
        ++num_null;
        continue;
      }
      const double var = m2s_[g] / static_cast<double>(ns_[g] - 1);
      vals[g] = stddev_ ? std::sqrt(var) : var;
    }
    return DoubleOrNullColumn(std::move(vals), std::move(is_null), num_null);
  }

 private:
  void Welford(uint32_t g, double x) {
    ++ns_[g];
    const double d = x - means_[g];
    means_[g] += d / static_cast<double>(ns_[g]);
    m2s_[g] += d * (x - means_[g]);
  }
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) {
    // VarAcc::AddBatch reads GetNumeric per row for every type; the typed
    // lanes below read the raw storage, which is the same value.
    const uint8_t* nulls = col->NullData();
    if (nulls != nullptr) nulls += base;
    switch (col->type()) {
      case TypeId::kBool:
      case TypeId::kInt64: {
        const int64_t* data = col->IntData() + base;
        for (size_t k = 0; k < n; ++k) {
          const size_t r = rows == nullptr ? k : rows[k];
          if (nulls != nullptr && nulls[r] != 0) continue;
          Welford(gids[k], static_cast<double>(data[r]));
        }
        return;
      }
      case TypeId::kDouble: {
        const double* data = col->DoubleData() + base;
        for (size_t k = 0; k < n; ++k) {
          const size_t r = rows == nullptr ? k : rows[k];
          if (nulls != nullptr && nulls[r] != 0) continue;
          Welford(gids[k], data[r]);
        }
        return;
      }
      default:
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          Welford(gids[k], col->GetNumeric(r));
        }
    }
  }

  bool stddev_;
  std::vector<int64_t> ns_;
  std::vector<double> means_;
  std::vector<double> m2s_;
};

/// COUNT(DISTINCT x): the set of distinct non-NULL (x, gid) pairs, kept as a
/// GroupMergeTable keyed on [x, gid]. The table's typed lanes and lossy-type
/// segments give the pairs ValueGroupKey equivalence (5 == 5.0, NaN == NaN,
/// -0.0 == 0.0), as DistinctCountAcc's Value set has per group; counts_[g]
/// is the number of pairs with gid g.
///
/// A scatter call builds its batch's distinct pairs through the group-id
/// path (AssignGroupIdsBased over x and a gid column, so small integer
/// domains take the dense arm) and folds them in; the first batch is
/// adopted. MergePartial maps each of a partial's pairs to its global gid,
/// re-mixes the pair hash from the stored hash of x alone —
/// MixGroupHash(hash(x), HashMix64(gid)) is the hash AssignGroupIds gives
/// the pair — and folds the pairs in order. The pairs are charged to the
/// guard at site "agg_distinct_pairs", the pair table's slot arrays at
/// "agg_group_grow".
class FlatDistinctCountAgg : public FlatAggregator {
 public:
  FlatDistinctCountAgg() = default;
  FlatDistinctCountAgg(const FlatDistinctCountAgg&) = delete;
  FlatDistinctCountAgg& operator=(const FlatDistinctCountAgg&) = delete;
  ~FlatDistinctCountAgg() override { GuardRelease(guard_, charged_bytes_); }

  void set_guard(const ExecGuard* guard) override {
    guard_ = guard;
    governed_ = true;
    pairs_.set_guard(guard);
  }
  Status status() const override {
    return status_.ok() ? pairs_.guard_status() : status_;
  }
  void ResizeGroups(size_t n) override { counts_.resize(n, 0); }
  void AddScatter(const Column* col, size_t base, const uint32_t* gids,
                  size_t n) override {
    Scatter(*col, base, nullptr, gids, n);
  }
  void AddScatterSelected(const Column* col, size_t base, const uint32_t* rows,
                          const uint32_t* gids, size_t n) override {
    Scatter(*col, base, rows, gids, n);
  }
  void MergePartial(const FlatAggregator& other, const uint32_t* dst,
                    size_t /*n*/, size_t num_groups) override {
    const auto& o = static_cast<const FlatDistinctCountAgg&>(other);
    ResizeGroups(num_groups);
    const uint64_t mask = GroupHashMaskForTest();
    o.pairs_.ForEachExactRun(
        [&](uint32_t first, const std::vector<Column>& keys) {
          const size_t m = keys[1].size();
          const int64_t* local = keys[1].IntData();
          const uint64_t* value_hashes = o.value_hashes_.data() + first;
          std::vector<int64_t> gids(m);
          std::vector<uint64_t> hashes(m);
          for (size_t k = 0; k < m; ++k) {
            const uint32_t g = dst[local[k]];
            gids[k] = g;
            hashes[k] = MixGroupHash(value_hashes[k], HashMix64(g)) & mask;
          }
          std::vector<Column> pair_keys(2);
          pair_keys[0] = keys[0];
          pair_keys[1] = Column::FromData(TypeId::kInt64, std::move(gids), {},
                                          {}, {});
          Fold(std::move(pair_keys), std::move(hashes), value_hashes);
        });
  }
  Value FinalizeGroup(uint32_t g) const override {
    return Value::Int(counts_[g]);
  }
  Column FinalizeColumn() const override {
    if (counts_.empty()) return Column();
    return Column::FromData(TypeId::kInt64, counts_, {}, {}, {});
  }

 private:
  /// Budget per pair: its x and gid key cells, pair hash and x hash.
  static constexpr uint64_t kPairBytes = 32;

  /// The distinct pairs of x over rows base + (rows ? rows[k] : k) with gid
  /// gids[k], folded into the set.
  void Scatter(const Column& col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) {
    if (!status().ok() || n == 0 || col.type() == TypeId::kNull) return;
    const uint8_t* nulls = col.NullData();
    KeyCol x{&col, base};
    Column compact;
    std::vector<int64_t> gid_lane;
    if (rows == nullptr && nulls == nullptr) {
      gid_lane.assign(gids, gids + n);
    } else {
      // Compact the selected non-NULL rows: NULLs form no pair, and a
      // NULL-free x lane can take the dense arm.
      std::vector<uint32_t> keep;
      keep.reserve(n);
      gid_lane.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        const uint32_t r = rows == nullptr ? static_cast<uint32_t>(k) : rows[k];
        if (nulls != nullptr && nulls[base + r] != 0) continue;
        keep.push_back(r);
        gid_lane.push_back(gids[k]);
      }
      compact.AppendSelectedValues(col, base, keep.data(), keep.size());
      x = KeyCol{&compact, 0};
    }
    const size_t m = gid_lane.size();
    if (m == 0) return;
    const Column gid_col =
        Column::FromData(TypeId::kInt64, std::move(gid_lane), {}, {}, {});
    GroupAssignment ga = AssignGroupIdsBased({x, KeyCol{&gid_col, 0}}, m);
    const size_t pairs = ga.num_groups();
    std::vector<Column> keys(2);
    keys[0].AppendSelectedValues(*x.col, x.base, ga.rep_row.data(), pairs);
    keys[1].AppendSelectedValues(gid_col, 0, ga.rep_row.data(), pairs);
    std::vector<uint64_t> value_hashes(pairs, kGroupHashSeed);
    HashGroupColumnRange(keys[0], 0, pairs, value_hashes.data());
    Fold(std::move(keys), std::move(ga.group_hash), value_hashes.data());
  }

  /// Adds distinct pairs — keys [x, gid], their (masked) pair hashes and
  /// unmasked x hashes — to the set; each pair new to the set counts once
  /// for its gid. The first non-empty batch is adopted without a probe.
  void Fold(std::vector<Column> keys, std::vector<uint64_t> hashes,
            const uint64_t* value_hashes) {
    const size_t m = hashes.size();
    if (m == 0 || !status().ok()) return;
    const int64_t* gids = keys[1].IntData();
    if (!adopted_) {
      if (!Charge(m)) return;
      for (size_t k = 0; k < m; ++k) ++counts_[static_cast<size_t>(gids[k])];
      value_hashes_.assign(value_hashes, value_hashes + m);
      pairs_.Adopt(std::move(keys), std::move(hashes), m);
      adopted_ = true;
      return;
    }
    const size_t before = pairs_.num_groups();
    pairs_.Merge(keys, hashes, &pair_ids_);
    if (!pairs_.guard_status().ok() || !Charge(pairs_.num_groups() - before)) {
      return;
    }
    for (size_t k = 0; k < m; ++k) {
      if (pair_ids_[k] < before) continue;
      ++counts_[static_cast<size_t>(gids[k])];
      value_hashes_.push_back(value_hashes[k]);
    }
  }

  /// Charges `pairs` new pairs; false (latched in status_) on a trip.
  bool Charge(size_t pairs) {
    if (!governed_ || pairs == 0) return true;
    const uint64_t bytes = static_cast<uint64_t>(pairs) * kPairBytes;
    Status st = GuardTryReserve(guard_, bytes, "agg_distinct_pairs");
    if (!st.ok()) {
      status_ = std::move(st);
      return false;
    }
    if (guard_ != nullptr) charged_bytes_ += bytes;
    return true;
  }

  std::vector<int64_t> counts_;
  GroupMergeTable pairs_;               // keys [x, gid]
  bool adopted_ = false;                // pairs_ holds a batch
  std::vector<uint64_t> value_hashes_;  // per pair: x's hash, unmasked
  std::vector<uint32_t> pair_ids_;      // scratch: a fold's pair ids
  const ExecGuard* guard_ = nullptr;
  bool governed_ = false;               // set_guard called
  uint64_t charged_bytes_ = 0;          // released on destruction
  Status status_ = Status::Ok();        // first pair-charge failure
};

}  // namespace

Result<std::unique_ptr<AggAccumulator>> CreateAccumulator(const AggSpec& s) {
  if (s.distinct && s.name != "count" && s.name != "min" && s.name != "max") {
    return Status::Unsupported(
        s.name + "(distinct ...) is not supported; DISTINCT applies to "
                 "count, min and max only");
  }
  if (s.distinct && s.arg == nullptr) {
    return Status::Unsupported("count(distinct *) is not valid");
  }
  if (s.name == "count") {
    if (s.distinct) return std::unique_ptr<AggAccumulator>(new DistinctCountAcc());
    return std::unique_ptr<AggAccumulator>(new CountAcc(s.arg == nullptr));
  }
  if (s.name == "sum") return std::unique_ptr<AggAccumulator>(new SumAcc());
  if (s.name == "avg") return std::unique_ptr<AggAccumulator>(new AvgAcc());
  if (s.name == "min") return std::unique_ptr<AggAccumulator>(new MinMaxAcc(true));
  if (s.name == "max") return std::unique_ptr<AggAccumulator>(new MinMaxAcc(false));
  if (s.name == "var" || s.name == "var_samp" || s.name == "variance") {
    return std::unique_ptr<AggAccumulator>(new VarAcc(false));
  }
  if (s.name == "stddev" || s.name == "stddev_samp") {
    return std::unique_ptr<AggAccumulator>(new VarAcc(true));
  }
  if (s.name == "quantile" || s.name == "percentile") {
    return std::unique_ptr<AggAccumulator>(new QuantileAcc(s.param));
  }
  if (s.name == "median" || s.name == "approx_median") {
    return std::unique_ptr<AggAccumulator>(new QuantileAcc(0.5));
  }
  if (s.name == "ndv" || s.name == "approx_distinct" ||
      s.name == "approx_count_distinct") {
    return std::unique_ptr<AggAccumulator>(new NdvAcc());
  }
  auto uda = AggregateRegistry::Global().Create(s.name);
  if (uda) return uda;
  return Status::Unsupported("unknown aggregate: " + s.name);
}

std::unique_ptr<FlatAggregator> CreateFlatAggregator(const AggSpec& s) {
  if (s.distinct && s.name == "count") {
    // count(distinct *) has no flat form; CreateAccumulator rejects it.
    if (s.arg == nullptr) return nullptr;
    return std::make_unique<FlatDistinctCountAgg>();
  }
  // min/max(distinct x) is min/max(x); CreateAccumulator rejects the rest.
  if (s.distinct && s.name != "min" && s.name != "max") return nullptr;
  if (s.name == "count") {
    return std::make_unique<FlatCountAgg>(s.arg == nullptr);
  }
  if (s.name == "sum") return std::make_unique<FlatSumAgg>();
  if (s.name == "avg") return std::make_unique<FlatAvgAgg>();
  if (s.name == "min") return std::make_unique<FlatMinMaxAgg>(true);
  if (s.name == "max") return std::make_unique<FlatMinMaxAgg>(false);
  if (s.name == "var" || s.name == "var_samp" || s.name == "variance") {
    return std::make_unique<FlatVarAgg>(false);
  }
  if (s.name == "stddev" || s.name == "stddev_samp") {
    return std::make_unique<FlatVarAgg>(true);
  }
  // quantile/median (sorted-vector), ndv/HLL, and UDAs are not scatterable.
  return nullptr;
}

}  // namespace vdb::engine
