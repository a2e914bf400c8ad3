// Aggregate function accumulators and the UDA (user-defined aggregate)
// registry. VerdictDB supports any UDA that converges to a non-degenerate
// distribution (paper §2.2); UDAs registered here are usable both in plain
// engine queries and in VerdictDB-rewritten queries.

#ifndef VDB_ENGINE_AGGREGATES_H_
#define VDB_ENGINE_AGGREGATES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "engine/column.h"
#include "sql/ast.h"

namespace vdb {
class ExecGuard;
}  // namespace vdb

namespace vdb::engine {

/// One aggregate call extracted from a query.
struct AggSpec {
  std::string name;                 // lowercase function name
  bool distinct = false;            // agg(distinct x)
  const sql::Expr* arg = nullptr;   // null for count(*)
  double param = 0.5;               // quantile fraction (2nd argument)
};

/// Streaming accumulator for one aggregate within one group.
class AggAccumulator {
 public:
  virtual ~AggAccumulator() = default;
  /// Adds one input value. count(*) receives Value::Int(1) per row.
  virtual void Add(const Value& v) = 0;
  /// Adds rows `rows[0..n)` of a materialized argument column (the
  /// vectorized executor's selection-vector interface). The default loops
  /// over Add; builtin numeric accumulators override with typed kernels.
  virtual void AddBatch(const Column& col, const uint32_t* rows, size_t n);
  /// Adds the same value n times (count(*) over a group of n rows).
  virtual void AddRepeated(const Value& v, size_t n);
  /// True if this accumulator supports Merge. The morsel-driven parallel
  /// aggregation path requires every accumulator of a query to be mergeable;
  /// otherwise the planner keeps the serial path. UDAs default to false.
  virtual bool Mergeable() const { return false; }
  /// Folds a partial state into this one. `other` must be the same concrete
  /// accumulator type, and both Mergeable(). The planner aggregates every
  /// mergeable query through per-morsel partials merged strictly in morsel
  /// order — the same decomposition at every thread count — so results are
  /// bit-identical between serial and N-thread runs. Floating-point partials
  /// (sum/avg) carry Neumaier compensation so the morsel split costs no
  /// accuracy either.
  virtual void Merge(const AggAccumulator& other);
  virtual Value Finalize() const = 0;
};

/// SoA (structure-of-arrays) aggregate state: typed lane arrays indexed by
/// group id instead of one heap accumulator object per group, fed
/// column-at-a-time by the flat aggregation sink. Each implementation
/// mirrors its AggAccumulator counterpart's arithmetic exactly — same
/// per-value recurrence, same per-call batch semantics, same merge algebra —
/// so flat and per-group results are bit-identical (the object path stays
/// the semantic reference, pinned by the FlatAggTest differential fuzz).
class FlatAggregator {
 public:
  virtual ~FlatAggregator() = default;
  /// Grows state to `n` groups (never shrinks). New groups start empty.
  virtual void ResizeGroups(size_t n) = 0;
  /// Accumulates col[base + k] into group gids[k] for k in [0, n), in k
  /// order. `col` is nullptr for count(*). `base` is the row offset of batch
  /// position 0 — nonzero when the flat sink feeds a table column directly
  /// at the morsel's start row instead of slicing it (the zero-copy
  /// direct-column path). One call is one batch: aggregates with per-batch
  /// semantics (min/max's batch-local extremum fold) treat the whole call as
  /// the reference's AddBatch.
  virtual void AddScatter(const Column* col, size_t base, const uint32_t* gids,
                          size_t n) = 0;
  /// Bitmap-selected form: accumulates col[base + rows[k]] into gids[k].
  /// `rows` ascends, so selective GROUP BYs skip mask expansion without
  /// changing accumulation order.
  virtual void AddScatterSelected(const Column* col, size_t base,
                                  const uint32_t* rows, const uint32_t* gids,
                                  size_t n) = 0;
  /// Folds a morsel partial into this state, one call per partial: group k
  /// of `other` goes to group dst[k]. Groups at or past the current count
  /// are first occurrences: the state grows to `num_groups` and they take
  /// other's group state verbatim — the mirror of the reference merge
  /// MOVING a first-occurrence partial into the global slot (merging into an
  /// empty group would re-round compensated sums). The rest merge — the SoA
  /// mirror of AggAccumulator::Merge. `other` is the same concrete type, and
  /// each dst gid appears at most once. Merging partials strictly in morsel
  /// order keeps results bit-identical across thread counts, exactly like
  /// the object path.
  virtual void MergePartial(const FlatAggregator& other, const uint32_t* dst,
                            size_t n, size_t num_groups) = 0;
  /// Governs the aggregator's own row-proportional state under the
  /// statement's guard (nullptr for an ungoverned statement, which still
  /// consults fault points). Call before the first AddScatter or
  /// MergePartial. Aggregators whose state is a few lanes per group have
  /// nothing to charge and ignore it.
  virtual void set_guard(const ExecGuard* /*guard*/) {}
  /// First guard/budget failure latched by AddScatter or MergePartial, kOk
  /// otherwise. A failed aggregator stops accumulating; callers check after
  /// each call and discard the state on failure.
  virtual Status status() const { return Status::Ok(); }
  /// Finalized value of one group — the per-group reference FinalizeColumn
  /// is pinned to (TypedColumnTest in tests/test_flat_agg.cc).
  virtual Value FinalizeGroup(uint32_t gid) const = 0;
  /// The finalized column over every group, built in typed lanes: exactly
  /// the column that Append(FinalizeGroup(g)) for each g in order builds,
  /// type promotion, NULL placeholders and null mask included.
  virtual Column FinalizeColumn() const = 0;
};

/// Creates the SoA accumulator for `spec`, or null when the aggregate is not
/// scatterable — quantile/median, ndv/HLL, and UDAs keep the per-group
/// object path (the planner falls back per query). count(distinct x) has a
/// flat form, a set of distinct (x, group) pairs.
std::unique_ptr<FlatAggregator> CreateFlatAggregator(const AggSpec& spec);

using UdaFactory = std::function<std::unique_ptr<AggAccumulator>()>;

/// Process-wide registry of user-defined aggregates.
class AggregateRegistry {
 public:
  static AggregateRegistry& Global();

  void Register(const std::string& name, UdaFactory factory);
  bool Has(const std::string& name) const;
  std::unique_ptr<AggAccumulator> Create(const std::string& name) const;

 private:
  // The registry is process-global and reachable from pool workers at plan
  // time while tests may still be registering UDAs; every map touch holds
  // mu_ so the global is synchronized shared state, not an unguarded static.
  mutable Mutex mu_;
  std::map<std::string, UdaFactory> factories_ GUARDED_BY(mu_);  // vdb-lint: allow(string-keyed-map) UDA registry: looked up once per aggregate at plan time
};

/// Creates the accumulator for a builtin or registered aggregate. Only
/// count honours DISTINCT; min/max(distinct x) equal min/max(x); every other
/// aggregate with DISTINCT, and count(distinct *), is kUnsupported rather
/// than silently summing or averaging duplicates.
Result<std::unique_ptr<AggAccumulator>> CreateAccumulator(const AggSpec& spec);

/// Serializes a value into a byte key usable for grouping / distinct sets;
/// numerically equal ints and doubles produce the same key.
std::string ValueGroupKey(const Value& v);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_AGGREGATES_H_
