// Join benchmark: the flat radix-partitioned hash join vs. the old per-row
// string-key std::unordered_map join (kept here as the baseline), swept over
// build-side sizes (1K / 32K / 1M), key cardinalities (unique / skewed /
// hot-key) and 1/2/4/8 threads.
//
// Probe sizes are chosen so every configuration emits ~build_size output
// pairs — the modes differ in duplicate-chain length (1 / 16 / n/256), not
// output volume, so timings compare build+probe cost, not gather volume.
// Both sides share the combined-gather code path (GatherJoinPairsInto), so
// the delta is purely key hashing + table build + probe. A SQL-level section
// (also in --smoke) times a wide join read by a narrow aggregate, with the
// join's output pruned to the referenced columns and at full width.
//
// Acceptance bar (ISSUE 4): >= 3x single-thread build+probe speedup over
// the string-map baseline on the 1M-row unique-key case.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "engine/aggregates.h"
#include "engine/join_table.h"
#include "engine/operators.h"
#include "engine/table.h"

namespace vdb::engine {
namespace {

constexpr uint32_t kNullRow = JoinPairView::kNullRightRow;

/// Key cardinality shapes. Every shape emits ~build_size pairs.
enum Mode : int { kUnique = 0, kSkewed = 1, kHotKey = 2 };

size_t KeyDomain(size_t build_rows, int mode) {
  switch (mode) {
    case kUnique:
      return build_rows;
    case kSkewed:
      return std::max<size_t>(1, build_rows / 16);
    default:  // kHotKey: 256 keys, each with build_rows/256 duplicates.
      return std::min<size_t>(256, build_rows);
  }
}

size_t ProbeRows(size_t build_rows, int mode) {
  // ~one emitted pair per build row: probe_rows * (build_rows / domain).
  return KeyDomain(build_rows, mode);
}

TablePtr MakeSide(size_t rows, size_t key_domain, bool sequential,
                  uint64_t seed, const char* payload) {
  Rng rng(seed);
  std::vector<int64_t> keys(rows), pay(rows);
  for (size_t r = 0; r < rows; ++r) {
    keys[r] = sequential ? static_cast<int64_t>(r % key_domain)
                         : static_cast<int64_t>(rng.NextBounded(key_domain));
    pay[r] = static_cast<int64_t>(r);
  }
  auto t = std::make_shared<Table>();
  t->AddColumn("k", Column::FromData(TypeId::kInt64, std::move(keys), {}, {},
                                     {}));
  t->AddColumn(payload, Column::FromData(TypeId::kInt64, std::move(pay), {},
                                         {}, {}));
  return t;
}

struct JoinInput {
  TablePtr probe, build;
};

/// One input per (build_rows, mode), built once and shared across the
/// baseline and every thread count so all variants join identical data.
const JoinInput& InputFor(size_t build_rows, int mode) {
  static std::map<std::pair<size_t, int>, JoinInput>* cache =
      new std::map<std::pair<size_t, int>, JoinInput>();
  auto it = cache->find({build_rows, mode});
  if (it == cache->end()) {
    const size_t domain = KeyDomain(build_rows, mode);
    JoinInput in;
    in.build = MakeSide(build_rows, domain, /*sequential=*/true, 7, "rv");
    in.probe =
        MakeSide(ProbeRows(build_rows, mode), domain, /*sequential=*/false,
                 11, "lv");
    it = cache->emplace(std::make_pair(build_rows, mode), std::move(in)).first;
  }
  return it->second;
}

/// The pre-rewrite join, verbatim in shape: per-row ValueGroupKey string
/// keys on both sides, serial std::unordered_map<string, vector> build,
/// left-row-major probe. The combined gather is shared with the new path.
TablePtr StringMapJoinBaseline(const Table& left, const Table& right) {
  auto key_of = [](const Table& t, size_t row, bool* has_null) {
    Value v = t.column(0).Get(row);
    *has_null = v.is_null();
    std::string key = ValueGroupKey(v);
    key.push_back('\x1f');
    return key;
  };
  std::unordered_map<std::string, std::vector<uint32_t>> build;
  build.reserve(right.num_rows());
  for (size_t r = 0; r < right.num_rows(); ++r) {
    bool has_null = false;
    std::string key = key_of(right, r, &has_null);
    if (!has_null) build[key].push_back(static_cast<uint32_t>(r));
  }
  SelVector out_l, out_r;
  for (size_t lr = 0; lr < left.num_rows(); ++lr) {
    bool has_null = false;
    std::string key = key_of(left, lr, &has_null);
    if (has_null) continue;
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (uint32_t rr : it->second) {
      out_l.push_back(static_cast<uint32_t>(lr));
      out_r.push_back(rr);
    }
  }
  auto out = std::make_shared<Table>();
  GatherJoinPairsInto(left, out_l.data(), right, out_r.data(), out_l.size(),
                      1, out.get());
  (void)kNullRow;
  return out;
}

void BM_JoinStringMapBaseline(benchmark::State& state) {
  const JoinInput& in = InputFor(static_cast<size_t>(state.range(0)),
                                 static_cast<int>(state.range(1)));
  size_t out_rows = 0;
  for (auto _ : state) {
    TablePtr out = StringMapJoinBaseline(*in.probe, *in.build);
    out_rows = out->num_rows();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(static_cast<uint64_t>(state.iterations()) *
                           out_rows));
  state.counters["out_rows"] = static_cast<double>(out_rows);
}

void BM_JoinRadix(benchmark::State& state) {
  const JoinInput& in = InputFor(static_cast<size_t>(state.range(0)),
                                 static_cast<int>(state.range(1)));
  const int threads = static_cast<int>(state.range(2));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto out = HashJoin(*in.probe, *in.build, std::vector<int>{0},
                        std::vector<int>{0}, sql::JoinType::kInner, nullptr,
                        /*rand_seed=*/1, threads);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    out_rows = out.value()->num_rows();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(static_cast<uint64_t>(state.iterations()) *
                           out_rows));
  state.counters["out_rows"] = static_cast<double>(out_rows);
}

BENCHMARK(BM_JoinStringMapBaseline)
    ->ArgNames({"build", "mode"})
    ->ArgsProduct({{1 << 10, 1 << 15, 1 << 20}, {kUnique, kSkewed, kHotKey}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_JoinRadix)
    ->ArgNames({"build", "mode", "threads"})
    ->ArgsProduct({{1 << 10, 1 << 15, 1 << 20},
                   {kUnique, kSkewed, kHotKey},
                   {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

/// Bloom pre-probe section: a build side big enough to enable the filter
/// automatically, probed at two hit rates. Low-hit probes are the filter's
/// target — most probe rows are rejected by a single gathered Bloom word
/// instead of a slot-array walk — while the 100%-hit probe bounds the
/// overhead when the filter never rejects anything. Every (on, off) pair is
/// differentially checked: the filter has no false negatives, so the pair
/// lists must be identical element for element.
bool RunBloomSection(bool smoke) {
  using vdb::bench::BenchJsonRecord;
  using vdb::bench::TimeMedianMs;

  const size_t build_rows = smoke ? (1 << 16) : (1 << 20);
  const size_t probe_rows = smoke ? (1 << 18) : (1 << 21);
  const int reps = smoke ? 3 : 5;
  // Low hit rate: probe keys span 64x the build domain (~1.6% hits).
  // Full hit rate: probe keys drawn from the build domain itself.
  struct HitCase {
    const char* label;
    size_t probe_domain;
  };
  const HitCase hit_cases[] = {
      {"low-hit (~1.6%)", build_rows * 64},
      {"all-hit (100%)", build_rows},
  };

  TablePtr build = MakeSide(build_rows, build_rows, /*sequential=*/true, 7,
                            "rv");
  std::printf("\n== join Bloom pre-probe: build=%zu probe=%zu ==\n",
              build_rows, probe_rows);
  std::printf("%-18s %-6s %12s %12s %9s  %s\n", "probe mix", "thr",
              "off ms", "on ms", "speedup", "pairs (off == on)");

  bool all_ok = true;
  for (const HitCase& hc : hit_cases) {
    TablePtr probe = MakeSide(probe_rows, hc.probe_domain,
                              /*sequential=*/false, 11, "lv");
    const std::vector<const Column*> lk{&probe->column(0)};
    const std::vector<const Column*> rk{&build->column(0)};
    for (int threads : smoke ? std::vector<int>{1} : std::vector<int>{1, 2}) {
      auto run_pairs = [&](int bloom_mode, size_t* pairs) {
        SetJoinBloomForTest(bloom_mode);
        auto out = HashJoinPairs(probe, build, lk, rk, sql::JoinType::kInner,
                                 nullptr, /*rand_seed=*/1, threads);
        SetJoinBloomForTest(-1);
        if (!out.ok()) {
          std::printf("ERROR: %s\n", out.status().ToString().c_str());
          return false;
        }
        *pairs = out.value().num_pairs();
        return true;
      };
      size_t pairs_off = 0, pairs_on = 0;
      bool ok = true;
      const double off_ms = TimeMedianMs(
          reps, [&] { ok = ok && run_pairs(0, &pairs_off); });
      const double on_ms = TimeMedianMs(
          reps, [&] { ok = ok && run_pairs(1, &pairs_on); });
      if (!ok) {
        all_ok = false;
        continue;
      }
      // Differential: identical pair lists element for element (no false
      // negatives), checked directly once per configuration.
      SetJoinBloomForTest(0);
      auto ref = HashJoinPairs(probe, build, lk, rk, sql::JoinType::kInner,
                               nullptr, 1, threads);
      SetJoinBloomForTest(1);
      auto fil = HashJoinPairs(probe, build, lk, rk, sql::JoinType::kInner,
                               nullptr, 1, threads);
      SetJoinBloomForTest(-1);
      const bool same = ref.ok() && fil.ok() &&
                        ref.value().lrows() == fil.value().lrows() &&
                        ref.value().rrows() == fil.value().rrows();
      if (!same || pairs_off != pairs_on) all_ok = false;
      std::printf("%-18s %-6d %12.2f %12.2f %8.2fx  %zu %s\n", hc.label,
                  threads, off_ms, on_ms, off_ms / on_ms, pairs_off,
                  same && pairs_off == pairs_on ? "ok" : "MISMATCH");
      const std::string op = std::string("join probe ") + hc.label;
      BenchJsonRecord(op, "bloom=off", off_ms, threads);
      BenchJsonRecord(op, "bloom=on", on_ms, threads);
    }
  }
  return all_ok;
}

/// SQL-level "wide join, narrow aggregate": a probe side carrying string
/// columns joined to a dimension, read by a two-column aggregate. The join
/// gathers only the columns the statement references (docs/INVARIANTS.md,
/// join-output contract); the full-width row runs the same join under a
/// `select *` derived table, whose star keeps every column, so the delta is
/// the gather of the unread columns. The two answers must be identical.
bool RunWideJoinSection(bool smoke) {
  using vdb::bench::BenchJsonRecord;
  using vdb::bench::TimeMedianMs;

  const size_t fact_rows = smoke ? (1 << 16) : 600'000;
  const size_t dim_rows = 20'000;
  const int reps = smoke ? 3 : 5;
  Rng rng(23);
  std::vector<int64_t> fk(fact_rows), qty(fact_rows);
  std::vector<double> fv(fact_rows);
  std::vector<std::string> tag(fact_rows), note(fact_rows);
  for (size_t r = 0; r < fact_rows; ++r) {
    fk[r] = static_cast<int64_t>(rng.NextBounded(dim_rows));
    qty[r] = static_cast<int64_t>(rng.NextBounded(50));
    fv[r] = static_cast<double>(rng.NextBounded(100'000)) / 100.0;
    tag[r] = "tag_" + std::to_string(r % 1000);
    note[r] = "note for row " + std::to_string(r);
  }
  auto fact = std::make_shared<Table>();
  fact->AddColumn("k", Column::FromData(TypeId::kInt64, std::move(fk), {}, {},
                                        {}));
  fact->AddColumn("v", Column::FromData(TypeId::kDouble, {}, std::move(fv),
                                        {}, {}));
  fact->AddColumn("tag", Column::FromData(TypeId::kString, {}, {},
                                          std::move(tag), {}));
  fact->AddColumn("note", Column::FromData(TypeId::kString, {}, {},
                                           std::move(note), {}));
  fact->AddColumn("qty", Column::FromData(TypeId::kInt64, std::move(qty), {},
                                          {}, {}));
  auto dim = std::make_shared<Table>();
  dim->AddColumn("k", TypeId::kInt64);
  dim->AddColumn("name", TypeId::kString);
  dim->AddColumn("brand", TypeId::kString);
  dim->AddColumn("w", TypeId::kDouble);
  for (size_t r = 0; r < dim_rows; ++r) {
    dim->AppendRow({Value::Int(static_cast<int64_t>(r)),
                    Value::String("part " + std::to_string(r)),
                    Value::String("brand#" + std::to_string(r % 25)),
                    Value::Double(static_cast<double>(r % 7))});
  }
  Database db(29);
  if (!db.RegisterTable("fact", fact).ok() ||
      !db.RegisterTable("dim", dim).ok()) {
    std::printf("ERROR: cannot register the wide-join tables\n");
    return false;
  }

  const std::string narrow =
      "select count(*) as c, sum(f.v) as s from fact f inner join dim d "
      "on f.k = d.k";
  const std::string full =
      "select count(*) as c, sum(v) as s from (select * from fact f "
      "inner join dim d on f.k = d.k) as j";
  std::printf("\n== wide join, narrow aggregate: fact=%zu (2 string cols) "
              "x dim=%zu ==\n", fact_rows, dim_rows);
  std::printf("%-6s %14s %14s %9s  %s\n", "thr", "full-width ms",
              "pruned ms", "speedup", "answers");
  bool all_ok = true;
  for (int threads : smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 4}) {
    db.set_num_threads(threads);
    ResultSet narrow_rs, full_rs;
    bool ok = true;
    auto run = [&](const std::string& sql, ResultSet* out) {
      auto rs = db.Execute(sql);
      if (!rs.ok()) {
        std::printf("ERROR: %s\n", rs.status().ToString().c_str());
        ok = false;
        return;
      }
      *out = std::move(rs).ValueOrDie();
    };
    const double full_ms = TimeMedianMs(reps, [&] { run(full, &full_rs); });
    const double narrow_ms =
        TimeMedianMs(reps, [&] { run(narrow, &narrow_rs); });
    bool same = ok && narrow_rs.NumRows() == full_rs.NumRows() &&
                narrow_rs.NumCols() == full_rs.NumCols();
    for (size_t c = 0; same && c < narrow_rs.NumCols(); ++c) {
      same = narrow_rs.Get(0, c).Equals(full_rs.Get(0, c));
    }
    if (!same) all_ok = false;
    std::printf("%-6d %14.2f %14.2f %8.2fx  %s\n", threads, full_ms,
                narrow_ms, full_ms / narrow_ms, same ? "ok" : "MISMATCH");
    BenchJsonRecord("wide join, narrow aggregate", "full-width", full_ms,
                    threads);
    BenchJsonRecord("wide join, narrow aggregate", "pruned", narrow_ms,
                    threads);
  }
  return all_ok;
}

}  // namespace
}  // namespace vdb::engine

int main(int argc, char** argv) {
  vdb::bench::BenchJsonInit("join", argc, argv);
  const bool smoke = vdb::bench::HasFlag(argc, argv, "--smoke");

  const bool bloom_ok = vdb::engine::RunBloomSection(smoke);
  const bool wide_ok = vdb::engine::RunWideJoinSection(smoke);

  if (!smoke) {
    // Drop our flags before Google Benchmark sees (and rejects) them.
    std::vector<char*> kept;
    for (int i = 0; i < argc; ++i) {
      const std::string a = argv[i];
      if (a != "--json" && a != "--smoke") kept.push_back(argv[i]);
    }
    int kept_argc = static_cast<int>(kept.size());
    benchmark::Initialize(&kept_argc, kept.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  vdb::bench::BenchJsonWrite();
  return bloom_ok && wide_ok ? 0 : 1;
}
