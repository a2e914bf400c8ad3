// perfbench: the end-to-end benchmark of the VerdictDB middleware.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-out <spans.json>]
//
// One process, one client, a closed loop: the next operation starts when the
// previous one has returned. A run sets the workload up several times (the
// median is setup_s), sends every query shape once untimed, computes the
// exact answers untimed, then runs a fixed number of operations and checks
// every answer. --trace 0 prints the end-to-end metrics; --trace 1 runs each
// query twice, once through VerdictContext::ExecuteApprox and once through
// the traced layer path, and prints the per-layer metrics. The last line of
// standard output is the result object; the line before it describes the
// host and the run.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "common/random.h"
#include "engine/kernels/kernels.h"
#include "trace.h"
#include "traced.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using vdb::core::ApproxAnswer;
using vdb::core::VerdictContext;

constexpr int kSetupReps = 5;
/// Appends timed after every query of a read workload has run, so no query
/// ever sees appended data.
constexpr int kPostReadAppends = 64;
constexpr const char* kStageTable = "perfbench_stage";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a->seconds < 1 || a->seconds > 600) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1" ? 1 : 0;
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between closest ranks; q in [0, 1].
double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

double Mean(double sum, double n) { return n > 0 ? sum / n : 0.0; }

/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  unsigned long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001B3ull;
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// A JSON object written member by member.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Number(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- one run ----------------------------------------------------------------

struct PoolQuery {
  size_t shape = 0;
  std::string sql;
  ExactAnswer exact;
  std::string rewritten_sql;  // seen in the warm-up pass
};

struct Op {
  bool append = false;
  size_t pool = 0;
};

struct Run {
  const Workload* w = nullptr;
  Args args;
  std::vector<Shape> shapes;
  std::vector<PoolQuery> pool;
  Instance inst;
  std::vector<double> datagen_s, build_s, setup_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  int appends_done = 0;
  uint64_t data_digest = 0;

  vdb::engine::Database* db() { return inst.db.get(); }
  VerdictContext* ctx() { return inst.ctx.get(); }

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 5) failures.push_back(what);
  }
};

vdb::Status SetUp(Run* run) {
  for (int i = 0; i < kSetupReps; ++i) {
    // Free the previous copy and hand its memory back to the system, so
    // every set-up starts from the same heap and the peak RSS is one copy's.
    run->inst = Instance{};
    malloc_trim(0);
    const double t0 = NowMs();
    VDB_RETURN_IF_ERROR(run->w->setup(run->args.seed, &run->inst));
    run->setup_s.push_back((NowMs() - t0) / 1000.0);
    run->datagen_s.push_back(run->inst.datagen_s);
    run->build_s.push_back(run->inst.build_s);
  }
  return vdb::Status::Ok();
}

void BuildPool(Run* run) {
  run->shapes = run->w->shapes(run->args.seed);
  for (size_t s = 0; s < run->shapes.size(); ++s) {
    for (const std::string& sql : run->shapes[s].variants) {
      PoolQuery q;
      q.shape = s;
      q.sql = sql;
      run->pool.push_back(std::move(q));
    }
  }
}

/// A seeded closed-loop op stream: decks holding every shape `weight` times,
/// each deck shuffled, each query a seeded variant of its shape. In a
/// workload with appends every k-th op is an append instead.
std::vector<Op> MakeSchedule(const Run& run, int n_ops) {
  vdb::Rng rng(SubSeed(run.args.seed, 20));
  std::vector<size_t> first_variant;
  std::vector<size_t> deck;
  size_t offset = 0;
  for (size_t s = 0; s < run.shapes.size(); ++s) {
    first_variant.push_back(offset);
    offset += run.shapes[s].variants.size();
    for (int i = 0; i < run.shapes[s].weight; ++i) deck.push_back(s);
  }
  std::vector<Op> ops;
  size_t next = deck.size();
  for (int i = 0; i < n_ops; ++i) {
    Op op;
    if (run.w->append_every > 0 && i % run.w->append_every ==
                                       run.w->append_every - 1) {
      op.append = true;
      ops.push_back(op);
      continue;
    }
    if (next == deck.size()) {
      for (size_t j = deck.size(); j > 1; --j) {
        std::swap(deck[j - 1], deck[rng.NextBounded(j)]);
      }
      next = 0;
    }
    const size_t s = deck[next++];
    op.pool = first_variant[s] + rng.NextBounded(run.shapes[s].variants.size());
    ops.push_back(op);
  }
  return ops;
}

vdb::Status ComputeExactAll(Run* run) {
  for (PoolQuery& q : run->pool) {
    auto exact = ComputeExact(run->db(), q.sql);
    if (!exact.ok()) {
      return vdb::Status::Internal("exact answer of " + q.sql + ": " +
                                   exact.status().ToString());
    }
    q.exact = std::move(exact).ValueOrDie();
  }
  return vdb::Status::Ok();
}

/// Checks one answer against the exact one; counts a failure otherwise.
void CheckAnswer(Run* run, const PoolQuery& q,
                 const vdb::Result<ApproxAnswer>& ans,
                 const VerdictContext::ExecInfo& info) {
  if (!ans.ok()) {
    run->Fail(q.sql + ": " + ans.status().ToString());
    return;
  }
  std::string err;
  if (info.approximated) {
    err = CheckApproximated(ans.value(), q.exact);
  } else if (run->w->append_every > 0) {
    // Appends have changed the data since the exact answers were taken.
    auto now = ComputeExact(run->db(), q.sql);
    err = now.ok() ? CheckPassthrough(ans.value().result, now.value())
                   : now.status().ToString();
  } else {
    err = CheckPassthrough(ans.value().result, q.exact);
  }
  if (!err.empty()) run->Fail(q.sql + ": " + err);
}

void WarmUp(Run* run) {
  for (PoolQuery& q : run->pool) {
    VerdictContext::ExecInfo info;
    auto ans = run->ctx()->ExecuteApprox(q.sql, &info);
    ++run->attempted;
    CheckAnswer(run, q, ans, info);
    q.rewritten_sql = info.rewritten_sql;
  }
  run->ctx()->connection().ClearLog();
}

/// One AppendData of the next staging batch; returns its wall time in ms
/// (the staging batch itself is made untimed).
double TimedAppend(Run* run) {
  const int k = run->appends_done++;
  ++run->attempted;
  auto st = run->w->stage(&run->inst, run->args.seed, k, kStageTable);
  if (!st.ok()) {
    run->Fail("staging batch: " + st.ToString());
    return 0.0;
  }
  const double t0 = NowMs();
  st = run->ctx()->sample_builder().AppendData(run->w->append_base,
                                               kStageTable);
  const double ms = NowMs() - t0;
  if (!st.ok()) run->Fail("append: " + st.ToString());
  return ms;
}

/// Untimed accuracy pass over every query of the pool, from a fixed query
/// seed so it does not depend on how many operations ran before it.
Accuracy AccuracyPass(Run* run) {
  if (run->w->append_every > 0) {
    auto st = ComputeExactAll(run);  // the data has grown since set-up
    if (!st.ok()) run->Fail(st.ToString());
  }
  run->db()->rng() = vdb::Rng(SubSeed(run->args.seed, 30));
  Accuracy acc;
  for (const PoolQuery& q : run->pool) {
    VerdictContext::ExecInfo info;
    auto ans = run->ctx()->ExecuteApprox(q.sql, &info);
    ++run->attempted;
    CheckAnswer(run, q, ans, info);
    if (ans.ok() && info.approximated) acc.Add(ans.value(), q.exact);
  }
  run->ctx()->connection().ClearLog();
  return acc;
}

std::string Envelope(const Run& run, int n_ops) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int allowed =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  namespace k = vdb::engine::kernels;
  const char* simd_env = std::getenv("VDB_SIMD");
  JsonObject env;
  env.Number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Number("cpus_allowed", allowed)
      .Str("simd_detected", k::SimdLevelName(k::DetectedSimdLevel()))
      .Str("simd_dispatched", k::SimdLevelName(k::CurrentSimdLevel()))
      .Str("VDB_SIMD", simd_env ? simd_env : "")
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", __VERSION__)
      .Str("commit", run.args.commit)
      .Str("workload", run.w->name)
      .Number("seed", static_cast<double>(run.args.seed))
      .Number("seconds", run.args.seconds)
      .Number("trace", run.args.trace)
      .Number("engine_threads", run.inst.ctx->options().num_threads)
      .Number("ops", n_ops);
  return env.str();
}

/// Digest of the leading rows of every table, samples included, taken right
/// after set-up.
uint64_t DataDigest(vdb::engine::Database* db) {
  uint64_t h = 0xCBF29CE484222325ull;
  std::vector<std::string> tables = db->catalog().ListTables();
  std::sort(tables.begin(), tables.end());
  for (const std::string& name : tables) {
    auto t = db->catalog().GetTable(name);
    const size_t rows = std::min<size_t>(t->num_rows(), 1000);
    h = Fnv(h, name);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < t->num_columns(); ++c) {
        h = Fnv(h, t->Get(r, c).ToString());
      }
    }
  }
  return h;
}

std::string InputDigests(const Run& run, const std::vector<Op>& ops) {
  uint64_t queries = 0xCBF29CE484222325ull;
  for (const Op& op : ops) {
    queries = Fnv(queries, op.append ? "append" : run.pool[op.pool].sql);
  }
  JsonObject d;
  d.Str("data_digest", Hex(run.data_digest))
      .Str("queries_digest", Hex(queries));
  return d.str();
}

struct Metric {
  std::string name, unit;
  double value;
};

int Emit(Run* run, const std::vector<Metric>& metrics, JsonObject detail) {
  std::string fails = "[";
  for (size_t i = 0; i < run->failures.size(); ++i) {
    fails += (i ? ", " : "") + Quote(run->failures[i]);
  }
  detail.Raw("failures", fails + "]");
  std::printf("%s\n",
              JsonObject().Raw("perfbench", detail.str()).str().c_str());
  JsonObject m;
  for (const Metric& x : metrics) {
    m.Raw(x.name,
          JsonObject().Number("value", x.value).Str("unit", x.unit).str());
  }
  const bool correct = run->failed == 0 && run->attempted > 0;
  JsonObject result;
  result.Raw("correct", correct ? "true" : "false")
      .Number("attempted", static_cast<double>(run->attempted))
      .Number("failed", static_cast<double>(run->failed))
      .Raw("metrics", m.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  if (!correct) {
    for (const std::string& f : run->failures) {
      std::fprintf(stderr, "perfbench: failed: %s\n", f.c_str());
    }
  }
  return correct ? 0 : 1;
}

JsonObject AccuracyDetail(const Accuracy& acc, double confidence) {
  JsonObject d;
  d.Number("accuracy_cells", static_cast<double>(acc.cells))
      .Number("rel_error_p50", Median(acc.rel_errors))
      .Number("ci_coverage", acc.Coverage())
      .Number("ci_coverage_gap", std::abs(acc.Coverage() - confidence));
  return d;
}

// ---- --trace 0: end-to-end metrics -----------------------------------------

int RunEndToEnd(Run* run, int n_ops) {
  const std::vector<Op> ops = MakeSchedule(*run, n_ops);
  std::vector<double> query_ms, append_ms;
  double busy_ms = 0;
  for (const Op& op : ops) {
    if (op.append) {
      append_ms.push_back(TimedAppend(run));
      busy_ms += append_ms.back();
      continue;
    }
    const PoolQuery& q = run->pool[op.pool];
    VerdictContext::ExecInfo info;
    const double t0 = NowMs();
    auto ans = run->ctx()->ExecuteApprox(q.sql, &info);
    const double ms = NowMs() - t0;
    ++run->attempted;
    query_ms.push_back(ms);
    busy_ms += ms;
    CheckAnswer(run, q, ans, info);
    run->ctx()->connection().ClearLog();
  }
  const double throughput =
      static_cast<double>(ops.size()) / (busy_ms / 1000.0);
  const Accuracy acc = AccuracyPass(run);
  // Read before the post-read appends: their column growth says nothing
  // about the read workload and would set the peak by reallocation luck.
  const double peak_rss_mb = PeakRssMb();
  if (run->w->append_every == 0) {
    for (int i = 0; i < kPostReadAppends; ++i) {
      append_ms.push_back(TimedAppend(run));
    }
  }
  std::vector<Metric> metrics = {
      {"setup_s", "s", Median(run->setup_s)},
      {"throughput_qps", "1/s", throughput},
      {"query_p50_ms", "ms", Quantile(query_ms, 0.50)},
      {"query_p95_ms", "ms", Quantile(query_ms, 0.95)},
      {"append_p50_ms", "ms", Median(append_ms)},
      {"peak_rss_mb", "MiB", peak_rss_mb},
      {"rel_error_p50", "ratio", Median(acc.rel_errors)},
      {"ci_coverage", "ratio", acc.Coverage()},
  };
  JsonObject detail = AccuracyDetail(acc, run->ctx()->options().confidence);
  detail.Raw("host", Envelope(*run, n_ops))
      .Raw("inputs", InputDigests(*run, ops))
      .Number("query_samples", static_cast<double>(query_ms.size()))
      .Number("append_samples", static_cast<double>(append_ms.size()))
      .Number("ops_failed_ratio",
              static_cast<double>(run->failed) /
                  static_cast<double>(std::max<int64_t>(1, run->attempted)));
  return Emit(run, metrics, detail);
}

// ---- --trace 1: per-layer metrics ------------------------------------------

enum class StmtKind { kCatalog, kProbe, kRewritten, kExact };

StmtKind Classify(const std::string& stmt, const TracedQuery& tq) {
  if (stmt.find("verdictdb_metadata") != std::string::npos) {
    return StmtKind::kCatalog;
  }
  if (!tq.probe_sql.empty() && stmt == tq.probe_sql) return StmtKind::kProbe;
  if (tq.approximated && stmt == tq.rewritten_sql) return StmtKind::kRewritten;
  return StmtKind::kExact;
}

/// engine.rewritten_ms at one thread over the same at the workload's thread
/// count, on the first variant of every approximated shape, weighted like
/// the op stream.
double ParallelSpeedup(Run* run) {
  const int threads = run->ctx()->options().num_threads;
  double serial = 0, parallel = 0;
  for (size_t s = 0; s < run->shapes.size(); ++s) {
    const PoolQuery* q = nullptr;
    for (const PoolQuery& p : run->pool) {
      if (p.shape == s) {
        q = &p;
        break;
      }
    }
    if (q == nullptr || q->rewritten_sql.empty()) continue;
    auto time_at = [&](int n) {
      run->db()->set_num_threads(n);
      std::vector<double> ms;
      for (int rep = 0; rep < 3; ++rep) {
        const double t0 = NowMs();
        auto rs = run->db()->Execute(q->rewritten_sql);
        ms.push_back(NowMs() - t0);
        ++run->attempted;
        if (!rs.ok()) {
          run->Fail("re-timed rewritten query: " + rs.status().ToString());
        }
      }
      return Median(ms);
    };
    const double weight = run->shapes[s].weight;
    serial += weight * time_at(1);
    parallel += weight * time_at(threads);
  }
  run->db()->set_num_threads(threads);
  return parallel > 0 ? serial / parallel : 0.0;
}

int RunTraced(Run* run, int n_ops) {
  const std::vector<Op> ops = MakeSchedule(*run, n_ops);
  Tracer tracer;
  vdb::engine::Database* db = run->db();
  vdb::driver::Connection& conn = run->ctx()->connection();

  double queries = 0, approximated = 0, planned = 0, plan_candidates = 0;
  double rewritten_bytes = 0, statements = 0, rows_scanned = 0;
  double untraced_ms = 0, traced_ms = 0, middleware_ms = 0, exact_ms = 0;
  uint64_t peak_reserved = 0;
  std::map<StmtKind, std::vector<double>> retimed;
  std::vector<double> append_ms;
  double append_statements = 0;

  auto traced_append = [&] {
    tracer.set_query(-1);
    const size_t before = conn.statement_log().size();
    const int span = tracer.Begin("sampling.append");
    // TimedAppend stages untimed; the span covers both, the metric only the
    // AppendData call.
    append_ms.push_back(TimedAppend(run));
    tracer.End(span);
    append_statements +=
        static_cast<double>(conn.statement_log().size() - before);
    conn.ClearLog();
  };

  for (const Op& op : ops) {
    if (op.append) {
      traced_append();
      continue;
    }
    const PoolQuery& q = run->pool[op.pool];
    const int qid = static_cast<int>(queries);
    queries += 1;
    exact_ms += q.exact.ms;

    // Reference: the untraced call, on a saved query-seed stream.
    const vdb::Rng seeds = db->rng();
    VerdictContext::ExecInfo info;
    const uint64_t rows0 = db->rows_scanned();
    double t0 = NowMs();
    auto ref = run->ctx()->ExecuteApprox(q.sql, &info);
    untraced_ms += NowMs() - t0;
    ++run->attempted;
    rows_scanned += static_cast<double>(db->rows_scanned() - rows0);
    peak_reserved = std::max(peak_reserved, info.peak_memory_bytes);
    CheckAnswer(run, q, ref, info);
    const std::vector<std::string> ref_log = conn.statement_log();
    statements += static_cast<double>(ref_log.size());
    conn.ClearLog();

    // Traced: the same query seeds, the layer path, then every statement it
    // issued re-timed on Database::Execute.
    db->rng() = seeds;
    tracer.set_query(qid);
    TracedQuery tq;
    t0 = NowMs();
    const size_t first_span = tracer.spans().size();
    const int root = tracer.Begin("query");
    auto traced = TracedExecute(run->ctx(), q.sql, &tracer, &tq);
    const double query_span_ms = tracer.End(root) / 1000.0;
    // Engine time inside the query: the statements the path issues itself
    // are spans of their own; the catalog read happens inside
    // SampleCatalog::SamplesFor, so its statement is counted at its re-timed
    // cost, capped by the span that contains it.
    double engine_ms = 0, catalog_span_ms = 0, catalog_ms = 0;
    for (size_t i = first_span; i < tracer.spans().size(); ++i) {
      const Span& sp = tracer.spans()[i];
      const double ms = (sp.end_us - sp.start_us) / 1000.0;
      if (sp.name == "engine.ndv_probe" || sp.name == "engine.rewritten" ||
          sp.name == "engine.exact") {
        engine_ms += ms;
      } else if (sp.name == "sampling.catalog") {
        catalog_span_ms += ms;
      }
    }
    for (const std::string& stmt : conn.statement_log()) {
      const StmtKind kind = Classify(stmt, tq);
      static const char* const kNames[] = {"retime.catalog", "retime.ndv_probe",
                                           "retime.rewritten", "retime.exact"};
      const int span = tracer.Begin(kNames[static_cast<int>(kind)]);
      auto rs = db->Execute(stmt);
      const double ms = tracer.End(span) / 1000.0;
      if (!rs.ok()) run->Fail("re-timed statement: " + rs.status().ToString());
      retimed[kind].push_back(ms);
      if (kind == StmtKind::kCatalog) catalog_ms += ms;
    }
    traced_ms += NowMs() - t0;
    middleware_ms +=
        query_span_ms - engine_ms - std::min(catalog_ms, catalog_span_ms);

    const bool same = traced.ok() && ref.ok() &&
                      tq.approximated == info.approximated &&
                      conn.statement_log() == ref_log &&
                      SameResult(traced.value().result, ref.value().result);
    if (!same) run->Fail(q.sql + ": traced answer differs from ExecuteApprox");
    conn.ClearLog();

    approximated += tq.approximated ? 1 : 0;
    if (tq.planned) {
      planned += 1;
      plan_candidates += tq.plan_candidates;
    }
    rewritten_bytes += static_cast<double>(tq.rewritten_sql.size());
  }
  tracer.set_query(-1);
  const Accuracy acc = AccuracyPass(run);
  const double speedup = ParallelSpeedup(run);
  if (run->w->append_every == 0) {
    for (int i = 0; i < kPostReadAppends; ++i) traced_append();
  }

  const std::map<std::string, double> self_us = tracer.SelfTimeUs();
  auto per_query_us = [&](const char* name) {
    auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : Mean(it->second, queries);
  };
  auto mean_ms = [&](StmtKind k) {
    const std::vector<double>& v = retimed[k];
    double sum = 0;
    for (double x : v) sum += x;
    return Mean(sum, static_cast<double>(v.size()));
  };
  const double n_appends = static_cast<double>(append_ms.size());
  std::vector<Metric> metrics = {
      {"workload.datagen_s", "s", Median(run->datagen_s)},
      {"sampling.build_s", "s", Median(run->build_s)},
      {"sampling.append_ms", "ms", Median(append_ms)},
      {"sampling.append_statements", "count",
       Mean(append_statements, n_appends)},
      {"sql.parse_us", "us", per_query_us("sql.parse")},
      {"sql.print_us", "us", per_query_us("sql.print")},
      {"sql.rewritten_sql_bytes", "count", Mean(rewritten_bytes, approximated)},
      {"core.classify_us", "us", per_query_us("core.classify")},
      {"core.rewrite_us", "us", per_query_us("core.rewrite")},
      {"core.answer_us", "us", per_query_us("core.answer")},
      {"core.plan_us", "us", per_query_us("core.plan")},
      {"core.plan_candidates", "count", Mean(plan_candidates, planned)},
      {"core.middleware_ms", "ms", Mean(middleware_ms, queries)},
      {"core.approx_ratio", "ratio", Mean(approximated, queries)},
      {"driver.statements_per_query", "count", Mean(statements, queries)},
      {"engine.catalog_ms", "ms", mean_ms(StmtKind::kCatalog)},
      {"engine.ndv_probe_ms", "ms", mean_ms(StmtKind::kProbe)},
      {"engine.rewritten_ms", "ms", mean_ms(StmtKind::kRewritten)},
      {"engine.exact_ms", "ms", Mean(exact_ms, queries)},
      {"engine.rows_scanned_per_query", "count", Mean(rows_scanned, queries)},
      {"engine.peak_reserved_mb", "MiB",
       static_cast<double>(peak_reserved) / (1024.0 * 1024.0)},
      {"common.parallel_speedup", "ratio", speedup},
      {"trace.throughput_qps", "1/s", queries / (traced_ms / 1000.0)},
      {"trace.overhead_ratio", "ratio", traced_ms / untraced_ms},
  };

  JsonObject self;
  for (const auto& [name, us] : self_us) self.Number(name, Mean(us, queries));
  JsonObject detail = AccuracyDetail(acc, run->ctx()->options().confidence);
  detail.Raw("host", Envelope(*run, n_ops))
      .Raw("inputs", InputDigests(*run, ops))
      .Number("traced_queries", queries)
      .Number("untraced_throughput_qps", queries / (untraced_ms / 1000.0))
      .Raw("self_us_per_query", self.str())
      .Number("spans", static_cast<double>(tracer.spans().size()));
  if (!run->args.trace_out.empty() && !tracer.WriteJson(run->args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 run->args.trace_out.c_str());
  }
  std::fprintf(stderr, "self time per traced query (us):\n");
  for (const auto& [name, us] : self_us) {
    std::fprintf(stderr, "  %-20s %12.1f\n", name.c_str(), Mean(us, queries));
  }
  return Emit(run, metrics, detail);
}

int Main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--commit <id>] [--trace-out <file>]\n");
    return 2;
  }
  run.w = FindWorkload(run.args.workload);
  if (run.w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 run.args.workload.c_str());
    return 2;
  }
  auto st = SetUp(&run);
  if (st.ok()) {
    BuildPool(&run);
    st = ComputeExactAll(&run);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  run.data_digest = DataDigest(run.db());
  WarmUp(&run);
  const int n_ops = static_cast<int>(
      std::lround(run.w->ops_per_second * run.args.seconds));
  // A traced run executes each query twice and re-times its statements, so
  // it runs a third of the operations in about the same time.
  return run.args.trace == 0 ? RunEndToEnd(&run, std::max(1, n_ops))
                             : RunTraced(&run, std::max(1, n_ops / 3));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
