// The benchmark's workloads: how each one builds its data and samples, which
// query shapes it sends, and how it makes the staging batches it appends.
// Every input is derived from the --seed argument.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/verdict_context.h"
#include "engine/database.h"

namespace perfbench {

/// One query template, instantiated with seeded constants.
struct Shape {
  std::string name;
  int weight = 1;                     // copies of the shape per deck of ops
  std::vector<std::string> variants;  // seeded instances of the template
};

/// One set-up copy of a workload: its data, its samples and the middleware.
struct Instance {
  std::unique_ptr<vdb::engine::Database> db;
  std::unique_ptr<vdb::core::VerdictContext> ctx;
  double datagen_s = 0;  // data generation
  double build_s = 0;    // sample preparation
};

struct Workload {
  std::string name;
  /// Every run executes round(ops_per_second * --seconds) operations, a
  /// fixed count, so a run ends in the same data state whatever the host's
  /// speed. The rate is sized so the timed phase lasts about --seconds on a
  /// 4-core x86 host.
  double ops_per_second = 0;
  /// Every k-th operation is an AppendData (0: the operations are all
  /// queries; appends are then measured only after every query has run).
  int append_every = 0;
  std::string append_base;  // the table appends go to
  vdb::Status (*setup)(uint64_t seed, Instance* out) = nullptr;
  std::vector<Shape> (*shapes)(uint64_t seed) = nullptr;
  /// Registers the k-th staging batch of this seed as table `name`.
  vdb::Status (*stage)(Instance* inst, uint64_t seed, int k,
                       const std::string& name) = nullptr;
};

/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// Derives an independent 64-bit seed for stream `salt` of a run's seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
