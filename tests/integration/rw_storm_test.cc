/// The reader/writer storm: the concurrency acceptance test and the CI
/// TSan target. For every seed and every reader count in the scaling
/// matrix, a single writer replays a deterministic trace against the
/// epoch-snapshot layer while reader threads pin snapshots mid-flight;
/// every pinned snapshot must be bitwise identical (census, size,
/// canonical range results) to a serial replay of its own operation
/// prefix, and every retired node must be reclaimed once the readers
/// leave. Environment knobs (all optional) size the matrix:
///   POPAN_STORM_SEEDS    seeds per reader count      (default 64)
///   POPAN_STORM_OPS      trace length                (default 256)
///   POPAN_READER_THREADS run ONLY this reader count  (default 1,2,8,16)

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/rw_storm.h"

namespace popan::sim {
namespace {

size_t EnvOr(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || parsed == 0) return fallback;
  return static_cast<size_t>(parsed);
}

std::vector<size_t> ReaderMatrix() {
  const char* pinned = std::getenv("POPAN_READER_THREADS");
  if (pinned != nullptr && *pinned != '\0') {
    return {EnvOr("POPAN_READER_THREADS", 4)};
  }
  return {1, 2, 8, 16};
}

RwStormConfig ConfigFor(size_t readers, uint64_t seed) {
  RwStormConfig config;
  config.num_ops = EnvOr("POPAN_STORM_OPS", 256);
  config.reader_threads = readers;
  config.snapshots_per_reader = 3;
  config.queries_per_snapshot = 2;
  config.capacity = 4;
  config.max_depth = 32;
  config.insert_fraction = 0.65;
  config.seed = seed;
  return config;
}

TEST(RwStormTest, CowTreeReaderScalingMatrix) {
  const size_t seeds = EnvOr("POPAN_STORM_SEEDS", 64);
  ExperimentRunner runner;
  for (size_t readers : ReaderMatrix()) {
    for (uint64_t seed = 0; seed < seeds; ++seed) {
      RwStormConfig config = ConfigFor(readers, seed);
      StatusOr<RwStormStats> stats = RunCowTreeStorm(config, runner);
      ASSERT_TRUE(stats.ok()) << "readers=" << readers << " seed=" << seed
                              << ": " << stats.status().ToString();
      EXPECT_EQ(stats->ops_applied, config.num_ops);
      EXPECT_EQ(stats->snapshots_verified,
                readers * config.snapshots_per_reader + 1);
      // Retire/reclaim must balance exactly once the storm drains —
      // anything else is a leak or a double free the sanitizers jump on.
      EXPECT_EQ(stats->objects_retired, stats->objects_reclaimed)
          << "readers=" << readers << " seed=" << seed;
      // One advance per published version plus the final drain.
      EXPECT_EQ(stats->epochs_advanced, config.num_ops + 1);
    }
  }
}

// The storm must also hold when the writer outruns every reader by a wide
// margin (tiny trace, many readers — most snapshots land on the final
// version) and when readers outnumber hardware threads.
TEST(RwStormTest, OversubscribedReadersSmallTrace) {
  ExperimentRunner runner;
  RwStormConfig config = ConfigFor(16, 7);
  config.num_ops = 32;
  config.snapshots_per_reader = 2;
  StatusOr<RwStormStats> stats = RunCowTreeStorm(config, runner);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->objects_retired, stats->objects_reclaimed);
}

}  // namespace
}  // namespace popan::sim
