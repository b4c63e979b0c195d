#ifndef POPBENCH_STORE_CONFIG_H_
#define POPBENCH_STORE_CONFIG_H_

// The store geometry popan_server runs with under the benchmark's flags
// (popbench/run.py starts it with the defaults plus --wal, or --shards 8
// --shard-dir), mirrored so the preparers and the traced replay build
// exactly the structures the server builds.

#include "geometry/box.h"
#include "ops.h"
#include "shard/router.h"
#include "spatial/pr_tree.h"

namespace popbench {

inline popan::geo::Box2 ServerBounds() {
  return popan::geo::Box2::UnitCube(1.0);
}

inline popan::spatial::PrTreeOptions ServerTreeOptions() {
  popan::spatial::PrTreeOptions options;
  options.capacity = kServerCapacity;
  options.max_depth = kServerMaxDepth;
  return options;
}

/// popan_server --shards kIngestShards: rebalancing on, default costs.
inline popan::shard::RouterOptions IngestRouterOptions() {
  popan::shard::RouterOptions options;
  options.tree = ServerTreeOptions();
  options.rebalance.enabled = true;
  options.rebalance.max_shards = kIngestShards;
  return options;
}

}  // namespace popbench

#endif  // POPBENCH_STORE_CONFIG_H_
