#ifndef POPAN_SERVER_SHARD_STORE_H_
#define POPAN_SERVER_SHARD_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "geometry/box.h"
#include "geometry/point.h"
#include "shard/router.h"
#include "spatial/wal.h"
#include "util/statusor.h"

namespace popan::server {

/// The storage engine behind ServerCore: a Morton-range ShardRouter plus,
/// optionally, one write-ahead log for the whole store. Single-tree
/// serving is the one-shard router (ServerCore's bounds/options
/// constructor builds it); `--shards` serving is the rebalancing router,
/// in memory or opened from a durable store directory.
///
/// Threading contract: every method runs on ServerCore's single command
/// thread; only the MultiSnapshots pinned through router().TrySnapshot()
/// may leave it. ServerCore expresses this by guarding its store pointer
/// with the command-role capability.
class ShardStoreBackend {
 public:
  /// Takes ownership of a constructed router (in-memory or opened from
  /// a durable store directory via shard::ShardRouter::Open).
  ///
  /// `wal` (the single-file `--wal` log) may be null. When provided it
  /// must already be positioned (fresh header or ResumeAt after
  /// recovery) with next_sequence == router sequence + 1, and the router
  /// must be in-memory and non-rebalancing, so the one log always
  /// describes the whole store.
  explicit ShardStoreBackend(std::unique_ptr<shard::ShardRouter> router,
                             spatial::WalWriter* wal = nullptr);

  const geo::Box2& bounds() const { return router_->domain(); }

  /// Logical op clock: successful writes since construction, plus the
  /// recovered prefix after a restart.
  uint64_t sequence() const { return router_->sequence(); }
  size_t size() const { return router_->size(); }

  /// Applies one write and returns the sequence it was stamped with.
  /// The router validates (InvalidArgument for a non-finite coordinate,
  /// OutOfRange outside the domain) before anything changes, so the log
  /// never sees a record that failed; typed failures (AlreadyExists,
  /// NotFound, ...) pass through and burn no sequence.
  [[nodiscard]] StatusOr<uint64_t> ApplyInsert(const geo::Point2& p);
  [[nodiscard]] StatusOr<uint64_t> ApplyErase(const geo::Point2& p);

  const shard::ShardRouter& router() const { return *router_; }

 private:
  std::unique_ptr<shard::ShardRouter> router_;
  spatial::WalWriter* wal_;
};

}  // namespace popan::server

#endif  // POPAN_SERVER_SHARD_STORE_H_
