#include "server/shard_store.h"

#include <utility>

#include "util/check.h"

namespace popan::server {

ShardStoreBackend::ShardStoreBackend(
    std::unique_ptr<shard::ShardRouter> router, spatial::WalWriter* wal)
    : router_(std::move(router)), wal_(wal) {
  POPAN_CHECK(router_ != nullptr);
  if (wal_ != nullptr) {
    POPAN_CHECK(!router_->options().rebalance.enabled &&
                !router_->durable())
        << "a single-file WAL needs an in-memory, non-rebalancing router";
    POPAN_CHECK(wal_->next_sequence() == router_->sequence() + 1)
        << "WAL and tree sequences out of step at startup";
  }
}

StatusOr<uint64_t> ShardStoreBackend::ApplyInsert(const geo::Point2& p) {
  POPAN_RETURN_IF_ERROR(router_->Insert(p));
  uint64_t seq = router_->sequence();
  if (wal_ != nullptr) {
    StatusOr<uint64_t> logged = wal_->LogInsert(p);
    POPAN_CHECK(logged.ok() && logged.value() == seq)
        << "WAL fell out of step with the tree";
  }
  return seq;
}

StatusOr<uint64_t> ShardStoreBackend::ApplyErase(const geo::Point2& p) {
  POPAN_RETURN_IF_ERROR(router_->Erase(p));
  uint64_t seq = router_->sequence();
  if (wal_ != nullptr) {
    StatusOr<uint64_t> logged = wal_->LogErase(p);
    POPAN_CHECK(logged.ok() && logged.value() == seq)
        << "WAL fell out of step with the tree";
  }
  return seq;
}

}  // namespace popan::server
