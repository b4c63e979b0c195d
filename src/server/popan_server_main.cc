// popan_server: serves the spatial store over TCP (see
// server/protocol.h for the wire format, DESIGN.md sections 7-8 for the
// architecture). The store is always a Morton-range ShardRouter behind
// ServerCore; the flags choose its configuration:
//
//   default        one shard, no rebalancing: a single copy-on-write PR
//                  quadtree. With --wal the store is durable (boot.h:
//                  existing logs are replayed, truncated to the intact
//                  prefix, and resumed; a missing or empty log file is a
//                  fresh boot).
//   --shards N     the census-predicted load balancer, capped at N
//                  shards; --shard-dir makes it durable (per-shard WALs
//                  + manifest in DIR, which must exist).
//
//   popan_server [--port N] [--side S] [--capacity C] [--max-depth D]
//                [--wal PATH]
//                [--shards N] [--shard-dir DIR]
//                [--split-cost X] [--merge-cost X]
//
// Every numeric value must parse whole and in range (a port above 65535,
// a negative count or "4x" is refused); bad flags exit with status 2.

#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "server/boot.h"
#include "server/server_core.h"
#include "server/shard_store.h"
#include "server/socket_server.h"
#include "shard/router.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/text_io.h"

namespace {

struct Flags {
  uint16_t port = 0;
  double side = 1.0;
  size_t capacity = 4;
  size_t max_depth = 16;
  std::string wal_path;
  size_t shards = 0;  ///< 0 = not sharded (one shard, no rebalancing)
  std::string shard_dir;
  double split_cost = 0.0;  ///< 0 = RebalanceConfig default
  double merge_cost = 0.0;
};

/// Parses a whole base-10 integer token within [lo, hi].
bool ParseCount(const char* token, uint64_t lo, uint64_t hi, uint64_t* out) {
  popan::StatusOr<uint64_t> parsed = popan::ParseU64(token);
  if (!parsed.ok() || parsed.value() < lo || parsed.value() > hi) {
    return false;
  }
  *out = parsed.value();
  return true;
}

/// Parses a whole, finite, strictly positive real token.
bool ParsePositive(const char* token, double* out) {
  popan::StatusOr<double> parsed = popan::ParseDouble(token);
  if (!parsed.ok() || !(parsed.value() > 0.0)) return false;
  *out = parsed.value();
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  constexpr uint64_t kAny = std::numeric_limits<size_t>::max();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "unknown or incomplete flag: " << arg << "\n";
      return false;
    }
    const char* value = argv[++i];
    uint64_t count = 0;
    bool ok = true;
    if (arg == "--port") {
      ok = ParseCount(value, 0, 65535, &count);
      flags->port = static_cast<uint16_t>(count);
    } else if (arg == "--side") {
      ok = ParsePositive(value, &flags->side);
    } else if (arg == "--capacity") {
      ok = ParseCount(value, 1, kAny, &count);
      flags->capacity = static_cast<size_t>(count);
    } else if (arg == "--max-depth") {
      ok = ParseCount(value, 0, kAny, &count);
      flags->max_depth = static_cast<size_t>(count);
    } else if (arg == "--wal") {
      flags->wal_path = value;
    } else if (arg == "--shards") {
      ok = ParseCount(value, 1, kAny, &count);
      flags->shards = static_cast<size_t>(count);
    } else if (arg == "--shard-dir") {
      flags->shard_dir = value;
    } else if (arg == "--split-cost") {
      ok = ParsePositive(value, &flags->split_cost);
    } else if (arg == "--merge-cost") {
      ok = ParsePositive(value, &flags->merge_cost);
    } else {
      std::cerr << "unknown or incomplete flag: " << arg << "\n";
      return false;
    }
    if (!ok) {
      std::cerr << "bad value for " << arg << ": " << value << "\n";
      return false;
    }
  }
  if (!flags->wal_path.empty() &&
      (flags->shards > 0 || !flags->shard_dir.empty())) {
    std::cerr << "--wal is the single-tree log; a sharded store logs "
                 "per shard under --shard-dir\n";
    return false;
  }
  // The router refuses (aborts on) thresholds without a hysteresis band;
  // refuse them here instead, against the defaults a flag leaves in place.
  const popan::shard::RebalanceConfig defaults;
  double split = flags->split_cost > 0.0 ? flags->split_cost
                                         : defaults.split_cost;
  double merge = flags->merge_cost > 0.0 ? flags->merge_cost
                                         : defaults.merge_cost;
  if (merge >= split) {
    std::cerr << "merge cost " << merge << " must stay below split cost "
              << split << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using popan::Status;
  using popan::StatusOr;
  namespace geo = popan::geo;
  namespace server = popan::server;
  namespace shard = popan::shard;
  namespace spatial = popan::spatial;

  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  geo::Box2 bounds = geo::Box2::UnitCube(flags.side);
  spatial::PrTreeOptions options;
  options.capacity = flags.capacity;
  options.max_depth = flags.max_depth;

  // Boot state kept alive for the server's whole life (the WAL writer
  // holds a pointer into its stream).
  server::BootResult boot;
  shard::RouterOptions router_options;
  router_options.tree = options;
  router_options.rebalance.enabled =
      flags.shards > 0 || !flags.shard_dir.empty();
  if (flags.shards > 0) {
    router_options.rebalance.max_shards = flags.shards;
  }
  if (flags.split_cost > 0.0) {
    router_options.rebalance.split_cost = flags.split_cost;
  }
  if (flags.merge_cost > 0.0) {
    router_options.rebalance.merge_cost = flags.merge_cost;
  }

  std::unique_ptr<shard::ShardRouter> router;
  if (!flags.shard_dir.empty()) {
    StatusOr<std::unique_ptr<shard::ShardRouter>> opened =
        shard::ShardRouter::Open(flags.shard_dir, bounds, router_options);
    if (!opened.ok()) {
      std::cerr << "cannot open shard store: "
                << opened.status().ToString() << "\n";
      return 1;
    }
    router = std::move(opened).value();
    std::cerr << "recovered " << router->size() << " points across "
              << router->shard_count() << " shards at sequence "
              << router->sequence() << "\n";
  } else {
    if (!flags.wal_path.empty()) {
      StatusOr<server::BootResult> booted =
          server::BootWithWal(flags.wal_path, bounds, options);
      if (!booted.ok()) {
        std::cerr << "WAL boot failed: " << booted.status().ToString()
                  << "\n";
        return 1;
      }
      boot = std::move(booted).value();
      if (boot.truncated_tail) {
        std::cerr << "note: discarded torn WAL tail ("
                  << boot.truncation_reason << ")\n";
      }
      if (!boot.fresh) {
        std::cerr << "recovered " << boot.seed_points.size()
                  << " points at WAL sequence " << boot.initial_sequence
                  << "\n";
      }
    }
    router = std::make_unique<shard::ShardRouter>(
        bounds, router_options, boot.initial_sequence, boot.seed_points);
  }
  server::ServerCore core(std::make_unique<server::ShardStoreBackend>(
      std::move(router), boot.wal.has_value() ? &*boot.wal : nullptr));

  server::SocketServer transport(&core);
  StatusOr<uint16_t> port = transport.Listen(flags.port);
  if (!port.ok()) {
    std::cerr << "listen failed: " << port.status().ToString() << "\n";
    return 1;
  }
  std::cout << "popan_server listening on 127.0.0.1:" << port.value()
            << std::endl;
  Status served = transport.Serve();
  if (!served.ok()) {
    std::cerr << "serve failed: " << served.ToString() << "\n";
    return 1;
  }
  return 0;
}
