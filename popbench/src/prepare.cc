// popbench prepare: writes the store a server workload boots from.
//
//   serve_query     a single-tree WAL of kServePreparedPoints uniform
//                   points (popan_server --wal PATH replays it)
//   ingest_sharded  a durable shard directory of kIngestPreparedPoints
//                   Zipf-clustered points (popan_server --shards 8
//                   --shard-dir PATH recovers it)

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "cli.h"
#include "ops.h"
#include "shard/router.h"
#include "spatial/wal.h"
#include "store_config.h"

namespace popbench {

namespace geo = popan::geo;

int RunPrepare(const Args& args) {
  Workload w;
  if (!ParseWorkload(args.Str("workload", ""), &w) ||
      w == Workload::kPaperSweep || !args.Has("out")) {
    std::cerr << "prepare needs --workload serve_query|ingest_sharded "
                 "--seed S --out PATH\n";
    return 2;
  }
  const uint64_t seed = args.U64("seed", 1);
  const std::string out = args.Str("out", "");
  const std::vector<geo::Point2> points = PreparedPoints(w, seed);

  if (w == Workload::kServeQuery) {
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    popan::spatial::WalWriter wal(&file, ServerBounds(), ServerTreeOptions());
    for (const geo::Point2& p : points) {
      popan::StatusOr<uint64_t> seq = wal.LogInsert(p);
      if (!seq.ok()) {
        std::cerr << "WAL append failed: " << seq.status().ToString() << "\n";
        return 1;
      }
    }
    file.flush();
    if (!file) {
      std::cerr << "cannot write " << out << "\n";
      return 1;
    }
  } else {
    std::filesystem::create_directories(out);
    popan::StatusOr<std::unique_ptr<popan::shard::ShardRouter>> router =
        popan::shard::ShardRouter::Open(out, ServerBounds(),
                                        IngestRouterOptions());
    if (!router.ok()) {
      std::cerr << "cannot open shard store: " << router.status().ToString()
                << "\n";
      return 1;
    }
    for (const geo::Point2& p : points) {
      popan::Status s = router.value()->Insert(p);
      if (!s.ok()) {
        std::cerr << "insert failed: " << s.ToString() << "\n";
        return 1;
      }
    }
    router.value()->FlushWals();
  }
  Json result;
  result.Str("workload", WorkloadName(w)).Int("points", points.size());
  std::cout << result.Dump() << std::endl;
  return 0;
}

}  // namespace popbench
