// popbench trace: the per-layer ledger. The seeded op streams of the two
// server workloads are replayed in order, on one thread, through each
// layer's public entry point, from the prepared state the workload
// starts in:
//
//   spatial.prtree   PrTree<2> (in place)
//   spatial.cow      CowPrQuadtree writes; reads pin a snapshot
//                    (spatial.cow.pin) and run query::Execute on it
//                    (query)
//   spatial.wal      WalWriter appends into a file
//   shard            ShardRouter, k shards, rebalancing on
//   shard.1          ShardRouter, one shard, rebalancing off
//   server.core      ServerCore::ConsumeBytes + TakeOutput (single tree
//                    with WAL for serve_query, durable shards for
//                    ingest_sharded)
//   server.protocol  client-side request encode / response decode
//   socket           round trips of a traced socket run (read from the
//                    file popbench drive --spans wrote)
//
// Each op gets one span per layer, parented by the layer that calls it
// in the served path (socket > server.core > shard > spatial.cow >
// spatial.prtree; server.core > spatial.wal), so self time is a span
// minus its children. Every range, partial-match and k-NN answer must be
// bitwise equal across PrTree, the CoW snapshot, both routers and the
// ServerCore response (check c). The paper_sweep layers (PrTree inserts
// and census, sim ensembles) are timed on the sweep's own inputs.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <streambuf>
#include <thread>

#include "cli.h"
#include "core/query_model.h"
#include "ops.h"
#include "query/query.h"
#include "server/boot.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "server/shard_store.h"
#include "shard/key_range.h"
#include "shard/router.h"
#include "sim/distributions.h"
#include "sim/experiment.h"
#include "spans.h"
#include "spatial/pr_tree.h"
#include "spatial/snapshot_view.h"
#include "spatial/wal.h"
#include "stats.h"
#include "store_config.h"
#include "util/random.h"
#include "wire.h"

namespace popbench {

namespace geo = popan::geo;
namespace query = popan::query;
namespace server = popan::server;
namespace shard = popan::shard;
namespace sim = popan::sim;
namespace spatial = popan::spatial;

namespace {

// Ops replayed per connection.
constexpr uint64_t kServeOpsPerConn = 10000;
constexpr uint64_t kIngestOpsPerConn = 3000;
// Ingest op ids carry this bit so both streams share one span file.
constexpr uint64_t kIngestIdBit = uint64_t{1} << 62;

struct Stream {
  Workload workload;
  std::vector<geo::Point2> preload;
  std::vector<Op> ops;  ///< connections interleaved round-robin
};

Stream MakeStream(Workload w, uint64_t seed, uint64_t per_conn) {
  Stream s;
  s.workload = w;
  s.preload = PreparedPoints(w, seed);
  std::vector<OpStream> conns;
  for (size_t c = 0; c < kConnections; ++c) conns.emplace_back(w, seed, c);
  for (uint64_t i = 0; i < per_conn; ++i) {
    for (OpStream& c : conns) {
      s.ops.push_back(c.Next());
      if (w == Workload::kIngestSharded) s.ops.back().id |= kIngestIdBit;
    }
  }
  return s;
}

query::QuerySpec ToSpec(const Op& op) {
  switch (op.kind) {
    case OpKind::kPartialMatch:
      return query::QuerySpec::PartialMatch(op.axis, op.value);
    case OpKind::kNearestK:
      return query::QuerySpec::NearestK(op.point, op.k);
    default:
      return query::QuerySpec::Range(op.box);
  }
}

bool IsQuery(OpKind kind) {
  return kind == OpKind::kRange || kind == OpKind::kPartialMatch ||
         kind == OpKind::kNearestK;
}

// FNV-1a over the answer's coordinate bits; range and partial-match
// answers are put in canonical order first (their order is not part of
// the answer), k-NN answers are compared in the order returned.
uint64_t AnswerHash(const Op& op, std::vector<geo::Point2> points) {
  if (op.kind != OpKind::kNearestK) query::CanonicalizePointOrder(&points);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const geo::Point2& p : points) {
    for (double v : {p.x(), p.y()}) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h ^ points.size();
}

// Answers of one layer, by op position in the stream (0 = not a query).
using Answers = std::vector<uint64_t>;

// A streambuf that forwards to a file and counts what the WAL writer
// asks of it: bytes written and flushes (pubsync calls).
class CountingBuf : public std::streambuf {
 public:
  explicit CountingBuf(std::streambuf* sink) : sink_(sink) {}
  uint64_t bytes = 0;
  uint64_t flushes = 0;

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    ++bytes;
    return sink_->sputc(traits_type::to_char_type(ch));
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes += static_cast<uint64_t>(n);
    return sink_->sputn(s, n);
  }
  int sync() override {
    ++flushes;
    return sink_->pubsync();
  }

 private:
  std::streambuf* sink_;
};

// Per-layer samples, in nanoseconds unless named otherwise.
struct Ledger {
  SpanRecorder spans;
  std::vector<double> prtree_insert, prtree_census;
  std::vector<double> cow_insert, cow_erase, cow_pin;
  uint64_t cow_writes = 0, cow_retired = 0, limbo_peak = 0;
  std::vector<double> wal_append;
  uint64_t wal_records = 0, wal_bytes = 0, wal_flushes = 0;
  std::vector<double> q_range, q_knn, q_pm, cost_ratio;
  uint64_t q_nodes = 0, q_results = 0;
  std::vector<double> shard_insert, shard1_insert, shard_pin, shard_exec;
  double stall_ms_max = 0.0;
  uint64_t splits = 0, merges = 0, fanout = 0, fanout_queries = 0;
  double max_over_mean = 0.0;
  std::vector<double> core_write, core_read;
  double batch_ns = 0.0;
  uint64_t batch_points = 0, notifications = 0, ingest_writes = 0;
  std::vector<double> encode, decode;
  uint64_t response_bytes = 0, reads = 0;
  std::vector<double> transport_wait_us;
  double boot_points_per_s = 0.0;
  std::vector<double> ensemble_ms;
  double parallel_efficiency = 0.0;
  std::vector<std::string> notes;
};

// The caller of the CoW tree and the WAL in the served path: the shard
// router for ingest_sharded, ServerCore itself for serve_query.
std::string StoreParent(Workload w) {
  return w == Workload::kIngestSharded ? "shard" : "server.core";
}

Answers ReplayPrTree(const Stream& s, Ledger* L) {
  spatial::PrTree<2> tree(ServerBounds(), ServerTreeOptions());
  tree.ReserveForPoints(s.preload.size() + s.ops.size());
  for (const geo::Point2& p : s.preload) (void)tree.Insert(p);
  const uint16_t layer = L->spans.Layer("spatial.prtree");
  const uint16_t write_parent = L->spans.Layer("spatial.cow");
  const uint16_t read_parent = L->spans.Layer("query");
  Answers answers(s.ops.size(), 0);
  size_t partial_matches = 0;
  size_t nonempty = 0;
  for (size_t i = 0; i < s.ops.size(); ++i) {
    const Op& op = s.ops[i];
    const int64_t t0 = NowNs();
    if (op.kind == OpKind::kInsert) {
      (void)tree.Insert(op.point);
    } else if (op.kind == OpKind::kErase) {
      (void)tree.Erase(op.point);
    } else if (op.kind == OpKind::kInsertBatch) {
      for (const geo::Point2& p : op.batch) (void)tree.Insert(p);
    } else if (IsQuery(op.kind)) {
      query::QueryResult r = query::Execute(tree, ToSpec(op));
      const int64_t t1 = NowNs();
      L->spans.Record(layer, read_parent, op.id, t0, t1);
      if (op.kind == OpKind::kPartialMatch) {
        ++partial_matches;
        nonempty += r.points.empty() ? 0 : 1;
      }
      answers[i] = AnswerHash(op, std::move(r.points));
      continue;
    } else {
      continue;
    }
    L->spans.Record(layer, write_parent, op.id, t0, NowNs());
  }
  if (partial_matches > 0) {
    L->notes.push_back(std::string(WorkloadName(s.workload)) +
                       ": nonempty partial-match answers " +
                       std::to_string(nonempty) + " of " +
                       std::to_string(partial_matches));
  }
  return answers;
}

Answers ReplayCow(const Stream& s, Ledger* L) {
  spatial::CowPrQuadtree tree(ServerBounds(), ServerTreeOptions());
  for (const geo::Point2& p : s.preload) (void)tree.Insert(p);
  const bool serve = s.workload == Workload::kServeQuery;
  const uint16_t layer = L->spans.Layer("spatial.cow");
  const uint16_t pin_layer = L->spans.Layer("spatial.cow.pin");
  const uint16_t query_layer = L->spans.Layer("query");
  const uint16_t parent = L->spans.Layer(StoreParent(s.workload));
  spatial::EpochManager& epochs = tree.epochs();
  const uint64_t retired0 = epochs.objects_retired();
  uint64_t writes = 0;
  Answers answers(s.ops.size(), 0);
  popan::core::QueryCostModel model = popan::core::QueryCostModel::FromCensus(
      tree.LiveCensus(), ServerBounds());
  size_t since_model = 0;
  for (size_t i = 0; i < s.ops.size(); ++i) {
    const Op& op = s.ops[i];
    if (IsWrite(op.kind)) {
      const int64_t t0 = NowNs();
      if (op.kind == OpKind::kInsert) {
        (void)tree.Insert(op.point);
      } else if (op.kind == OpKind::kErase) {
        (void)tree.Erase(op.point);
      } else {
        for (const geo::Point2& p : op.batch) (void)tree.Insert(p);
      }
      const int64_t t1 = NowNs();
      L->spans.Record(layer, parent, op.id, t0, t1);
      ++writes;
      if (serve) {
        (op.kind == OpKind::kErase ? L->cow_erase : L->cow_insert)
            .push_back(static_cast<double>(t1 - t0));
        L->limbo_peak = std::max<uint64_t>(L->limbo_peak, epochs.limbo_size());
      }
      continue;
    }
    if (!IsQuery(op.kind)) continue;
    const int64_t t0 = NowNs();
    popan::StatusOr<spatial::SnapshotView2> snap = tree.TrySnapshot();
    const int64_t t1 = NowNs();
    if (!snap.ok()) continue;
    const query::QuerySpec spec = ToSpec(op);
    query::QueryResult r = query::Execute(snap.value(), spec);
    const int64_t t2 = NowNs();
    if (serve && op.kind == OpKind::kRange && since_model++ % 256 == 0) {
      model = popan::core::QueryCostModel::FromCensus(snap.value().LiveCensus(),
                                                      ServerBounds());
    }
    const int64_t t3 = NowNs();
    { popan::StatusOr<spatial::SnapshotView2> release = std::move(snap); }
    const int64_t t4 = NowNs();
    L->spans.Record(pin_layer, parent, op.id, t0, t1);
    L->spans.Record(query_layer, parent, op.id, t1, t2);
    if (serve) {
      L->cow_pin.push_back(static_cast<double>((t1 - t0) + (t4 - t3)));
      const double ns = static_cast<double>(t2 - t1);
      if (op.kind == OpKind::kRange) {
        L->q_range.push_back(ns);
        const double predicted =
            model.PredictRange(op.box.Extent(0), op.box.Extent(1)).nodes;
        if (predicted > 0) {
          L->cost_ratio.push_back(
              static_cast<double>(r.cost.nodes_visited) / predicted);
        }
      } else if (op.kind == OpKind::kNearestK) {
        L->q_knn.push_back(ns);
      } else {
        L->q_pm.push_back(ns);
      }
      L->q_nodes += r.cost.nodes_visited;
      L->q_results += r.points.size();
    }
    answers[i] = AnswerHash(op, std::move(r.points));
  }
  if (serve) {
    L->cow_writes = writes;
    L->cow_retired = epochs.objects_retired() - retired0;
  }
  return answers;
}

void ReplayWal(const Stream& s, const std::string& path, Ledger* L) {
  std::filebuf file;
  file.open(path, std::ios::out | std::ios::trunc | std::ios::binary);
  CountingBuf counting(&file);
  std::ostream out(&counting);
  spatial::WalWriter wal(&out, ServerBounds(), ServerTreeOptions(),
                         s.preload.size());
  const bool ingest = s.workload == Workload::kIngestSharded;
  const uint16_t layer = L->spans.Layer("spatial.wal");
  const uint16_t parent = L->spans.Layer(StoreParent(s.workload));
  const uint64_t bytes0 = counting.bytes;
  const uint64_t flushes0 = counting.flushes;
  uint64_t records = 0;
  auto append = [&](char kind, const geo::Point2& p) {
    const int64_t t0 = NowNs();
    (void)(kind == 'I' ? wal.LogInsert(p) : wal.LogErase(p));
    const int64_t t1 = NowNs();
    if (ingest) L->wal_append.push_back(static_cast<double>(t1 - t0));
    ++records;
  };
  for (const Op& op : s.ops) {
    if (!IsWrite(op.kind)) continue;
    const int64_t t0 = NowNs();
    if (op.kind == OpKind::kInsertBatch) {
      for (const geo::Point2& p : op.batch) append('I', p);
    } else {
      append(op.kind == OpKind::kInsert ? 'I' : 'E', op.point);
    }
    L->spans.Record(layer, parent, op.id, t0, NowNs());
  }
  if (ingest) {
    L->wal_records = records;
    L->wal_bytes = counting.bytes - bytes0;
    L->wal_flushes = counting.flushes - flushes0;
  }
  out.flush();
  file.close();
  std::filesystem::remove(path);
}

// Shards a query must visit, by the same footprint tests shard::Execute
// prunes with (k-NN visits every shard).
size_t Fanout(const shard::MultiSnapshot& snap, const Op& op) {
  size_t touched = 0;
  for (const shard::MultiSnapshot::Entry& e : snap.entries()) {
    bool touches = true;
    if (op.kind == OpKind::kRange) {
      touches = shard::RangeTouchesBox(snap.domain(), e.range, op.box);
    } else if (op.kind == OpKind::kPartialMatch) {
      touches = shard::RangeTouchesAxisValue(snap.domain(), e.range, op.axis,
                                             op.value);
    }
    if (touches) ++touched;
  }
  return touched;
}

Answers ReplayRouter(const Stream& s, bool k_shards, Ledger* L) {
  shard::RouterOptions options = IngestRouterOptions();
  if (!k_shards) options.rebalance.enabled = false;
  shard::ShardRouter router(ServerBounds(), options);
  const bool ingest = s.workload == Workload::kIngestSharded;
  // The preload is timed only to catch rebalancing stalls: the longest
  // Insert during which a split or merge happened.
  auto timed_insert = [&](const geo::Point2& p) {
    const uint64_t moves = router.splits() + router.merges();
    const int64_t t0 = NowNs();
    (void)router.Insert(p);
    const int64_t t1 = NowNs();
    if (ingest && k_shards && router.splits() + router.merges() != moves) {
      L->stall_ms_max =
          std::max(L->stall_ms_max, static_cast<double>(t1 - t0) / 1e6);
    }
    return static_cast<double>(t1 - t0);
  };
  for (const geo::Point2& p : s.preload) timed_insert(p);
  const uint16_t layer = L->spans.Layer(k_shards ? "shard" : "shard.1");
  // Only the ingest server routes through k shards; the other router
  // replays are stand-alone comparisons.
  const uint16_t parent =
      ingest && k_shards ? L->spans.Layer("server.core") : Span::kRoot;
  std::vector<double>& inserts = k_shards ? L->shard_insert : L->shard1_insert;
  Answers answers(s.ops.size(), 0);
  for (size_t i = 0; i < s.ops.size(); ++i) {
    const Op& op = s.ops[i];
    const int64_t t0 = NowNs();
    if (op.kind == OpKind::kInsert || op.kind == OpKind::kInsertBatch) {
      const std::vector<geo::Point2> one{op.point};
      for (const geo::Point2& p :
           op.kind == OpKind::kInsert ? one : op.batch) {
        const double ns = timed_insert(p);
        if (ingest) inserts.push_back(ns);
      }
    } else if (op.kind == OpKind::kErase) {
      (void)router.Erase(op.point);
    } else if (IsQuery(op.kind)) {
      popan::StatusOr<shard::MultiSnapshot> snap = router.TrySnapshot();
      const int64_t t1 = NowNs();
      if (!snap.ok()) continue;
      query::QueryResult r = shard::Execute(snap.value(), ToSpec(op));
      const int64_t t2 = NowNs();
      if (ingest && k_shards) {
        L->shard_pin.push_back(static_cast<double>(t1 - t0));
        L->shard_exec.push_back(static_cast<double>(t2 - t1));
        L->fanout += Fanout(snap.value(), op);
        ++L->fanout_queries;
      }
      answers[i] = AnswerHash(op, std::move(r.points));
    } else {
      continue;
    }
    L->spans.Record(layer, parent, op.id, t0, NowNs());
  }
  if (ingest && k_shards) {
    L->splits = router.splits();
    L->merges = router.merges();
    double max_cost = 0.0;
    double sum_cost = 0.0;
    const std::vector<shard::ShardInfo> shards = router.Shards();
    for (const shard::ShardInfo& info : shards) {
      max_cost = std::max(max_cost, info.predicted_cost);
      sum_cost += info.predicted_cost;
    }
    if (sum_cost > 0) {
      L->max_over_mean = max_cost / (sum_cost / shards.size());
    }
  }
  return answers;
}

// The response payload in `output` (skipping notification frames).
std::string ResponsePayload(const std::string& output) {
  size_t offset = 0;
  std::string_view payload;
  popan::Status error;
  std::string last;
  while (server::NextFrame(output, &offset, &payload, &error)) {
    if (!payload.empty() &&
        static_cast<uint8_t>(payload[0]) !=
            static_cast<uint8_t>(server::MsgType::kNotification)) {
      last.assign(payload.data(), payload.size());
    }
  }
  return last;
}

Answers ReplayServerCore(const Stream& s, const std::string& work,
                         Ledger* L) {
  const bool serve = s.workload == Workload::kServeQuery;
  std::unique_ptr<std::ofstream> wal_file;
  std::unique_ptr<spatial::WalWriter> wal;
  std::unique_ptr<server::ServerCore> core;
  const std::string wal_path = work + "/trace_core.wal";
  const std::string shard_dir = work + "/trace_shards";
  if (serve) {
    wal_file = std::make_unique<std::ofstream>(wal_path, std::ios::trunc);
    wal = std::make_unique<spatial::WalWriter>(
        wal_file.get(), ServerBounds(), ServerTreeOptions(),
        s.preload.size());
    core = std::make_unique<server::ServerCore>(
        ServerBounds(), ServerTreeOptions(), wal.get(), s.preload.size(),
        s.preload);
  } else {
    std::filesystem::remove_all(shard_dir);
    std::filesystem::create_directories(shard_dir);
    popan::StatusOr<std::unique_ptr<shard::ShardRouter>> router =
        shard::ShardRouter::Open(shard_dir, ServerBounds(),
                                 IngestRouterOptions());
    POPAN_CHECK(router.ok()) << router.status().ToString();
    for (const geo::Point2& p : s.preload) (void)router.value()->Insert(p);
    core = std::make_unique<server::ServerCore>(
        std::make_unique<server::ShardStoreBackend>(
            std::move(router).value()));
  }
  std::vector<uint64_t> clients;
  for (size_t c = 0; c < kConnections; ++c) clients.push_back(core->OpenClient());
  const uint16_t layer = L->spans.Layer("server.core");
  const uint16_t parent = L->spans.Layer("socket");
  const uint16_t encode_layer = L->spans.Layer("server.protocol.encode");
  const uint16_t decode_layer = L->spans.Layer("server.protocol.decode");
  Answers answers(s.ops.size(), 0);
  for (size_t i = 0; i < s.ops.size(); ++i) {
    const Op& op = s.ops[i];
    const uint64_t client = clients[OpConnection(op.id & ~kIngestIdBit)];
    const int64_t e0 = NowNs();
    const std::string frame = server::EncodeRequestFrame(ToRequest(op));
    const int64_t t0 = NowNs();
    const uint64_t sent0 = core->notifications_sent();
    (void)core->ConsumeBytes(client, frame);
    const std::string output = core->TakeOutput(client);
    const int64_t t1 = NowNs();
    const std::string payload = ResponsePayload(output);
    popan::StatusOr<server::Response> r =
        server::DecodeResponsePayload(payload);
    const int64_t t2 = NowNs();
    L->spans.Record(encode_layer, Span::kRoot, op.id, e0, t0);
    L->spans.Record(layer, parent, op.id, t0, t1);
    L->spans.Record(decode_layer, Span::kRoot, op.id, t1, t2);
    const double ns = static_cast<double>(t1 - t0);
    if (serve) {
      L->encode.push_back(static_cast<double>(t0 - e0));
      L->decode.push_back(static_cast<double>(t2 - t1));
      (IsWrite(op.kind) ? L->core_write : L->core_read).push_back(ns);
      if (IsRead(op.kind)) {
        L->response_bytes += payload.size() + 4;
        ++L->reads;
      }
    } else if (IsWrite(op.kind)) {
      ++L->ingest_writes;
      L->notifications += core->notifications_sent() - sent0;
      if (op.kind == OpKind::kInsertBatch) {
        L->batch_ns += ns;
        L->batch_points += op.batch.size();
      }
    }
    if (IsQuery(op.kind) && r.ok()) {
      answers[i] = AnswerHash(op, std::move(r.value().points));
    }
  }
  core.reset();
  wal.reset();
  wal_file.reset();
  std::filesystem::remove(wal_path);
  std::filesystem::remove_all(shard_dir);
  return answers;
}

// Check (c): every query answer equal across the layers. Returns
// (queries compared, queries that differ).
std::pair<uint64_t, uint64_t> CompareAnswers(
    const Stream& s, const std::vector<Answers>& layers,
    const std::vector<std::string>& names, Ledger* L) {
  uint64_t compared = 0;
  uint64_t differ = 0;
  for (size_t i = 0; i < s.ops.size(); ++i) {
    if (!IsQuery(s.ops[i].kind)) continue;
    ++compared;
    for (size_t l = 1; l < layers.size(); ++l) {
      if (layers[l][i] != layers[0][i]) {
        if (differ < 5) {
          L->notes.push_back(std::string("parity: ") +
                             WorkloadName(s.workload) + " op " +
                             std::to_string(i) + " differs at " + names[l]);
        }
        ++differ;
        break;
      }
    }
  }
  return {compared, differ};
}

void JoinSocketSpans(const std::string& path, Ledger* L) {
  std::ifstream in(path);
  const uint16_t socket = L->spans.Layer("socket");
  const std::map<uint64_t, int64_t> core =
      L->spans.DurationsByOp(L->spans.Layer("server.core"));
  uint64_t id = 0;
  int64_t start = 0;
  int64_t end = 0;
  while (in >> id >> start >> end) {
    auto it = core.find(id);
    if (it == core.end()) continue;
    L->spans.Record(socket, Span::kRoot, id, start, end);
    L->transport_wait_us.push_back(
        static_cast<double>(end - start - it->second) / 1000.0);
  }
}

void MeasureBoot(const std::string& log, Ledger* L) {
  const int64_t t0 = NowNs();
  popan::StatusOr<server::BootResult> boot =
      server::BootWithWal(log, ServerBounds(), ServerTreeOptions());
  const int64_t t1 = NowNs();
  if (boot.ok()) {
    L->boot_points_per_s = static_cast<double>(boot.value().seed_points.size()) /
                           (static_cast<double>(t1 - t0) / 1e9);
  } else {
    L->notes.push_back("boot: " + boot.status().ToString());
  }
}

// The paper_sweep layers: PrTree inserts and LiveCensus on a 2^20-point
// uniform tree (m = 8, the Table 4 setting), and one (m = 8, N = 65536,
// ten trees) ensemble at one thread and at nproc threads.
void MeasurePaperLayers(uint64_t seed, Ledger* L) {
  spatial::PrTreeOptions options;
  options.capacity = 8;
  options.max_depth = 16;
  constexpr size_t kPoints = size_t{1} << 20;
  spatial::PrTree<2> tree(geo::Box2::UnitCube(), options);
  tree.ReserveForPoints(kPoints);
  popan::Pcg32 rng(seed);
  L->prtree_insert.reserve(kPoints);
  while (tree.size() < kPoints) {
    const geo::Point2 p = sim::DrawPoint<2>(
        sim::PointDistributionKind::kUniform, {}, tree.bounds(), rng);
    const int64_t t0 = NowNs();
    const popan::Status s = tree.Insert(p);
    const int64_t t1 = NowNs();
    if (s.ok()) L->prtree_insert.push_back(static_cast<double>(t1 - t0));
    if (tree.size() % 1024 == 0) {
      const int64_t c0 = NowNs();
      const spatial::Census census = tree.LiveCensus();
      const int64_t c1 = NowNs();
      if (census.ItemCount() == tree.size()) {
        L->prtree_census.push_back(static_cast<double>(c1 - c0));
      }
    }
  }

  sim::ExperimentSpec spec;
  spec.num_points = 65536;
  spec.trials = 10;
  spec.capacity = 8;
  spec.max_depth = 16;
  spec.base_seed = seed;
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> one_ms;
  std::vector<double> many_ms;
  for (size_t t : {size_t{1}, threads}) {
    sim::ExperimentRunner runner(t);
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t t0 = NowNs();
      sim::ExperimentResult r = sim::RunPrQuadtreeExperiment(spec, runner);
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      (t == 1 ? one_ms : many_ms).push_back(ms);
      if (r.pooled_census.ItemCount() != spec.trials * spec.num_points) {
        L->notes.push_back("sim: ensemble lost points");
      }
    }
  }
  L->ensemble_ms = one_ms;
  L->parallel_efficiency =
      Median(one_ms) / (static_cast<double>(threads) * Median(many_ms));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int RunTrace(const Args& args) {
  const uint64_t seed = args.U64("seed", 1);
  const std::string work = args.Str("work", ".");
  const std::string log = args.Str("log", "");
  const std::string spans_path = args.Str("spans", "");
  Ledger L;
  uint64_t compared = 0;
  uint64_t differ = 0;
  for (Workload w : {Workload::kServeQuery, Workload::kIngestSharded}) {
    const Stream s = MakeStream(
        w, seed,
        w == Workload::kServeQuery ? kServeOpsPerConn : kIngestOpsPerConn);
    std::vector<Answers> answers;
    answers.push_back(ReplayPrTree(s, &L));
    answers.push_back(ReplayCow(s, &L));
    ReplayWal(s, work + "/trace.wal", &L);
    answers.push_back(ReplayRouter(s, /*k_shards=*/false, &L));
    answers.push_back(ReplayRouter(s, /*k_shards=*/true, &L));
    answers.push_back(ReplayServerCore(s, work, &L));
    const auto [c, d] = CompareAnswers(
        s, answers, {"spatial.prtree", "spatial.cow", "shard.1", "shard",
                     "server.core"},
        &L);
    compared += c;
    differ += d;
  }
  if (args.Has("socket-spans")) JoinSocketSpans(args.Str("socket-spans", ""), &L);
  if (!log.empty()) MeasureBoot(log, &L);
  MeasurePaperLayers(seed, &L);
  if (!spans_path.empty() && !L.spans.WriteTsv(spans_path)) {
    L.notes.push_back("cannot write " + spans_path);
  }

  auto pct = [](std::vector<double> v, double q) {
    return ReportPercentile(&v, q);
  };
  Json m;
  m.Pct("spatial.prtree.insert_ns_p50", pct(L.prtree_insert, 50), "ns")
      .Pct("spatial.prtree.insert_ns_p99", pct(L.prtree_insert, 99), "ns")
      .Pct("spatial.prtree.census_ns_p50", pct(L.prtree_census, 50), "ns")
      .Pct("spatial.cow.insert_ns_p50", pct(L.cow_insert, 50), "ns")
      .Pct("spatial.cow.insert_ns_p99", pct(L.cow_insert, 99), "ns")
      .Pct("spatial.cow.erase_ns_p50", pct(L.cow_erase, 50), "ns")
      .Pct("spatial.cow.pin_ns_p50", pct(L.cow_pin, 50), "ns")
      .Obj("spatial.epoch.retired_per_write",
           Metric(Ratio(L.cow_retired, L.cow_writes), "count"))
      .Obj("spatial.epoch.limbo_peak", Metric(L.limbo_peak, "count"))
      .Pct("spatial.wal.append_ns_p50", pct(L.wal_append, 50), "ns")
      .Pct("spatial.wal.append_ns_p99", pct(L.wal_append, 99), "ns")
      .Obj("spatial.wal.flushes_per_record",
           Metric(Ratio(L.wal_flushes, L.wal_records), "count"))
      .Obj("spatial.wal.bytes_per_record",
           Metric(Ratio(L.wal_bytes, L.wal_records), "B"))
      .Pct("query.range_ns_p50", pct(L.q_range, 50), "ns")
      .Pct("query.range_ns_p99", pct(L.q_range, 99), "ns")
      .Pct("query.knn_ns_p50", pct(L.q_knn, 50), "ns")
      .Pct("query.partial_match_ns_p50", pct(L.q_pm, 50), "ns")
      .Obj("query.nodes_per_result",
           Metric(Ratio(L.q_nodes, L.q_results), "count"))
      .Obj("core.range_cost_ratio", Metric(Median(L.cost_ratio), "ratio"))
      .Pct("shard.insert_ns_p50", pct(L.shard_insert, 50), "ns")
      .Pct("shard.insert_ns_p99", pct(L.shard_insert, 99), "ns")
      .Pct("shard.insert_1shard_ns_p50", pct(L.shard1_insert, 50), "ns")
      .Obj("shard.rebalance_stall_ms_max", Metric(L.stall_ms_max, "ms"))
      .Obj("shard.splits", Metric(L.splits, "count"))
      .Obj("shard.merges", Metric(L.merges, "count"))
      .Pct("shard.pin_ns_p50", pct(L.shard_pin, 50), "ns")
      .Pct("shard.execute_ns_p50", pct(L.shard_exec, 50), "ns")
      .Obj("shard.fanout_per_query",
           Metric(Ratio(L.fanout, L.fanout_queries), "count"))
      .Obj("shard.max_over_mean_cost", Metric(L.max_over_mean, "ratio"))
      .Pct("server.core.write_ns_p50", pct(L.core_write, 50), "ns")
      .Pct("server.core.write_ns_p99", pct(L.core_write, 99), "ns")
      .Pct("server.core.read_ns_p50", pct(L.core_read, 50), "ns")
      .Pct("server.core.read_ns_p99", pct(L.core_read, 99), "ns")
      .Obj("server.core.batch_ns_per_point",
           Metric(Ratio(L.batch_ns, L.batch_points), "ns"))
      .Obj("server.core.notifications_per_write",
           Metric(Ratio(L.notifications, L.ingest_writes), "count"))
      .Pct("server.protocol.encode_ns_p50", pct(L.encode, 50), "ns")
      .Pct("server.protocol.decode_ns_p50", pct(L.decode, 50), "ns")
      .Obj("server.response_bytes_per_read",
           Metric(Ratio(L.response_bytes, L.reads), "B"))
      .Pct("server.transport_wait_us_p50", pct(L.transport_wait_us, 50), "us")
      .Obj("server.boot.points_per_s", Metric(L.boot_points_per_s, "1/s"))
      .Pct("sim.ensemble_ms_p50", pct(L.ensemble_ms, 50), "ms")
      .Obj("sim.parallel_efficiency", Metric(L.parallel_efficiency, "ratio"));

  // Median self time per layer, for the report.
  std::vector<std::string> notes = L.notes;
  {
    const std::vector<int64_t> self = L.spans.SelfTimes();
    std::map<std::string, std::vector<double>> by_layer;
    for (size_t i = 0; i < self.size(); ++i) {
      by_layer[L.spans.name(L.spans.spans()[i].layer)].push_back(
          static_cast<double>(self[i]));
    }
    for (auto& [name, v] : by_layer) {
      notes.push_back("self time " + name + ": median " +
                      std::to_string(static_cast<int64_t>(Median(v))) +
                      " ns over " + std::to_string(v.size()) + " spans");
    }
  }
  Json out;
  out.Obj("metrics", m)
      .Int("attempted", compared)
      .Int("failed", differ)
      .StrList("notes", notes);
  std::cout << out.Dump() << std::endl;
  return 0;
}

}  // namespace popbench
