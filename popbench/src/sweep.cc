// popbench sweep: the paper_sweep workload, in process, on nproc - 1
// runner threads, through sim::RunPrQuadtreeExperiment. Each pass runs
//
//   - 125 rounds of the paper-size ensembles, each round the Table 1-2
//     ensembles (ten trees of N = 1000 points, m = 1..8) and the Table
//     4/5 steps (ten trees, m = 8, N on the paper's 64..4096 log
//     schedule, uniform and Gaussian),
//   - the Table 4/5 extension past the paper (ten trees, m = 8, N =
//     16384 * 4^k up to 2^20, uniform and Gaussian), whose largest trees
//     outgrow the caches,
//
// until the clock runs out. Every ensemble is checked: its pooled census
// holds exactly trials x N points, and the small-N slice (everything but
// the three largest extension steps) is bit-identical to the one-thread
// rerun made during set-up.
//
// There is no wire here, so the request and latency metrics time
// ensemble calls: a "read" is one Table 1-2 ensemble, a "write" one
// paper-size Table 4/5 step. A pass holds 1000 reads and 3250 writes,
// so a chunk of 1000 has a p99 with ten samples beyond it.
// RunPrQuadtreeExperiment (not RunOccupancySweep) is used for the sweep
// steps because only it returns the pooled census check (e) needs.

#include <sys/resource.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "cli.h"
#include "core/phasing.h"
#include "sim/distributions.h"
#include "sim/experiment.h"
#include "spans.h"
#include "spatial/serialization.h"
#include "stats.h"
#include "util/random.h"

namespace popbench {

namespace sim = popan::sim;

namespace {

enum class Part { kTable12, kTable45, kExtension };

struct Ensemble {
  sim::ExperimentSpec spec;
  Part part = Part::kTable12;
  bool small = false;  ///< in the slice checked against one thread
};

constexpr size_t kRounds = 125;  // a pass: 125 x 8 reads, 125 x 26 writes
constexpr size_t kChunk = 1000;  // latency samples per percentile chunk
constexpr int kSetupRepeats = 5;
constexpr size_t kSmallN = 16384;
constexpr size_t kLargestN = size_t{1} << 20;

sim::ExperimentSpec Table45Spec(sim::PointDistributionKind kind, size_t n,
                                uint64_t seed) {
  sim::ExperimentSpec spec;
  spec.num_points = n;
  spec.trials = 10;
  spec.capacity = 8;
  spec.max_depth = 16;
  spec.distribution = kind;
  spec.distribution_params.gaussian_sigma_fraction = 0.25;  // Table 5's
  spec.base_seed = seed * 1000 + 100 + n;
  return spec;
}

// The distinct ensembles of a pass, each once. A pass repeats the
// paper-size ones kRounds times, so every run of one ensemble must give
// the same answer.
std::vector<Ensemble> SweepPlan(uint64_t seed) {
  std::vector<Ensemble> plan;
  for (size_t m = 1; m <= 8; ++m) {
    Ensemble e;
    e.spec.num_points = 1000;
    e.spec.trials = 10;
    e.spec.capacity = m;
    e.spec.max_depth = 16;
    e.spec.base_seed = seed * 1000 + m;
    e.small = true;
    plan.push_back(e);
  }
  for (auto kind : {sim::PointDistributionKind::kUniform,
                    sim::PointDistributionKind::kGaussian}) {
    for (size_t n : popan::core::LogarithmicSchedule(64, 4096)) {
      plan.push_back(
          Ensemble{Table45Spec(kind, n, seed), Part::kTable45, true});
    }
    for (size_t n = kSmallN; n <= kLargestN; n *= 4) {
      plan.push_back(Ensemble{Table45Spec(kind, n, seed), Part::kExtension,
                              n <= kSmallN});
    }
  }
  return plan;
}

// Everything the bit-identity check compares, as a string.
std::string Fingerprint(const sim::ExperimentResult& r) {
  std::string out = r.pooled_census.ToString();
  for (double v : {r.mean_occupancy, r.stddev_occupancy, r.mean_leaves}) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    out += ' ' + std::to_string(bits);
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

int RunSweep(const Args& args) {
  const uint64_t seed = args.U64("seed", 1);
  const double seconds = args.Num("seconds", 10);
  const std::string work = args.Str("work", ".");
  // nproc - 1 runner threads: one CPU stays free for the system, which
  // keeps a neighbour's burst from stalling a whole ensemble round.
  const size_t threads =
      std::max(2u, std::thread::hardware_concurrency()) - 1;
  const std::vector<Ensemble> plan = SweepPlan(seed);

  // Set-up, kSetupRepeats times (median reported): the one-thread
  // reference of the small-N slice.
  std::vector<std::string> reference;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    sim::ExperimentRunner serial(1);
    reference.clear();
    for (const Ensemble& e : plan) {
      reference.push_back(
          e.small ? Fingerprint(sim::RunPrQuadtreeExperiment(e.spec, serial))
                  : std::string());
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  sim::ExperimentRunner runner(threads);
  FailureLedger ledger;
  // Latencies in run order, chunked when the run ends; throughputs are
  // medians over passes.
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> points_per_s;
  std::vector<double> ensembles_per_s;
  uint64_t points = 0;
  uint64_t ensembles = 0;
  auto run = [&](size_t i) {
    const Ensemble& e = plan[i];
    ++ledger.attempted;
    const int64_t t0 = NowNs();
    sim::ExperimentResult r = sim::RunPrQuadtreeExperiment(e.spec, runner);
    const double us = static_cast<double>(NowNs() - t0) / 1000.0;
    ++ledger.answered;
    if (e.part == Part::kTable12) read_us.push_back(us);
    if (e.part == Part::kTable45) write_us.push_back(us);
    const bool complete =
        r.pooled_census.ItemCount() == e.spec.trials * e.spec.num_points;
    const bool identical = !e.small || Fingerprint(r) == reference[i];
    if (!complete || !identical) ++ledger.wrong;
    points += e.spec.trials * e.spec.num_points;
    ++ensembles;
  };
  size_t passes = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (passes == 0 || NowNs() < deadline) {
    const int64_t pass_start = NowNs();
    points = 0;
    ensembles = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].part != Part::kExtension) run(i);
      }
    }
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].part == Part::kExtension) run(i);
    }
    const double pass_s = static_cast<double>(NowNs() - pass_start) / 1e9;
    points_per_s.push_back(static_cast<double>(points) / pass_s);
    ensembles_per_s.push_back(static_cast<double>(ensembles) / pass_s);
    ++passes;
  }
  const double peak_rss_mb = PeakRssMb();

  // The storage cost of the sweep's largest uniform tree, written as a
  // checkpoint snapshot (the form a PR tree takes on disk).
  popan::spatial::PrTreeOptions options;
  options.capacity = 8;
  options.max_depth = 16;
  popan::spatial::PrTree<2> tree(popan::geo::Box2::UnitCube(), options);
  popan::Pcg32 rng(seed);
  tree.ReserveForPoints(kLargestN);
  while (tree.size() < kLargestN) {
    (void)tree.Insert(sim::DrawPoint<2>(sim::PointDistributionKind::kUniform,
                                        {}, tree.bounds(), rng));
  }
  const std::string snapshot = work + "/sweep_snapshot.bin";
  uint64_t snapshot_bytes = 0;
  {
    std::ofstream out(snapshot, std::ios::binary | std::ios::trunc);
    if (!popan::spatial::WriteSnapshot(tree, 0, &out).ok()) ++ledger.wrong;
  }
  snapshot_bytes = std::filesystem::file_size(snapshot);
  std::filesystem::remove(snapshot);

  Json out;
  out.Str("workload", "paper_sweep")
      .Obj("setup_s", Metric(Median(setup_s), "s"))
      .Obj("requests_per_s", Metric(Median(ensembles_per_s), "1/s"))
      .Obj("points_per_s", Metric(Median(points_per_s), "1/s"))
      .Pct("read_p50_us", MedianOfChunks(Chunks(read_us, kChunk), 50), "us")
      .Pct("read_p99_us", MedianOfChunks(Chunks(read_us, kChunk), 99), "us")
      .Pct("write_p50_us", MedianOfChunks(Chunks(write_us, kChunk), 50), "us")
      .Pct("write_p99_us", MedianOfChunks(Chunks(write_us, kChunk), 99),
           "us")
      .Obj("peak_rss_mb", Metric(peak_rss_mb, "MB"))
      .Obj("store_bytes_per_point",
           Metric(static_cast<double>(snapshot_bytes) / kLargestN, "B"))
      .Int("attempted", ledger.attempted)
      .Int("failed", ledger.failed())
      .Int("passes", passes)
      .Int("threads", threads);
  std::cout << out.Dump() << std::endl;
  return 0;
}

}  // namespace popbench
