#!/usr/bin/env python3
"""The popan benchmark: one command, three workloads, a per-layer ledger.

    python3 popbench/run.py --workload serve_query --seed 1 --seconds 10 --trace 0

Run it from the root of a popan checkout. It builds popbench/ (which
compiles the repository's src/ and the shipped popan_server) into
.bench_build/, prepares the workload's inputs from --seed under
.bench_work/, measures for --seconds, checks the answers, and prints one
JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
ledger instead and reports the per-layer metrics (spans go to
.bench_out/). See popbench/README.md for what each number means.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve_query", "ingest_sharded", "paper_sweep")
SETUP_REPEATS = 5
BOOT_TIMEOUT_S = 120
# The WAL flush policy is the program's own: WalWriter flushes every
# record to the page cache and never syncs. Both sides of a comparison
# run with it; the result states it.
WAL_POLICY = "program default: flush each WAL record to the page cache, no fsync"


def log(msg):
    print(msg, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "popbench")


def build():
    """Configures and builds popbench and popan_server; returns the build
    directory. Build output goes to a log file, not stdout."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as f:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                      "popbench", "popan_server_main"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                f.flush()
                with open(log_path) as r:
                    sys.stderr.write(r.read()[-4000:])
                raise SystemExit("popbench: build failed")
    return out


def source_id():
    """The commit, or a hash of src/ when the checkout is not a git repo."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_split():
    """(server CPUs, client CPUs) for the socket workloads: the
    single-threaded server gets the last allowed CPU (CPU 0 tends to take
    the system's interrupts) and the client the rest. Unpinned, the
    scheduler's placement of the server beside the client threads flips
    runs between latency regimes up to 2x apart."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


def pinned(cpus):
    """A preexec_fn that confines the child to `cpus` (None: no pinning)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def run_json(cmd, timeout=170, cpus=None):
    """Runs a popbench subcommand and returns its last stdout line as JSON."""
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=pinned(cpus))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("popbench: %s exited with %d"
                         % (" ".join(cmd[:2]), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Server:
    """A popan_server child process. start() returns the boot time: spawn
    until the "listening" line, recovery of the store included."""

    def __init__(self, binary, args, cpus):
        self.cmd = [binary, "--port", "0"] + args
        self.cpus = cpus
        self.proc = None
        self.port = None
        self.stderr = ""

    def start(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True,
                                     preexec_fn=pinned(self.cpus))
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = t0 + BOOT_TIMEOUT_S
        line = ""
        while "listening" not in line:
            if time.perf_counter() > deadline or not sel.select(
                    deadline - time.perf_counter()):
                self.stop()
                raise SystemExit("popbench: popan_server did not boot")
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise SystemExit("popbench: popan_server exited at boot: "
                                 + self.stderr)
        elapsed = time.perf_counter() - t0
        sel.close()
        self.port = int(line.rsplit(":", 1)[1])
        return elapsed

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        return float("nan")

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, err = self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, err = self.proc.communicate()
        self.stderr += err or ""
        self.proc = None

    def recovered_points(self):
        for row in self.stderr.splitlines():
            if row.startswith("recovered "):
                return int(row.split()[1])
        return 0


def dir_bytes(path):
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def reset(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def server_args(workload, store):
    if workload == "serve_query":
        return ["--wal", store]
    return ["--shards", "8", "--shard-dir", store]


def fresh_store(prepared, store):
    """Copies the prepared store for one boot, then writes the copy back
    to disk, so the kernel's background writeback of tens of MB of dirty
    pages does not land inside the boot or the measured run."""
    reset(store)
    if os.path.isdir(prepared):
        shutil.copytree(prepared, store)
    else:
        shutil.copyfile(prepared, store)
    os.sync()


def run_server_workload(bdir, workload, seed, seconds, work):
    """Boots popan_server SETUP_REPEATS times on fresh copies of the
    prepared store, measures on the last boot, checks, and returns
    (metrics, attempted, failed, report lines)."""
    popbench = os.path.join(bdir, "popbench")
    server_bin = os.path.join(bdir, "popan", "server", "popan_server")
    prepared = os.path.join(work, "prepared")
    store = os.path.join(work, "store")
    prep = run_json([popbench, "prepare", "--workload", workload,
                     "--seed", str(seed), "--out", prepared])
    expected = prep["points"]

    attempted, failed = 0, 0
    boots = []
    server = None
    server_cpus, client_cpus = cpu_split()
    try:
        for i in range(SETUP_REPEATS):
            fresh_store(prepared, store)
            server = Server(server_bin, server_args(workload, store),
                            server_cpus)
            boots.append(server.start())
            if i + 1 < SETUP_REPEATS:
                server.stop()
                attempted += 1
                if server.recovered_points() != expected:  # check (d)
                    failed += 1
        drive = run_json([popbench, "drive", "--workload", workload,
                          "--seed", str(seed), "--port", str(server.port),
                          "--seconds", str(seconds)],
                         timeout=seconds + 150, cpus=client_cpus)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    attempted += 1
    if server.recovered_points() != expected:
        failed += 1
    attempted += drive["attempted"]
    failed += drive["failed"]
    live = drive["model_points"]
    metrics = {
        "setup_s": {"value": statistics.median(boots), "unit": "s"},
        "requests_per_s": drive["requests_per_s"],
        "points_per_s": drive["points_per_s"],
        "read_p50_us": drive["read_p50_us"],
        "read_p99_us": drive["read_p99_us"],
        "write_p50_us": drive["write_p50_us"],
        "write_p99_us": drive["write_p99_us"],
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "store_bytes_per_point": {"value": dir_bytes(store) / max(1, live),
                                  "unit": "B"},
    }
    notes = [
        "setup: %d boots of %d prepared points: %s s"
        % (len(boots), expected, ", ".join("%.3f" % b for b in boots)),
        "checks: %s" % json.dumps(drive["checks"]),
        "windows: %d x %.2f s after warm-up"
        % (drive["windows"], drive["window_s"]),
    ]
    return metrics, attempted, failed, notes


def run_paper_sweep(bdir, seed, seconds, work):
    sweep = run_json([os.path.join(bdir, "popbench"), "sweep", "--seed",
                      str(seed), "--seconds", str(seconds), "--work", work],
                     timeout=seconds + 150)
    names = ("setup_s", "requests_per_s", "points_per_s", "read_p50_us",
             "read_p99_us", "write_p50_us", "write_p99_us", "peak_rss_mb",
             "store_bytes_per_point")
    metrics = {n: sweep[n] for n in names}
    notes = ["passes: %d on %d runner threads" % (sweep["passes"],
                                                  sweep["threads"])]
    return metrics, sweep["attempted"], sweep["failed"], notes


def run_trace(bdir, workload, seed, work, out_dir):
    """The traced run: a short traced socket run of serve_query (for the
    transport wait), then the in-process per-layer replay."""
    popbench = os.path.join(bdir, "popbench")
    server_bin = os.path.join(bdir, "popan", "server", "popan_server")
    prepared = os.path.join(work, "prepared")
    store = os.path.join(work, "store")
    socket_spans = os.path.join(work, "socket_spans.tsv")
    run_json([popbench, "prepare", "--workload", "serve_query", "--seed",
              str(seed), "--out", prepared])
    fresh_store(prepared, store)
    server_cpus, client_cpus = cpu_split()
    server = Server(server_bin, server_args("serve_query", store),
                    server_cpus)
    try:
        server.start()
        socket = run_json([popbench, "drive", "--workload", "serve_query",
                           "--seed", str(seed), "--port", str(server.port),
                           "--seconds", "3", "--warmup", "0.5",
                           "--spans", socket_spans], cpus=client_cpus)
    finally:
        server.stop()
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-%d.tsv" % (workload, seed))
    trace = run_json([popbench, "trace", "--seed", str(seed), "--work", work,
                      "--log", prepared, "--socket-spans", socket_spans,
                      "--spans", spans])
    notes = [
        "traced socket run (serve_query, 3 s): %.0f requests/s"
        % socket["requests_per_s"]["value"],
        "span file: %s" % os.path.relpath(spans, ROOT),
    ] + trace.pop("notes", [])
    attempted = socket["attempted"] + trace.pop("attempted")
    failed = socket["failed"] + trace.pop("failed")
    return trace["metrics"], attempted, failed, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "server",
                                       "popan_server_main.cc")):
        sys.stderr.write("popbench: run from a popan checkout (src/ missing)\n")
        return 2
    bdir = build()
    host = run_json([os.path.join(bdir, "popbench"), "host"])
    host["nproc"] = os.cpu_count()
    host["source"] = source_id()
    log("host: " + json.dumps(host))
    log("wal flush policy: " + WAL_POLICY)

    work = os.path.join(ROOT, ".bench_work", args.workload)
    reset(work)
    os.makedirs(work)
    try:
        if args.trace:
            metrics, attempted, failed, notes = run_trace(
                bdir, args.workload, args.seed, work,
                os.path.join(ROOT, ".bench_out"))
        elif args.workload == "paper_sweep":
            metrics, attempted, failed, notes = run_paper_sweep(
                bdir, args.seed, args.seconds, work)
        else:
            metrics, attempted, failed, notes = run_server_workload(
                bdir, args.workload, args.seed, args.seconds, work)
    finally:
        reset(work)

    for note in notes:
        log(note)
    for name, m in metrics.items():
        log("%-40s %16.6g %-6s %s" % (name, m["value"], m["unit"],
                                      m.get("label", "")))
    log("failed_ratio %d / %d = %.6g" % (failed, attempted,
                                         failed / max(1, attempted)))
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
