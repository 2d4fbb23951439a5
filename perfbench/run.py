#!/usr/bin/env python3
"""End-to-end benchmark of the vacuum-packing sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `perfbench` (a package of its own
in this directory) into `$CARGO_TARGET_DIR` (default `.bench_build`),
brings the workload to its starting state, runs measured passes until
`--seconds` have elapsed (at least one), checks every pass, and prints one
JSON object as the last line of stdout. `--trace 0` reports the end-to-end
metrics of BENCHMARK.json, `--trace 1` the per-layer metrics of a separate
traced pass. perfbench/README.md explains each workload and metric.

Every pass is a fresh process: the trace store is process-wide, so a second
pass in one process would start warm.
"""

import argparse
import collections
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

CELLS = 76  # 19 Table-1 workloads x 4 PackConfig::evaluation_matrix() entries
# A plan process takes ~16 ms, mostly process start-up, so its median
# needs many samples to be steady.
PLAN_REPEATS = 40
# A pass that repeats an earlier (mode, jobs) pass is stopped after this
# multiple of the first one's wall time: it has hung. First passes run
# to completion, however slow the program has become.
HANG_FACTOR = 5
# Measured passes use one sweep worker: with two, the work-stealing
# schedule alone moves wall time by about 15% and peak RSS between two
# modes (1.1 and 1.6 GB) from pass to pass. Set-up uses up to two.
MEASURE_JOBS = 1
WORKLOADS = ("cold-strict", "warm-trace-timed", "warm-results")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def listing(path):
    """File names and sizes under `path`; equal listings mean no writes."""
    if not os.path.isdir(path):
        return {}
    return {e.name: e.stat().st_size for e in os.scandir(path) if e.is_file()}


def mib(n):
    return n / (1024 * 1024)


def dir_mib(path):
    return mib(sum(listing(path).values()))


class Bench:
    def __init__(self, root, binary, work, seconds):
        self.root = root
        self.binary = binary
        self.work = work
        self.seconds = seconds
        self.setup_jobs = min(2, len(os.sched_getaffinity(0)))
        self.first_wall = {}
        self.traces = os.path.join(work, "traces")
        self.results = os.path.join(work, "results")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("VP_")}
        self.env["VP_DIFF"] = "strict"
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, msg):
        log(msg)
        self.problems.append(msg)

    def empty_caches(self):
        for d in (self.traces, self.results):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)

    def run(self, mode, jobs=MEASURE_JOBS, results=True):
        """One fresh-process pass of the timed strict sweep (or `plan`);
        returns (wall seconds, its JSON or None). The traced pass runs on
        one thread whatever `jobs` is."""
        env = dict(self.env, VP_TRACE_DIR=self.traces)
        if results:
            env["VP_RESULT_DIR"] = self.results
        cmd = [self.binary, mode]
        if mode == "sweep":
            cmd += ["--jobs", str(jobs)]
        elif mode == "traced":
            cmd += ["--spans", os.path.join(self.work, "spans.jsonl")]
            jobs = 1
        first = self.first_wall.get((mode, jobs))
        timeout = None if first is None else max(60.0, HANG_FACTOR * first)
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(os.path.join(self.work, f"{mode}.log"), "w") as err:
            t0 = time.perf_counter()
            try:
                p = subprocess.run(cmd, env=env, cwd=self.root, stdout=subprocess.PIPE,
                                   stderr=err, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} pass hung: no exit within {timeout:.0f} s")
            wall = time.perf_counter() - t0
        self.first_wall.setdefault((mode, jobs), wall)
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
        if mode != "plan":
            log(f"{mode} pass on {jobs} worker(s): {wall:.3f} s wall, {cpu:.3f} s cpu")
        lines = p.stdout.decode().strip().splitlines()
        if p.returncode != 0 or not lines:
            self.problem(f"{mode} pass exited with {p.returncode} (log: {err.name})")
            return wall, None
        return wall, json.loads(lines[-1])

    # -- checks -------------------------------------------------------------

    def shape(self, kind, out, before):
        """Workload-shape self-check of one pass, from its counters and the
        cache directories; returns what is wrong, or None."""
        files = listing(self.traces)
        results = listing(self.results)
        c = out.get("counts")
        if c is not None:
            c = collections.defaultdict(int, c)  # counts never taken are 0
        if kind == "cold":
            if len(results) != CELLS:
                return f"{len(results)} result-cache entries after a cold pass"
            if c is None:
                if (out["cache_hits"], out["cache_misses"]) != (0, CELLS):
                    return f"result cache hits/misses {out['cache_hits']}/{out['cache_misses']}"
                # The disk tier started empty, so every resident trace was
                # captured here, and none was evicted and re-loaded.
                if not 0 < out["store_entries"] == len(files):
                    return f"{out['store_entries']} resident traces vs {len(files)} trace files"
            elif c["store_captures"] == 0 or c["store_disk_hits"] or c["rc_stores"] != CELLS:
                return (f"captures {c['store_captures']}, disk hits {c['store_disk_hits']}, "
                        f"result stores {c['rc_stores']}")
            return None
        if files != before[0]:
            return "the trace cache changed: a trace was captured"
        if kind == "warm-trace-timed":
            # No captures, so every trace the pass used was a disk hit.
            used = out["store_entries"] if c is None else c["store_disk_hits"]
            keys = len(files) if c is None else c["store_keys"]
            if c is not None and c["store_captures"]:
                return f"{c['store_captures']} captures"
            if used != keys:
                return f"{used} disk hits vs {keys} distinct traces"
            return None
        if c is None:
            hits, misses, replays, sims = (out["cache_hits"], out["cache_misses"],
                                           out["store_entries"], 0)
        else:
            hits, misses = c["rc_hits"], c["rc_loads"] - c["rc_hits"]
            replays = c["store_captures"] + c["store_disk_hits"] + c["store_mem_hits"]
            sims = c["sims"]
        if (hits, misses, replays, sims) != (CELLS, 0, 0, 0):
            msg = f"result hits {hits}, misses {misses}, replays {replays}, sims {sims}"
            if c is not None and misses:
                # The traced pass derives result keys with a copy of the
                # sweep's private key derivation (see src/traced.rs).
                msg += ("; if the untraced passes hit, the copy of the sweep's "
                        "result-key derivation in perfbench/src/traced.rs is stale")
            return msg
        if results != before[1]:
            return "the result cache changed"
        return None

    def account(self, out, ref_rows, kind, before=({}, {})):
        """Counts a pass's cells and fails the ones that are wrong.

        A cell fails if the pass crashed, the cell errored, its strict diff
        is not clean, or its row differs from `ref_rows`. A failed
        workload-shape self-check fails every cell of the pass. Returns the
        pass's rows in cell order, or None if any cell failed.
        """
        self.attempted += CELLS
        if out is None:
            self.failed += CELLS
            return None
        for f in out.get("failures", []):
            self.problem(f"failure: {f.splitlines()[0]}")
        got = {int(r[0]): r for r in out["rows"]}
        rows = [got.get(j) for j in range(CELLS)]
        bad = sum(1 for j, r in enumerate(rows)
                  if r is None or r[8] != "clean" or (ref_rows and r != ref_rows[j]))
        if bad:
            self.problem(f"{bad} cells missing, not clean, or differing from the reference")
        msg = self.shape(kind, out, before)
        if msg:
            self.problem(f"self-check failed: {msg}")
            bad = CELLS
        self.failed += bad
        return None if bad else rows

    # -- passes -------------------------------------------------------------

    def cold(self, mode="sweep", jobs=MEASURE_JOBS, ref_rows=None):
        """A cold pass from empty trace and result caches."""
        self.empty_caches()
        wall, out = self.run(mode, jobs)
        return wall, out, self.account(out, ref_rows, "cold")

    def warm(self, workload, mode, ref_rows):
        """A warm pass over the caches the set-up filled."""
        before = (listing(self.traces), listing(self.results))
        wall, out = self.run(mode, results=workload == "warm-results")
        return wall, out, self.account(out, ref_rows, workload, before)

    def setup(self, workload):
        """Brings `workload` to its starting state; returns (seconds,
        reference rows or None)."""
        if workload == "cold-strict":
            # Fresh empty caches plus a fresh process that builds the
            # suite and keys every workload, median of PLAN_REPEATS.
            walls = []
            for _ in range(PLAN_REPEATS):
                t0 = time.perf_counter()
                self.empty_caches()
                if self.run("plan")[1] is None:
                    raise BenchError("plan pass failed")
                walls.append(time.perf_counter() - t0)
            return statistics.median(walls), None
        # The warm workloads start from the cold pass that fills their
        # caches, run as a user would, on every worker.
        wall, _, rows = self.cold(jobs=self.setup_jobs)
        if rows is None:
            raise BenchError("cold set-up pass failed")
        # Write the set-up's cache files back now, so that the kernel's
        # write-back of 285 MiB does not run during the measured passes.
        for d in (self.traces, self.results):
            for name in listing(d):
                fd = os.open(os.path.join(d, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        return wall, rows

    def measure(self, one_pass):
        """Repeats `one_pass` until --seconds have elapsed (at least once)."""
        outs = []
        t0 = time.monotonic()
        while not outs or time.monotonic() - t0 < self.seconds:
            outs.append(one_pass())
        return outs

    # -- workloads ----------------------------------------------------------

    def untraced(self, workload):
        """--trace 0: the end-to-end metrics."""
        setup_s, ref_rows = self.setup(workload)
        if workload == "cold-strict":
            # Every cold pass must repeat the first good one's rows.
            first = []

            def one():
                p = self.cold(ref_rows=first[0] if first else None)
                if not first and p[2] is not None:
                    first.append(p[2])
                return p

            passes = self.measure(one)
            ref_rows = first[0] if first else None
            dirs = (self.traces, self.results)
        else:
            passes = self.measure(lambda: self.warm(workload, "sweep", ref_rows))
            dirs = (self.traces, self.results) if workload == "warm-results" else (self.traces,)
        good = [(wall, out) for wall, out, rows in passes if rows is not None]
        if not good or ref_rows is None:
            raise BenchError("no measured pass completed")
        coverage = [float(r[3]) for r in ref_rows]
        expansion = [float(r[4]) for r in ref_rows]
        speedup = [float(r[7]) for r in ref_rows]
        return {
            "cells_per_s": statistics.median(CELLS / wall for wall, _ in good),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(out["vm_hwm_kib"] / 1024 for _, out in good),
            "cache_disk_mb": sum(dir_mib(d) for d in dirs),
            "ok_ratio": 1 - self.failed / self.attempted,
            "coverage_pct": statistics.fmean(coverage),
            "expansion_pct": 100 * statistics.fmean(expansion),
            "speedup_geomean": math.exp(statistics.fmean(math.log(s) for s in speedup)),
        }

    def traced(self, workload):
        """--trace 1: an untraced and a traced pass from the same starting
        state, repeated until --seconds have elapsed; each per-layer metric
        is the median over the traced passes."""
        _, ref_rows = self.setup(workload)
        sched = {"workers": [], "steals": 0}
        if workload == "cold-strict":
            # The scheduler metrics describe a cold-strict pass on the
            # program's two-worker scheduler; the measured passes use one
            # worker, so this run adds one. The warm workloads report 0.
            _, steal_pass, ref_rows = self.cold(jobs=self.setup_jobs)
            sched = (steal_pass or {}).get("sched", sched)
        util = [w["utilization"] for w in sched["workers"]]

        def one():
            if workload == "cold-strict":
                _, plain, _ = self.cold(ref_rows=ref_rows)
                _, out, _ = self.cold("traced", ref_rows=ref_rows)
            else:
                _, plain, _ = self.warm(workload, "sweep", ref_rows)
                _, out, _ = self.warm(workload, "traced", ref_rows)
            if plain is None or out is None:
                return None
            layers = dict(out["layers"])
            # A cold pass starts from empty caches; the self-check has
            # already failed any warm pass that wrote a trace.
            layers["exec.disk.write_mb"] = dir_mib(self.traces) if workload == "cold-strict" else 0.0
            layers["metrics.result_cache.mb"] = (
                dir_mib(self.results) if workload != "warm-trace-timed" else 0.0)
            layers["bench.steal.utilization"] = statistics.fmean(util) if util else 0.0
            layers["bench.steal.steals"] = float(sched["steals"])
            layers["trace.overhead_pct"] = 100 * (out["sweep_ms"] / plain["sweep_ms"] - 1)
            return layers

        layers = [p for p in self.measure(one) if p is not None]
        if not layers:
            raise BenchError("no traced pass completed")
        return {k: statistics.median(p[k] for p in layers) for k in layers[0]}


def build(root):
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(target, "release", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        # The 19 programs are fixed by vp_workloads::suite: the seed is
        # recorded, and does not change the inputs.
        log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        binary = build(root)
        work = os.path.join(root, ".bench_work", args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        bench = Bench(root, binary, work, args.seconds)
        try:
            values = (bench.traced if args.trace else bench.untraced)(args.workload)
        finally:
            # Keep the pass logs and spans; drop the (large) caches.
            for d in (bench.traces, bench.results):
                shutil.rmtree(d, ignore_errors=True)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)

    print(json.dumps({
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    main()
