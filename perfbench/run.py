#!/usr/bin/env python3
"""graphio benchmark: one offline-analysis phase, then one serving phase.

    python3 perfbench/run.py --workload fft-serve|bhk-route --seed N \
        --seconds S --trace 0|1

Run from the root of a graphio checkout. It builds the `graphio` binary
and the traced-mode helper (`perfbench/layers`) from source into
$CARGO_TARGET_DIR (default `.bench_build`), writes scratch files under
`.bench_work/`, and prints a readable report followed, as its last line,
by one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
mode and reports the per-layer metrics instead. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fleet as fl  # noqa: E402
import loadgen  # noqa: E402
import spans as sp  # noqa: E402

# At 100 hits/s the only free connection ran near saturation whenever a
# cold held the other, and every slowdown of the box came back amplified
# in the hit tail (README.md, "Measured hazards").
HIT_RPS = 50
COLD_RPS = 5
CONNS = 2
SETUP_REPS = 3
COLD_N = (190, 210)
COLD_P = 0.05
# Above the largest in-degree these DAGs reach, so the simulation (and
# the bound <= sim_upper check) runs on every cold graph.
COLD_MEMORIES = [32, 64]
# Session-cache capacity of every backend: room for the hit set and every
# cold graph of a run, so no session is evicted while the cache counters
# are checked (the default 64 over 8 shards evicts at 100 colds).
MAX_SESSIONS = 1024
HOT_REPS = 15
HOP_PAIRS = 30

WORKLOADS = {
    # Eigensolve-bound: one backend, no router, no store.
    "fft-serve": {
        "family": "fft",
        "hits": [5, 6, 7],
        "offline": 10,
        "memories": [4, 16],
        "analyze_reps": 1,
        "routed": False,
    },
    # Min-cut- and router-bound: a router in front of two stored backends.
    "bhk-route": {
        "family": "bhk",
        "hits": [7, 8, 9],
        "offline": 11,
        "memories": [16, 32],
        "analyze_reps": 5,
        "routed": True,
    },
}


class Checks:
    """Counts every checked operation and every failed one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def build(root):
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    for extra in (
        ["--bin", "graphio"],
        ["--manifest-path", os.path.join("perfbench", "layers", "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "graphio"), os.path.join(release, "perfbench-layers")


def generate(graphio, args, path):
    with open(path, "wb") as out:
        subprocess.run([graphio, "generate"] + args, stdout=out, check=True)
    with open(path, "rb") as f:
        return f.read().strip()


def analyze(graphio, graph_path, memories):
    """Offline `graphio analyze --json --threads 1`: (wall s, peak RSS MiB,
    exit code, stdout bytes)."""
    sweep = ",".join(map(str, memories))
    with open(graph_path, "rb") as stdin:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [graphio, "analyze", "--memory-sweep", sweep, "--json", "--threads", "1"],
            stdin=stdin,
            stdout=subprocess.PIPE,
        )
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out


def rows_sound(body, memories):
    """Every row of an analysis document: one per memory, each bound
    ≤ sim_upper."""
    try:
        doc = json.loads(body)
        rows = doc["sweep"]
        if [r["memory"] for r in rows] != list(memories):
            return False
        for r in rows:
            upper = r["sim_upper"]
            if upper is None:
                return False
            for key in ("thm4", "thm5", "thm6", "mincut"):
                if r[key] is not None and r[key] > upper * (1 + 1e-12):
                    return False
        return True
    except (ValueError, KeyError, TypeError):
        return False


def tightness(body):
    """Σ max(thm4, thm5) over the sweep ÷ Σ sim_upper."""
    rows = json.loads(body)["sweep"]
    lower = sum(max(r["thm4"] or 0.0, r["thm5"] or 0.0) for r in rows)
    return lower / sum(r["sim_upper"] for r in rows)


def request_body(graph_json, memories):
    return b'{"graph": ' + graph_json + b', "memories": ' + json.dumps(memories).encode() + b"}"


def set_up(wl, graphio, logdir, hit_bodies, expected, checks):
    """Starts the serving processes and warms the hit set with one cold
    /analyze per graph. Returns (fleet, seconds)."""
    os.makedirs(logdir)
    start = time.perf_counter()
    fleet = fl.Fleet(graphio, logdir)
    cache = ["--max-sessions", str(MAX_SESSIONS)]
    try:
        if wl["routed"]:
            for i in range(2):
                store = os.path.join(logdir, f"store{i}")
                fleet.serve(f"backend{i}", ["--workers", "3", "--store", store] + cache)
            fleet.router([])
        else:
            fleet.serve("serve", ["--workers", "2"] + cache)
        conn = loadgen.Conn(fleet.front)
        try:
            for i, body in enumerate(hit_bodies):
                status, _, got = conn.request("POST", "/analyze", body)
                checks.check(status == 200 and got == expected[i], f"warm {i}: status {status}")
        finally:
            conn.close()
    except BaseException:
        fleet.stop()
        raise
    return fleet, time.perf_counter() - start


def check_serving(results, expected, cold_graphs, checks):
    """Hits must equal the offline bytes; colds must be sound documents of
    the graph that was sent."""
    for r in results:
        slot = r.slot
        if slot.kind == "hit":
            checks.check(
                r.status == 200 and r.body == expected[slot.index],
                f"hit {slot.index} at {slot.due:.2f}s: status {r.status}",
            )
        else:
            n, _ = cold_graphs[slot.index]
            ok = r.status == 200 and rows_sound(r.body, COLD_MEMORIES)
            ok = ok and json.loads(r.body)["n"] == n
            checks.check(ok, f"cold {slot.index} at {slot.due:.2f}s: status {r.status}")


def check_stats(before, after, results, checks):
    """Over the serving phase every hit was a cache hit and every cold a
    miss with two fresh eigensolves."""
    hits = sum(1 for r in results if r.slot.kind == "hit")
    colds = len(results) - hits
    delta = {
        key: fl.backend_delta(before, after, key)
        for key in (
            "cache.hits",
            "cache.misses",
            "engine.spectrum_misses",
            "linalg.dense_eigensolves",
            "store.puts",
            "cache.evictions",
        )
    }
    checks.check(delta["cache.evictions"] == 0, f"{delta['cache.evictions']} sessions evicted")
    checks.check(delta["cache.hits"] == hits, f"cache hits rose {delta['cache.hits']}, want {hits}")
    checks.check(
        delta["cache.misses"] == colds, f"cache misses rose {delta['cache.misses']}, want {colds}"
    )
    checks.check(
        delta["engine.spectrum_misses"] == 2 * colds,
        f"spectrum misses rose {delta['engine.spectrum_misses']}, want {2 * colds}",
    )
    return delta


def latency_ms(results, kind):
    return [r.latency * 1e3 for r in results if r.slot.kind == kind]


def router_hop_ms(fleet, hit_bodies, expected, checks):
    """Median routed hit − median of the same hit sent straight to the
    backend that owns it (named by the router's X-Graphio-Backend)."""
    routed, direct = [], []
    front = loadgen.Conn(fleet.front)
    owners = {}
    try:
        for _ in range(HOP_PAIRS):
            for i, body in enumerate(hit_bodies):
                t = time.perf_counter()
                status, headers, got = front.request("POST", "/analyze", body)
                routed.append(time.perf_counter() - t)
                checks.check(status == 200 and got == expected[i], f"routed hit {i}")
                host, port = headers["x-graphio-backend"].rsplit(":", 1)
                owner = owners.setdefault((host, port), loadgen.Conn((host, int(port))))
                t = time.perf_counter()
                status, _, got = owner.request("POST", "/analyze", body)
                direct.append(time.perf_counter() - t)
                checks.check(status == 200 and got == expected[i], f"direct hit {i}")
    finally:
        front.close()
        for conn in owners.values():
            conn.close()
    return (statistics.median(routed) - statistics.median(direct)) * 1e3


def trace_layers(layers, graph_path, memories, work, name, hot_reps):
    """Runs perfbench-layers on one graph; returns (document, body bytes)."""
    body_path = os.path.join(work, f"{name}.traced.json")
    cmd = [
        layers,
        "--graph", graph_path,
        "--memories", ",".join(map(str, memories)),
        "--body-out", body_path,
        "--store-dir", os.path.join(work, f"{name}.store"),
        "--hot-reps", str(hot_reps),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout
    with open(body_path, "rb") as f:
        return json.loads(out), f.read()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds like an exception, so every `finally` stops the
    # serving processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    for need in ("Cargo.toml", "Cargo.lock", "crates", os.path.join("perfbench", "layers")):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"run from the root of a graphio checkout: {need} is missing")
    graphio, layers = build(root)

    wl = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    rng = random.Random(f"{args.workload}/{args.seed}")
    mem = wl["memories"]
    checks = Checks()

    # Inputs: the warm hit set, the offline graph, and one never-seen
    # Erdős–Rényi DAG per scheduled cold request.
    hit_paths = [os.path.join(work, f"hit{size}.json") for size in wl["hits"]]
    hit_bodies = [
        request_body(generate(graphio, [wl["family"], str(size)], path), mem)
        for size, path in zip(wl["hits"], hit_paths)
    ]
    offline_path = os.path.join(work, "offline.json")
    generate(graphio, [wl["family"], str(wl["offline"])], offline_path)
    schedule = loadgen.build_schedule(args.seconds, HIT_RPS, COLD_RPS, len(hit_bodies), rng)
    cold_graphs = []
    for j in range(sum(1 for s in schedule if s.kind == "cold")):
        n, seed = rng.randint(*COLD_N), rng.getrandbits(48)
        path = os.path.join(work, f"cold{j}.json")
        cold_graphs.append((n, generate(graphio, ["er", str(n), "--p", str(COLD_P), "--seed", str(seed)], path)))
    checks.check(
        len({g for _, g in cold_graphs}) == len(cold_graphs), "cold graphs are not distinct"
    )
    cold_bodies = [request_body(g, COLD_MEMORIES) for _, g in cold_graphs]

    # Reference bytes: the offline document of every hit graph.
    expected = []
    for path in hit_paths:
        _, _, code, out = analyze(graphio, path, mem)
        checks.check(code == 0 and rows_sound(out, mem), f"offline analyze {path}")
        expected.append(out)

    fleets = []
    try:
        # Offline-analysis phase.
        reps = 1 if args.trace else wl["analyze_reps"]
        runs = [analyze(graphio, offline_path, mem) for _ in range(reps)]
        for wall, _, code, out in runs:
            checks.check(code == 0 and rows_sound(out, mem) and out == runs[0][3], "offline analyze")
        offline_body = runs[0][3]
        if args.trace:
            traced = {}
            graphs = [("offline", offline_path, offline_body, 0)] + [
                (f"hit{size}", path, want, HOT_REPS)
                for size, path, want in zip(wl["hits"], hit_paths, expected)
            ]
            for name, path, want, hot_reps in graphs:
                traced[name], body = trace_layers(layers, path, mem, work, name, hot_reps)
                checks.check(body == want, f"traced document of {name} differs from graphio analyze")

        # Serving phase, on the last of the identical set-ups.
        setups = []
        for k in range(1 if args.trace else SETUP_REPS):
            if fleets:
                fleets.pop().stop()
            fleet, seconds = set_up(wl, graphio, os.path.join(work, f"setup{k}"), hit_bodies, expected, checks)
            fleets.append(fleet)
            setups.append(seconds)
        fleet = fleets[-1]
        before = fl.scrape(fleet)
        results = loadgen.run_open_loop(
            fleet.front, schedule, {"hit": hit_bodies, "cold": cold_bodies}, conns=CONNS
        )
        serve_rss = fleet.rss_mb()
        check_serving(results, expected, cold_graphs, checks)
        after = fl.scrape(fleet)
        delta = check_stats(before, after, results, checks)
        hop = router_hop_ms(fleet, hit_bodies, expected, checks) if args.trace and wl["routed"] else 0.0
    finally:
        for f in fleets:
            f.stop()

    hit_ms, cold_ms = latency_ms(results, "hit"), latency_ms(results, "cold")
    late = loadgen.lateness_report(results)
    if args.trace:
        metrics = layer_metrics(traced, delta, hop, late, hit_ms, cold_ms, runs[0][0])
    else:
        metrics = end_to_end_metrics(setups, runs, offline_body, hit_ms, cold_ms, serve_rss)

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g}s  trace {args.trace}")
    print(
        f"samples: {len(hit_ms)} hits at {HIT_RPS}/s, {len(cold_ms)} colds at {COLD_RPS}/s, "
        f"{CONNS} connections; lateness p50 {late['p50']:.3f} ms, p99 {late['p99']:.3f} ms, "
        f"max {late['max']:.3f} ms"
    )
    if not args.trace:
        print("setup runs (s): " + ", ".join(f"{s:.3f}" for s in setups))
        print("analyze runs (s): " + ", ".join(f"{r[0]:.3f}" for r in runs))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"operations: {checks.attempted} attempted, {checks.failed} failed")
    for note in checks.notes:
        print(f"  FAILED: {note}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def end_to_end_metrics(setups, runs, offline_body, hit_ms, cold_ms, serve_rss):
    """The end-to-end metrics of an untraced run."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "analyze_s": (statistics.median(r[0] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r[1] for r in runs), "MiB"),
        "tightness": (tightness(offline_body), "ratio"),
        "hit_p50_ms": (loadgen.percentile(hit_ms, 50), "ms"),
        "cold_p50_ms": (loadgen.percentile(cold_ms, 50), "ms"),
        "cold_p90_ms": (loadgen.percentile(cold_ms, 90), "ms"),
        "serve_rss_mb": (serve_rss, "MiB"),
    }


def layer_metrics(traced, delta, hop, late, hit_ms, cold_ms, analyze_s):
    """The per-layer metrics of a traced run."""
    off = traced["offline"]
    s = off["spans"]
    hits = [d for name, d in traced.items() if name != "offline"]

    def hot_ms(name):
        return statistics.mean(sp.median_us(d["spans"], name, "hit") for d in hits) / 1e3

    def cold_s(name):
        return sum(sp.durations(s, name, "analysis")) / 1e6

    eigensolve_s = cold_s("linalg.eigensolve")
    # What `graphio analyze` itself runs: everything but the fingerprint,
    # the extra simulate pass and the store round trip.
    layer_sum = sum(
        cold_s(name)
        for name in (
            "graph.parse", "spectral.laplacian", "linalg.eigensolve",
            "spectral.bound", "baselines.mincut", "service.doc",
        )
    )
    unattributed = max(sp.max_self_share(d["spans"], root) for d in traced.values() for root in ("analysis", "hit"))
    lookups = delta["cache.hits"] + delta["cache.misses"]
    return {
        "graph.parse_ms": (hot_ms("graph.parse"), "ms"),
        "graph.fingerprint_ms": (hot_ms("graph.fingerprint"), "ms"),
        "spectral.laplacian_ms": (cold_s("spectral.laplacian") * 1e3, "ms"),
        "linalg.eigensolve_s": (eigensolve_s, "s"),
        "linalg.lanczos_sweeps": (off["lanczos_sweeps"], "count"),
        "linalg.matvecs": (off["matvecs"], "count"),
        "linalg.non_matvec_s": (eigensolve_s - off["matvecs"] * off["matvec_us"] / 1e6, "s"),
        "linalg.matvec_us": (off["matvec_us"], "us"),
        # Computed, not measured: f64 value + u32 column per nonzero, and
        # one f64 read of x plus one write of y per row.
        "linalg.matvec_bytes": (off["nnz"] * 12 + off["n"] * 16, "bytes"),
        "baselines.mincut_s": (cold_s("baselines.mincut"), "s"),
        "baselines.mincut_cpu_s": (off["mincut_cpu_s"], "s"),
        "baselines.mincut_vertices": (off["mincut_vertices"], "count"),
        "pebble.simulate_ms": (hot_ms("pebble.simulate"), "ms"),
        "service.doc_ms": (hot_ms("service.doc"), "ms"),
        "service.cache_hit_ratio": (delta["cache.hits"] / lookups if lookups else 0.0, "ratio"),
        "spectral.spectrum_misses": (delta["engine.spectrum_misses"], "count"),
        "linalg.dense_eigensolves": (delta["linalg.dense_eigensolves"], "count"),
        "router.hop_ms": (hop, "ms"),
        "store.puts": (delta["store.puts"], "count"),
        "store.save_ms": (cold_s("store.save") * 1e3, "ms"),
        "store.load_ms": (cold_s("store.load") * 1e3, "ms"),
        "bench.lateness_ms": (late["p99"], "ms"),
        "bench.hit_p95_ms": (loadgen.percentile(hit_ms, 95), "ms"),
        "bench.hit_p99_ms": (loadgen.percentile(hit_ms, 99), "ms"),
        "bench.hit_samples": (len(hit_ms), "count"),
        "bench.cold_samples": (len(cold_ms), "count"),
        "bench.unattributed_pct": (unattributed * 100, "%"),
        "bench.trace_overhead_s": (layer_sum - analyze_s, "s"),
    }


if __name__ == "__main__":
    main()
