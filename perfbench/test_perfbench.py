"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import random
import socket
import threading
import time
import unittest

import fleet
import loadgen
import run
import spans


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_known_samples(self):
        samples = list(range(1, 101))  # 1..100
        random.Random(7).shuffle(samples)
        self.assertEqual(loadgen.percentile(samples, 50), 50)
        self.assertEqual(loadgen.percentile(samples, 90), 90)
        self.assertEqual(loadgen.percentile(samples, 99), 99)
        self.assertEqual(loadgen.percentile(samples, 100), 100)
        self.assertEqual(loadgen.percentile(samples, 0), 1)

    def test_result_is_always_a_sample(self):
        samples = [0.5, 9.0, 3.25, 7.0]
        for p in (1, 25, 50, 75, 99):
            self.assertIn(loadgen.percentile(samples, p), samples)
        self.assertEqual(loadgen.percentile(samples, 50), 3.25)
        self.assertEqual(loadgen.percentile(samples, 75), 7.0)

    def test_no_bucket_quantization(self):
        # A log2 histogram would report 1023 for all three; raw samples keep
        # the 2x difference.
        self.assertEqual(loadgen.percentile([513.0] * 10, 50), 513.0)
        self.assertEqual(loadgen.percentile([1000.0] * 10, 50), 1000.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            loadgen.percentile([], 50)


class ScheduleTest(unittest.TestCase):
    def test_rates_and_order(self):
        sched = loadgen.build_schedule(2, 100, 5, 3, random.Random(1))
        hits = [s for s in sched if s.kind == "hit"]
        colds = [s for s in sched if s.kind == "cold"]
        self.assertEqual(len(hits), 200)
        self.assertEqual(len(colds), 10)
        self.assertEqual([s.due for s in sched], sorted(s.due for s in sched))
        self.assertAlmostEqual(hits[37].due, 0.37)
        for j, cold in enumerate(colds):
            self.assertTrue(j / 5 <= cold.due < (j + 1) / 5)
        self.assertEqual([s.index for s in colds], list(range(10)))
        self.assertEqual({s.index for s in hits}, {0, 1, 2})

    def test_same_seed_same_schedule(self):
        a = loadgen.build_schedule(1, 100, 5, 3, random.Random("x/1"))
        b = loadgen.build_schedule(1, 100, 5, 3, random.Random("x/1"))
        c = loadgen.build_schedule(1, 100, 5, 3, random.Random("x/2"))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


class StubServer:
    """Loopback HTTP server answering every request after `delay` seconds
    with a body naming the request number."""

    def __init__(self, delay):
        self.delay = delay
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.addr = self.sock.getsockname()
        self.count = 0
        self.lock = threading.Lock()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                head, _, buf = buf.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    key, _, value = line.partition(b":")
                    if key.strip().lower() == b"content-length":
                        length = int(value)
                while len(buf) < length:
                    buf += conn.recv(4096)
                buf = buf[length:]
                time.sleep(self.delay)
                with self.lock:
                    self.count += 1
                    body = str(self.count).encode()
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
                )

    def close(self):
        self.sock.close()


class OpenLoopTest(unittest.TestCase):
    def test_on_time_when_the_server_keeps_up(self):
        server = StubServer(delay=0.0)
        try:
            sched = loadgen.build_schedule(0.5, 40, 0, 1, random.Random(0))
            results = loadgen.run_open_loop(server.addr, sched, {"hit": [b"{}"]}, conns=2)
        finally:
            server.close()
        self.assertEqual(len(results), 20)
        self.assertTrue(all(r.status == 200 for r in results))
        self.assertLess(loadgen.lateness_report(results)["p99"], 20.0)
        for r in results:
            self.assertGreaterEqual(r.latency, r.lateness)

    def test_a_slow_server_makes_the_generator_late(self):
        # 10 sends due within 0.1 s, one connection, 50 ms per request: the
        # k-th send waits for the k earlier responses, and that wait is
        # charged to its latency, not hidden (no coordinated omission).
        server = StubServer(delay=0.05)
        try:
            sched = loadgen.build_schedule(0.1, 100, 0, 1, random.Random(0))
            results = loadgen.run_open_loop(server.addr, sched, {"hit": [b"{}"]}, conns=1)
        finally:
            server.close()
        self.assertEqual(len(results), 10)
        last = results[-1]
        # Due at 0.09 s, sent after ~9 × 50 ms of earlier responses.
        self.assertGreater(last.lateness, 0.3)
        self.assertGreater(last.latency, last.lateness + 0.04)
        self.assertGreater(loadgen.lateness_report(results)["max"], 300.0)

    def test_transport_error_is_status_zero(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        addr = sock.getsockname()
        sock.close()  # nothing listens here now
        sched = loadgen.build_schedule(0.02, 100, 0, 1, random.Random(0))
        results = loadgen.run_open_loop(addr, sched, {"hit": [b"{}"]}, conns=1)
        self.assertEqual([r.status for r in results], [0, 0])


class StatsDiffTest(unittest.TestCase):
    BEFORE = {
        "version": "0.2.0",
        "requests": 10,
        "cache": {"hits": 3, "misses": 2, "shard_bytes": [0, 5]},
        "store": {"enabled": True, "puts": 1, "last_compaction_unix": None},
        "engine": {"spectrum_misses": 4},
    }
    AFTER = {
        "version": "0.2.0",
        "requests": 25,
        "cache": {"hits": 13, "misses": 7, "shard_bytes": [8, 5]},
        "store": {"enabled": True, "puts": 6, "last_compaction_unix": 1700000000},
        "engine": {"spectrum_misses": 14},
        "linalg": {"dense_eigensolves": 10},
    }

    def test_flatten_keeps_numeric_leaves(self):
        flat = fleet.flatten(self.BEFORE)
        self.assertEqual(flat["cache.hits"], 3)
        self.assertEqual(flat["cache.shard_bytes.1"], 5)
        self.assertNotIn("version", flat)
        self.assertNotIn("store.enabled", flat)
        self.assertNotIn("store.last_compaction_unix", flat)

    def test_diff_of_counters_present_in_both(self):
        d = fleet.stats_diff(self.BEFORE, self.AFTER)
        self.assertEqual(d["requests"], 15)
        self.assertEqual(d["cache.hits"], 10)
        self.assertEqual(d["cache.misses"], 5)
        self.assertEqual(d["cache.shard_bytes.0"], 8)
        self.assertEqual(d["engine.spectrum_misses"], 10)
        self.assertNotIn("linalg.dense_eigensolves", d)  # absent before

    def test_backend_delta_sums_backends_only(self):
        before = {"router": {"cache": {"hits": 0}}, "backend0": self.BEFORE, "backend1": self.BEFORE}
        after = {"router": {"cache": {"hits": 99}}, "backend0": self.AFTER, "backend1": self.BEFORE}
        self.assertEqual(fleet.backend_delta(before, after, "cache.hits"), 10)
        self.assertEqual(fleet.backend_delta(before, after, "store.puts"), 5)
        self.assertEqual(fleet.backend_delta(before, after, "no.such.key"), 0)


class SpansTest(unittest.TestCase):
    # analysis [0, 100) with children [0, 30) and [20, 70) (overlapping) →
    # 70 µs covered, 30% self; a grandchild never counts toward the root.
    SPANS = [
        {"name": "analysis", "parent": None, "start_us": 0, "end_us": 100},
        {"name": "a", "parent": 0, "start_us": 0, "end_us": 30},
        {"name": "b", "parent": 0, "start_us": 20, "end_us": 70},
        {"name": "c", "parent": 2, "start_us": 80, "end_us": 90},
        {"name": "hit", "parent": None, "start_us": 100, "end_us": 110},
        {"name": "a", "parent": 4, "start_us": 100, "end_us": 110},
    ]

    def test_self_share_counts_overlap_once(self):
        self.assertAlmostEqual(spans.self_share(self.SPANS, 0), 0.3)
        self.assertAlmostEqual(spans.self_share(self.SPANS, 4), 0.0)
        self.assertAlmostEqual(spans.max_self_share(self.SPANS, "analysis"), 0.3)

    def test_durations_by_root(self):
        self.assertEqual(spans.durations(self.SPANS, "a", "analysis"), [30])
        self.assertEqual(spans.durations(self.SPANS, "a", "hit"), [10])
        self.assertEqual(spans.durations(self.SPANS, "c", "analysis"), [10])
        self.assertEqual(spans.median_us(self.SPANS, "zzz", "hit"), 0.0)


class MetricNamesTest(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
        with open(path) as f:
            cls.spec = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_end_to_end(self):
        body = json.dumps({"sweep": [{"thm4": 2.0, "thm5": 1.0, "sim_upper": 8}]}).encode()
        runs = [(1.0, 20.0, 0, body)]
        metrics = run.end_to_end_metrics([0.5], runs, body, [1.0, 2.0], [40.0], 30.0)
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, self.declared("end_to_end"))
        self.assertEqual(metrics["tightness"][0], 0.25)

    def test_per_layer(self):
        def doc(root):
            names = ["graph.parse", "graph.fingerprint", "spectral.laplacian",
                     "linalg.eigensolve", "spectral.bound", "baselines.mincut",
                     "pebble.simulate", "service.doc", "store.save", "store.load"]
            spans_ = [{"name": root, "parent": None, "start_us": 0, "end_us": 100}]
            spans_ += [
                {"name": n, "parent": 0, "start_us": 10 * i, "end_us": 10 * i + 10}
                for i, n in enumerate(names)
            ]
            return {"n": 4, "nnz": 10, "lanczos_sweeps": 3, "matvecs": 40,
                    "matvec_us": 1.0, "mincut_vertices": 4, "mincut_cpu_s": 0.1,
                    "spans": spans_}
        traced = {"offline": doc("analysis"), "hit5": doc("hit")}
        delta = {"cache.hits": 9, "cache.misses": 1, "engine.spectrum_misses": 2,
                 "linalg.dense_eigensolves": 2, "store.puts": 1}
        late = {"p50": 0.1, "p99": 1.0, "max": 2.0}
        metrics = run.layer_metrics(traced, delta, 0.5, late, [1.0] * 9, [40.0], 0.5)
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, self.declared("per_layer"))
        self.assertAlmostEqual(metrics["service.cache_hit_ratio"][0], 0.9)
        # eigensolve span 10 µs − 40 mat-vecs × 1 µs
        self.assertAlmostEqual(metrics["linalg.non_matvec_s"][0], 10e-6 - 40e-6)
        self.assertAlmostEqual(metrics["bench.unattributed_pct"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
