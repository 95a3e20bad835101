"""Open-loop load: a fixed schedule of sends, exact per-request latencies.

Every request has a due time fixed before the phase starts. Latency runs
from that due time to the last byte of the response, so a stall also
charges the requests queued behind it (no coordinated omission).
Percentiles come from the raw samples, never from histogram buckets.
"""

import gc
import math
import socket
import threading
import time
from collections import namedtuple

# One scheduled request: seconds after phase start, "hit" or "cold", and
# the index of its body in that kind's body list.
Slot = namedtuple("Slot", "due kind index")

# One completed request. `lateness` is how far behind its due time the
# generator sent it; `latency` runs from the due time to the response.
Result = namedtuple("Result", "slot lateness latency status headers body")


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it. Always one of the samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def build_schedule(seconds, hit_rps, cold_rps, hit_kinds, rng):
    """Hits at i/hit_rps, colds at (j + u_j)/cold_rps, merged in due order.

    Each hit picks one of `hit_kinds` warm graphs with `rng`, and each cold
    its phase u_j in [0, 1) within its slot: at a fixed phase every cold
    would start in step with the same hits, and the hit tail would hinge
    on which stage of a cold those few hits meet. Colds are numbered in
    due order, so cold j posts the j-th never-seen graph.
    """
    slots = [
        Slot(i / hit_rps, "hit", rng.randrange(hit_kinds))
        for i in range(int(round(seconds * hit_rps)))
    ]
    slots += [
        Slot((j + rng.random()) / cold_rps, "cold", j)
        for j in range(int(round(seconds * cold_rps)))
    ]
    slots.sort(key=lambda s: (s.due, s.kind))
    return slots


def lateness_report(results):
    """Median, p99 and max of how late the generator sent, in ms."""
    late = [r.lateness * 1e3 for r in results]
    return {
        "p50": percentile(late, 50),
        "p99": percentile(late, 99),
        "max": max(late),
    }


class Conn:
    """A minimal keep-alive HTTP/1.1 client over one socket.

    The request is written with one `sendall` (head and body together) and
    Nagle is off, so no delayed-ACK stall can enter the measurement. A
    `Connection: close` response (the server's per-connection request cap)
    makes the next request reconnect.
    """

    def __init__(self, addr, timeout=60.0):
        self.addr = addr
        self.timeout = timeout
        self.sock = None
        self.buf = b""

    def _connect(self):
        host, port = self.addr
        self.sock = socket.create_connection((host, port), timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _recv(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def request(self, method, path, body=b""):
        """Returns (status, lower-cased headers, body bytes)."""
        if self.sock is None:
            self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        try:
            self.sock.sendall(head + body)
            while b"\r\n\r\n" not in self.buf:
                self._recv()
            raw_head, _, self.buf = self.buf.partition(b"\r\n\r\n")
            lines = raw_head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            headers = {}
            for line in lines[1:]:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            while len(self.buf) < length:
                self._recv()
            payload, self.buf = self.buf[:length], self.buf[length:]
        except (OSError, ValueError, IndexError):
            self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, payload


def run_open_loop(addr, schedule, bodies, conns=2, path="/analyze"):
    """Sends `schedule` on time over `conns` keep-alive connections.

    `bodies[kind][index]` is the request body of a slot. Connections take
    slots strictly in due order; a slot whose due time passes while every
    connection is busy is sent as soon as one frees, and its wait counts in
    both its lateness and its latency. Returns one Result per slot, in
    schedule order. A transport error is recorded as status 0. The
    garbage collector is off meanwhile, so a full collection cannot stall
    the generator.
    """
    results = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker():
        conn = Conn(addr)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                slot = schedule[i]
                due = start + slot.due
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    status, headers, body = conn.request(
                        "POST", path, bodies[slot.kind][slot.index]
                    )
                except (OSError, ValueError, IndexError):
                    status, headers, body = 0, {}, b""
                done = time.perf_counter()
                results[i] = Result(slot, sent - due, done - due, status, headers, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(conns)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        if collecting:
            gc.enable()
    return results
