"""Serving processes the benchmark starts, and their `/stats` documents."""

import json
import os
import signal
import subprocess
import time

from loadgen import Conn

START_TIMEOUT_S = 30.0


class Fleet:
    """Every `graphio serve` / `graphio router` process of one set-up.

    Processes write their logs to files in `logdir`; the listening URL is
    read from the log. `stop()` terminates them all and waits for each.
    """

    def __init__(self, graphio, logdir):
        self.graphio = graphio
        self.logdir = logdir
        self.procs = []
        self.backends = []  # (host, port) of every serve process
        self.front = None  # (host, port) the load is sent to

    def _spawn(self, name, args, banner):
        log = os.path.join(self.logdir, f"{name}.log")
        with open(log, "wb") as out, open(log + ".err", "wb") as err:
            proc = subprocess.Popen(
                [self.graphio] + args, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
        self.procs.append(proc)
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(log, "rb") as f:
                for line in f.read().decode(errors="replace").splitlines():
                    if line.startswith(banner):
                        host, port = line[len(banner):].strip().rsplit(":", 1)
                        addr = (host, int(port))
                        wait_healthy(addr, deadline)
                        return addr
            if proc.poll() is not None:
                raise RuntimeError(f"{name} exited with {proc.returncode} before listening")
            time.sleep(0.002)
        raise RuntimeError(f"{name} did not start listening in {START_TIMEOUT_S}s")

    def serve(self, name, args):
        addr = self._spawn(
            name, ["serve", "--port", "0"] + args, "graphio service listening on http://"
        )
        self.backends.append(addr)
        self.front = addr
        return addr

    def router(self, args):
        backends = ",".join(f"{h}:{p}" for h, p in self.backends)
        self.front = self._spawn(
            "router",
            ["router", "--backends", backends, "--listen", "127.0.0.1:0"] + args,
            "graphio router listening on http://",
        )
        return self.front

    def tiers(self):
        """(name, address) of every tier: the router (if any), then each
        backend."""
        out = [(f"backend{i}", a) for i, a in enumerate(self.backends)]
        if self.front not in self.backends:
            out.insert(0, ("router", self.front))
        return out

    def rss_mb(self):
        """Summed VmRSS of every live process, in MiB."""
        return sum(vm_rss_kb(p.pid) for p in self.procs) / 1024.0

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


def wait_healthy(addr, deadline):
    while True:
        try:
            status, _, _ = get(addr, "/healthz")
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"{addr} never answered /healthz")
        time.sleep(0.002)


def get(addr, path):
    conn = Conn(addr, timeout=30.0)
    try:
        return conn.request("GET", path)
    finally:
        conn.close()


def vm_rss_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def flatten(doc, prefix=""):
    """Numeric leaves of a JSON document as {"a.b.c": value}. Lists are
    indexed by position; booleans and strings are dropped."""
    out = {}
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = ((str(i), v) for i, v in enumerate(doc))
    else:
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            out[prefix] = doc
        return out
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else key))
    return out


def stats_diff(before, after):
    """after − before for every numeric leaf present in both documents."""
    a, b = flatten(before), flatten(after)
    return {k: b[k] - a[k] for k in b if k in a}


def scrape(fleet):
    """{tier name: /stats document} for every tier of the fleet."""
    docs = {}
    for name, addr in fleet.tiers():
        status, _, body = get(addr, "/stats")
        if status != 200:
            raise RuntimeError(f"/stats on {name} answered {status}")
        docs[name] = json.loads(body)
    return docs


def backend_delta(before, after, key):
    """The rise of one `/stats` counter, summed over every backend tier."""
    return sum(
        stats_diff(before[t], after[t]).get(key, 0)
        for t in after
        if t.startswith("backend")
    )
