"""The two service workloads: ``oneshot`` and ``stream_ci``.

Both launch the real ``storm-query serve`` as one child process
(``python -m repro.cli serve --dataset osm --n 200000 --seed <seed>
--port 0``, default ``ServerConfig``) and drive it over HTTP from this
process, closed loop: a client sends its next request only after the
previous reply ended.  The load generator opens at most two
connections at a time.

Each segment of a run starts the server with its own seed
(:func:`common.segment_seed`).  The client regenerates the server's
records from that seed (``OSMWorkload(n, seed)``, exactly what
``serve`` loads), so every request's rectangle can be checked against
a brute-force count.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import BruteForce, check_frames, fixed, square, status_kb

N_POINTS = 200_000
#: The OSM generator's time axis: one year of seconds.
TIME_SPAN = 86_400.0 * 365
#: ``SAMPLES 500`` on a 64-sample scheduler quantum stops at the first
#: quantum boundary at or past 500 (or at q when the range is smaller).
ONESHOT_SAMPLES = 500
QUANTUM = 64
ONESHOT_K_CAP = math.ceil(ONESHOT_SAMPLES / QUANTUM) * QUANTUM
#: Selectivity strata per block of one-shot queries: every block holds
#: one query per stratum, log-spaced over 0.1 % .. 10 % of the points.
STRATA = 16
ONESHOT_QUERIES = 1024
WARMUP_BLOCKS = 2
#: stream_ci: eight dashboard rectangles, each holding about 8 % of the
#: points, picked so the predicted samples to a +-1 % interval land
#: near one of these targets (so seeds differ in place, not in load).
DASHBOARD_TARGETS = (5000, 5500, 6000, 6500, 7000, 7500, 8000, 8500)
DASHBOARD_SHARE = 0.08
TENANTS = ("A", "B")
WARMUP_STREAMS = 2
#: A run cold-starts the server this many times, each on its own
#: records and requests (:func:`common.segment_seed`): each start is
#: timed (``setup_s`` is their median) and then serves one equal
#: segment of the measured window, so a run samples three datasets and
#: the host at three times instead of one burst.
SEGMENTS = 3
HTTP_TIMEOUT = 60.0


# -- inputs ------------------------------------------------------------------

class Points:
    """The server's records as columns, regenerated from the seed."""

    def __init__(self, seed: int):
        from repro.workloads import OSMWorkload
        records = OSMWorkload(n=N_POINTS, seed=seed).generate()
        self.lon = np.fromiter((r.lon for r in records), float, N_POINTS)
        self.lat = np.fromiter((r.lat for r in records), float, N_POINTS)
        self.t = np.fromiter((r.t for r in records), float, N_POINTS)
        self.alt = np.fromiter((r.attrs["altitude"] for r in records),
                               float, N_POINTS)
        del records
        self.oracle = BruteForce(self.lon, self.lat, self.t)


def oneshot_queries(points: Points, seed: int) -> list[dict]:
    """:data:`ONESHOT_QUERIES` one-shot queries in blocks of
    :data:`STRATA`.

    Each block holds one query per selectivity stratum in seeded
    order, so any run of whole blocks has the same selectivity mix.
    One seeded query per block is marked for the brute-force check.
    """
    rng = np.random.default_rng([seed, 1])
    sub = rng.choice(N_POINTS, size=20_000, replace=False)
    out = []
    for block in range(ONESHOT_QUERIES // STRATA):
        order = rng.permutation(STRATA)
        checked = int(rng.integers(STRATA))
        for pos, stratum in enumerate(order):
            sel = 10 ** (-3 + 2 * (stratum + rng.random()) / STRATA)
            frac_t = rng.uniform(0.3, 1.0)
            t0 = rng.uniform(0.0, TIME_SPAN * (1 - frac_t))
            m = int(sel / frac_t * len(sub))
            box = square(points.lon, points.lat,
                         int(rng.integers(N_POINTS)), m, sub)
            region, (x0, y0, x1, y1) = fixed(box)
            times, (s0, s1) = fixed((t0, t0 + frac_t * TIME_SPAN))
            out.append({
                "query": (f"ESTIMATE AVG(altitude) FROM osm WHERE "
                          f"REGION({region}) AND TIME({times}) "
                          f"SAMPLES {ONESHOT_SAMPLES}"),
                "lo": (x0, y0, s0), "hi": (x1, y1, s1),
                "check": pos == checked, "block": block})
    return out


def dashboard_rects(points: Points, seed: int) -> list[dict]:
    """Eight fixed rectangles, one per :data:`DASHBOARD_TARGETS` entry:
    about 8 % of the points each (well over the 5 % floor), with the
    predicted samples to a +-1 % interval (normal approximation,
    finite-population corrected) within 5 % of the target."""
    rng = np.random.default_rng([seed, 2])
    rects = []
    for target in DASHBOARD_TARGETS:
        for _ in range(2000):
            box = square(points.lon, points.lat,
                         int(rng.integers(N_POINTS)),
                         int(DASHBOARD_SHARE * N_POINTS))
            region, (x0, y0, x1, y1) = fixed(box)
            mask = points.oracle.mask((x0, y0), (x1, y1))
            q = int(mask.sum())
            alt = points.alt[mask]
            k0 = (1.96 * alt.std() / (0.01 * abs(alt.mean()))) ** 2
            k = k0 / (1 + k0 / q)
            if abs(k - target) <= 0.05 * target:
                rects.append({
                    "query": (f"ESTIMATE AVG(altitude) FROM osm WHERE "
                              f"REGION({region}) WITHIN ERROR 1%"),
                    "lo": (x0, y0), "hi": (x1, y1), "q": q,
                    "predicted_k": k})
                break
        else:
            raise RuntimeError(f"no dashboard rectangle for target "
                               f"{target} (seed {seed})")
    return rects


# -- the server process ------------------------------------------------------

class Server:
    """One ``storm-query serve`` child process."""

    def __init__(self, root: str, src: str, seed: int,
                 spans_path: str | None = None):
        here = os.path.dirname(os.path.abspath(__file__))
        args = ["serve", "--dataset", "osm", "--n", str(N_POINTS),
                "--seed", str(seed), "--port", "0"]
        if spans_path is None:
            self.cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            self.cmd = [sys.executable,
                        os.path.join(here, "traced_serve.py"),
                        spans_path, *args]
        self.env = dict(os.environ, PYTHONPATH=src)
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.stderr: list[str] = []
        self._drain: threading.Thread | None = None

    def start(self) -> float:
        """Launch; seconds from launch to the first ``200 /health``."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, cwd=self.root, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for line in self.proc.stderr:
            self.stderr.append(line)
            if line.startswith("serving http://"):
                self.port = int(line.split()[1].rsplit(":", 1)[1])
                break
        else:
            self.stop()
            raise RuntimeError("server exited before serving:\n"
                               + "".join(self.stderr[-20:]))
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True)
        self._drain.start()
        while True:
            try:
                status, _ = self.get("/health")
                if status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() - t0 > 120:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=HTTP_TIMEOUT)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        status, body = self.get("/metrics.json")
        if status != 200:
            raise RuntimeError(f"/metrics.json answered {status}")
        return json.loads(body)["snapshot"]

    def peak_rss_mb(self) -> float:
        return status_kb(self.proc.pid, "VmHWM") / 1024.0

    def stop(self) -> None:
        """SIGINT (the CLI drains and exits), then wait for the exit."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        if proc.stderr is not None:
            proc.stderr.close()


# -- clients -----------------------------------------------------------------

def _post(port: int, path: str, body: dict, tenant: str):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=HTTP_TIMEOUT)
    conn.request("POST", path, body=json.dumps(body),
                 headers={"Content-Type": "application/json",
                          "X-Storm-Tenant": tenant})
    return conn, conn.getresponse()


def oneshot_request(port: int, query: dict) -> dict:
    """One ``POST /v1/query``; the reply with its client timing."""
    t0 = time.perf_counter()
    conn = None
    try:
        conn, resp = _post(port, "/v1/query", {"query": query["query"]},
                           "A")
        body = resp.read()
        t1 = time.perf_counter()
        if resp.status != 200:
            return {"t0": t0, "t1": t1, "error": f"HTTP {resp.status}: "
                    f"{body[:200]!r}"}
        return {"t0": t0, "t1": t1, "doc": json.loads(body)}
    except (OSError, ValueError, http.client.HTTPException) as exc:
        return {"t0": t0, "t1": time.perf_counter(),
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if conn is not None:
            conn.close()


def check_oneshot(query: dict, reply: dict, oracle) -> str:
    """Empty string when the reply is right, else what is wrong."""
    if "error" in reply:
        return reply["error"]
    result = reply["doc"].get("result") or {}
    problems = check_frames([result], ("sample budget reached",
                                       "exhausted", "empty range"))
    if problems:
        return "; ".join(problems)
    q = result["estimate"]["q"]
    if result["k"] != min(q, ONESHOT_K_CAP):
        return f"k={result['k']} but q={q}"
    if query["check"]:
        truth = oracle.count(query["lo"], query["hi"])
        if q != truth:
            return f"q={q} but brute force counts {truth}"
    return ""


def stream_request(port: int, rect: dict, tenant: str, seed: int
                   ) -> dict:
    """One ``POST /v1/stream``: every frame, the time of the first
    progress frame and of the terminal frame."""
    t0 = time.perf_counter()
    conn = None
    out = {"t0": t0, "t_first": None, "frames": []}
    try:
        conn, resp = _post(port, "/v1/stream",
                           {"query": rect["query"], "seed": seed}, tenant)
        out["stream"] = resp.getheader("X-Storm-Stream")
        if resp.status != 200:
            out["error"] = f"HTTP {resp.status}: {resp.read()[:200]!r}"
        else:
            while True:
                line = resp.readline()
                if not line:
                    break
                frame = json.loads(line)
                out["frames"].append(frame)
                if out["t_first"] is None \
                        and frame.get("frame") == "progress":
                    out["t_first"] = time.perf_counter()
                if frame.get("frame") in ("end", "error"):
                    break
    except (OSError, ValueError, http.client.HTTPException) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        out["t1"] = time.perf_counter()
        if conn is not None:
            conn.close()
    return out


def check_stream(rect: dict, reply: dict) -> str:
    if "error" in reply:
        return reply["error"]
    frames = reply["frames"]
    problems = check_frames(frames, ("target relative error reached",
                                     "exhausted"))
    if problems:
        return "; ".join(problems)
    end = frames[-1]
    if reply["t_first"] is None:
        return "no progress frame"
    est = end["estimate"]
    if est["q"] != rect["q"]:
        return f"q={est['q']} but brute force counts {rect['q']}"
    if end["reason"].startswith("target"):
        iv = est["interval"]
        rel = (iv["hi"] - iv["lo"]) / 2 / abs(est["value"])
        if rel > 0.01 + 1e-9:
            return f"stopped at +-{rel:.4%}, above the 1% target"
    return ""


# -- the workloads -----------------------------------------------------------

def run_oneshot(server: Server, queries: list[dict], oracle,
                seconds: float, on_window=None) -> dict:
    """Warm-up blocks, then whole blocks until ``seconds`` elapse;
    ``on_window`` is called as the measured window opens."""
    replies = []
    errors = []
    blocks = [queries[i:i + STRATA]
              for i in range(0, len(queries), STRATA)]
    measured = []
    window = [0.0, 0.0]
    for b, block in enumerate(_cycle(blocks)):
        if b == WARMUP_BLOCKS:
            if on_window is not None:
                on_window()
            window[0] = time.perf_counter()
        elif b > WARMUP_BLOCKS and \
                time.perf_counter() - window[0] >= seconds:
            break
        for query in block:
            reply = oneshot_request(server.port, query)
            replies.append(reply)
            problem = check_oneshot(query, reply, oracle)
            if problem:
                errors.append(f"{query['query']}: {problem}")
            if b >= WARMUP_BLOCKS:
                measured.append(reply)
    window[1] = time.perf_counter()
    ok = [r for r in measured if "error" not in r]
    return {
        "attempted": len(replies),
        "failed": sum(1 for r in replies if "error" in r),
        "errors": errors,
        "latencies_ms": [(r["t1"] - r["t0"]) * 1e3 for r in ok],
        "completed": len(ok),
        "window": window,
        "measured": measured,
    }


def _cycle(items):
    while True:
        yield from items


def run_stream_ci(server: Server, rects: list[dict], seed: int,
                  seconds: float, on_window=None) -> dict:
    """Two tenants, one connection each, cycling the dashboard
    rectangles (tenant B starts half-way round) with fresh seeds."""
    rng = np.random.default_rng([seed, 3])
    seeds = {t: [int(s) for s in rng.integers(0, 2**31, size=4096)]
             for t in TENANTS}
    barrier = threading.Barrier(len(TENANTS))
    window = [0.0]
    results = {t: [] for t in TENANTS}

    def client(i: int, tenant: str) -> None:
        n = 0
        try:
            while True:
                if n == WARMUP_STREAMS:
                    if barrier.wait() == 0:
                        if on_window is not None:
                            on_window()
                        window[0] = time.perf_counter()
                    barrier.wait()
                elif n > WARMUP_STREAMS and \
                        time.perf_counter() - window[0] >= seconds:
                    return
                rect = rects[(n + i * len(rects) // 2) % len(rects)]
                reply = stream_request(server.port, rect, tenant,
                                       seeds[tenant][n % 4096])
                reply["rect"] = rect
                reply["warmup"] = n < WARMUP_STREAMS
                results[tenant].append(reply)
                n += 1
        except threading.BrokenBarrierError:
            return
        finally:
            if n <= WARMUP_STREAMS:
                barrier.abort()

    threads = [threading.Thread(target=client, args=(i, t))
               for i, t in enumerate(TENANTS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    replies = [r for t in TENANTS for r in results[t]]
    errors = []
    for reply in replies:
        problem = check_stream(reply["rect"], reply)
        if problem:
            errors.append(f"{reply['rect']['query']}: {problem}")
    measured = [r for r in replies if not r["warmup"]]
    ok = [r for r in measured if "error" not in r]
    end = max((r["t1"] for r in measured), default=window[0])
    return {
        "attempted": len(replies),
        "failed": sum(1 for r in replies if "error" in r),
        "errors": errors,
        "latencies_ms": [(r["t1"] - r["t0"]) * 1e3 for r in ok],
        "first_ms": [(r["t_first"] - r["t0"]) * 1e3 for r in ok
                     if r["t_first"] is not None],
        "completed": len(ok),
        "window": [window[0], end],
        "measured": measured,
    }


def merge(parts: list[dict]) -> dict:
    """One result from the segments of a run: samples pooled,
    throughput as completed requests per second of measured window."""
    out = {key: [item for part in parts for item in part.get(key, ())]
           for key in ("errors", "latencies_ms", "first_ms", "measured")}
    out["attempted"] = sum(p["attempted"] for p in parts)
    out["failed"] = sum(p["failed"] for p in parts)
    busy = sum(p["window"][1] - p["window"][0] for p in parts)
    out["throughput"] = sum(p["completed"] for p in parts) / busy
    return out
