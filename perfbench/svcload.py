"""Service workload: a closed loop of two clients against an in-process
``JobService`` over loopback HTTP, with two subprocess workers.

Each client owns every other scenario index of ``generate_scenario(seed,
i)`` and runs rounds of six jobs: fresh, fresh, repeat, fresh, fresh,
repeat.  A fresh job submits a scenario never seen before (simulate and
write the cache); a repeat re-submits one of the client's completed
scenarios (read the cache).  A round ends when both clients finish it.
A run is a fixed number of rounds, ROUNDS_PER_S per second of ``--seconds``
(about ``--seconds`` of wall time on a 2-core box), so every run of one
seed does the same work and memory held per job does not grow with speed.

Set-up is sampled by SERVICE_STARTS service starts before the loop (the
last one serves the loop) and as many after it.  On a shared 2-core box the
speed drifts by 10-25 % over tens of seconds, and back-to-back starts all
land in one such period; the two groups see the box about a run apart.

Jobs submit the plain-ICRC form of each generated scenario.  With the
generator's MAC modes a job costs from 5 ms to 500 ms, depending mostly on
MAC key derivation, and the share of costly jobs in a run moves every
metric by more than its bound from seed to seed; plain ICRC keeps job cost
within about 1-50 ms, so per-job service work shows.  MAC cost is
measured by the mesh-umac-qp workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import random
import threading
import time
from urllib.parse import urlsplit

from repro.fuzz.generators import Scenario, generate_scenario
from repro.service.api import JobService, ServiceConfig

from measure import median, peak_rss_mb, percentile, stop_children

CLIENTS = 2
WORKERS = 2
ROUND = ("fresh", "fresh", "repeat", "fresh", "fresh", "repeat")
MIN_ROUNDS = 3
ROUNDS_PER_S = 5
SERVICE_STARTS = 4
#: Fresh scenario indices whose report bytes feed the digest.
DIGEST_INDICES = 8
POLL_S = 0.002
JOB_TIMEOUT_S = 60.0


def mix_scenario(seed: int, index: int) -> Scenario:
    """Scenario *index* of the mix: a generated scenario with plain ICRC."""
    scenario = generate_scenario(seed, index)
    config = dict(scenario.config, auth="icrc", keymgmt="none", replay_protection=False)
    return dataclasses.replace(scenario, config=config)


def warmup_scenario(seed: int) -> Scenario:
    """A tiny scenario outside the mix, answered once per service start."""
    return Scenario(name="warmup", config={
        "mesh_width": 2, "mesh_height": 2, "num_partitions": 2,
        "sim_time_us": 50.0, "warmup_us": 0.0, "seed": seed,
    })


class JobError(Exception):
    """A job did not behave as the service contract says."""


class Client:
    """HTTP calls of one client; a new connection per request."""

    def __init__(self, url: str, client_id: str) -> None:
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.client_id = client_id

    def call(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=JOB_TIMEOUT_S)
        try:
            conn.request(method, path, body=body, headers={
                "Content-Type": "application/json", "X-Client-Id": self.client_id,
            })
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def fresh(self, scenario) -> bytes:
        """Submit a new scenario, wait for it and fetch its report."""
        status, raw = self.call("POST", "/jobs", json.dumps(scenario.to_dict()).encode())
        body = json.loads(raw)
        if status != 202 or body.get("cache_hit") or body.get("coalesced"):
            raise JobError(f"fresh submit answered {status} {body}")
        job_id = body["job_id"]
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            status, raw = self.call("GET", f"/jobs/{job_id}")
            state = json.loads(raw).get("state") if status == 200 else None
            if state == "done":
                break
            if status != 200 or state == "failed" or time.monotonic() > deadline:
                raise JobError(f"job {job_id} ended {status} {state}")
            time.sleep(POLL_S)
        return self.report(job_id)

    def repeat(self, scenario) -> bytes:
        status, raw = self.call("POST", "/jobs", json.dumps(scenario.to_dict()).encode())
        body = json.loads(raw)
        if status != 200 or not body.get("cache_hit") or body.get("state") != "done":
            raise JobError(f"repeat submit was not a cache hit: {status} {body}")
        return self.report(body["job_id"])

    def report(self, job_id: str) -> bytes:
        status, raw = self.call("GET", f"/jobs/{job_id}/report")
        if status != 200:
            raise JobError(f"report of {job_id} answered {status}")
        return raw


class Spans:
    """In-memory spans around the service's public calls.

    Wraps, on one service instance, ``JobService.submit``,
    ``JobStore.mark_running``/``mark_done`` and ``ResultCache.get``/``put``.
    Spans of one job carry its job id; a cache call made inside a submit
    or a running job is linked to that job.
    """

    def __init__(self, service: JobService) -> None:
        self.service = service
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _record(self, name, start, end, job_id=None, **extra):
        span = {"name": name, "start": start, "end": end, "job_id": job_id, **extra}
        with self._lock:
            self.spans.append(span)
        return span

    def install(self) -> None:
        svc, store, cache = self.service, self.service.store, self.service.cache
        submit, running, done = svc.submit, store.mark_running, store.mark_done
        get, put = cache.get, cache.put
        local = self._local

        def traced_submit(client_id, raw):
            local.children = []
            t0 = time.perf_counter()
            status, body, headers = submit(client_id, raw)
            span = self._record("submit", t0, time.perf_counter(),
                                body.get("job_id"), status=status,
                                cache_hit=bool(body.get("cache_hit")))
            for child in local.children:
                child["job_id"] = span["job_id"]
            local.children = []
            return status, body, headers

        def traced_running(job):
            local.job_id = job.job_id
            t0 = time.perf_counter()
            running(job)
            self._record("mark_running", t0, time.perf_counter(), job.job_id)

        def traced_done(job, result):
            t0 = time.perf_counter()
            done(job, result)
            self._record("mark_done", t0, time.perf_counter(), job.job_id)
            local.job_id = None

        def traced_cache(name, fn):
            def call(*args):
                t0 = time.perf_counter()
                out = fn(*args)
                span = self._record(name, t0, time.perf_counter(),
                                    getattr(local, "job_id", None))
                getattr(local, "children", []).append(span)
                return out
            return call

        svc.submit = traced_submit
        store.mark_running = traced_running
        store.mark_done = traced_done
        cache.get = traced_cache("cache_get", get)
        cache.put = traced_cache("cache_put", put)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        by_job: dict[str, dict[str, dict]] = {}
        for span in self.spans:
            if span["job_id"]:
                by_job.setdefault(span["job_id"], {})[span["name"]] = span
        submits = [s for s in self.spans if s["name"] == "submit"]
        waits, execs = [], []
        for spans in by_job.values():
            sub, run, done = (spans.get(k) for k in ("submit", "mark_running", "mark_done"))
            if sub and run:
                waits.append(run["start"] - sub["end"])
            if run and done:
                execs.append(done["start"] - run["end"])
        hits = sum(1 for s in submits if s["cache_hit"])
        counters = self.service.registry.snapshot()
        return {
            "service.submit_ms": median([s["end"] - s["start"] for s in submits]) * 1e3,
            "service.queue_wait_ms": median(waits) * 1e3,
            "service.exec_ms": median(execs) * 1e3,
            "service.cache_hit_ratio": hits / len(submits) if submits else 0.0,
            "service.worker_busy_frac": sum(execs) / (WORKERS * wall_s),
            "service.queue_peak_depth": self.service.queue.peak_depth,
            "service.rejected": sum(
                v for k, v in counters.items() if k.startswith("service.rejected")
            ),
        }


class Loop:
    """The closed loop: CLIENTS threads running rounds until told to stop."""

    def __init__(self, url: str, seed: int) -> None:
        self.url = url
        self.seed = seed
        self.fresh_ms: list[float] = []
        self.repeat_ms: list[float] = []
        self.round_s: list[float] = []
        self.reports: dict[int, bytes] = {}  #: index -> report digest
        self.attempted = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()
        self._next = list(range(CLIENTS))
        self._completed: list[list[int]] = [[] for _ in range(CLIENTS)]
        self._rngs = [random.Random(f"{seed}:client{c}") for c in range(CLIENTS)]

    def run(self, seconds: float) -> float:
        """Run the rounds *seconds* stands for; returns their wall time."""
        rounds = max(MIN_ROUNDS, round(seconds * ROUNDS_PER_S))
        start = time.perf_counter()
        marks = [start]
        stop = threading.Event()

        def end_round():
            marks.append(time.perf_counter())
            self.round_s.append(marks[-1] - marks[-2])
            if len(marks) > rounds:
                stop.set()

        barrier = threading.Barrier(CLIENTS, action=end_round)
        threads = [
            threading.Thread(target=self._client, args=(c, barrier, stop))
            for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return marks[-1] - start

    def _client(self, c: int, barrier: threading.Barrier, stop: threading.Event):
        client = Client(self.url, f"client{c}")
        try:
            while not stop.is_set():
                for kind in ROUND:
                    self._job(c, client, kind)
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:  # any failure ends the loop and is reported
            with self._lock:
                self.errors.append(f"client{c}: {type(exc).__name__}: {exc}")
            stop.set()
            barrier.abort()

    def _job(self, c: int, client: Client, kind: str) -> None:
        if kind == "fresh":
            index = self._next[c]
            self._next[c] += CLIENTS
        else:
            index = self._rngs[c].choice(self._completed[c])
        scenario = mix_scenario(self.seed, index)
        with self._lock:
            self.attempted += 1
        t0 = time.perf_counter()
        raw = client.fresh(scenario) if kind == "fresh" else client.repeat(scenario)
        ms = (time.perf_counter() - t0) * 1e3
        digest = hashlib.sha256(raw).digest()
        with self._lock:
            if kind == "fresh":
                self.fresh_ms.append(ms)
                self.reports[index] = digest
                self._completed[c].append(index)
            else:
                self.repeat_ms.append(ms)
                if digest != self.reports[index]:
                    raise JobError(f"repeat of scenario {index} fetched other bytes")


def _start(seed: int, k: int, workdir) -> tuple[JobService, float, bytes]:
    """Start a service on a fresh cache dir; time until a warm-up job
    outside the mix is answered."""
    svc = JobService(ServiceConfig(
        port=0, workers=WORKERS, queue_depth=32, rate_per_s=1e6, burst=10**6,
        cache_dir=str(workdir / f"cache{k}"), use_subprocess=True,
    ))
    t0 = time.perf_counter()
    url = svc.start()
    try:
        raw = Client(url, "warmup").fresh(warmup_scenario(seed))
    except BaseException:
        _close(svc)
        raise
    return svc, time.perf_counter() - t0, raw


def _close(svc: JobService) -> None:
    try:
        svc.close(timeout=30.0)
    finally:
        stop_children()


def _digest(warmup: bytes, reports: dict[int, bytes]) -> str:
    h = hashlib.sha256(warmup)
    for i in range(DIGEST_INDICES):
        h.update(reports.get(i, b""))
    return h.hexdigest()


def _time_starts(seed: int, workdir, ks: range) -> list[float]:
    """Start and close service *k* for each k in *ks*; the start times."""
    times = []
    for k in ks:
        svc, took, _raw = _start(seed, k, workdir)
        _close(svc)
        times.append(took)
    return times


def measure(seed: int, seconds: float, workdir) -> dict:
    setups = _time_starts(seed, workdir, range(SERVICE_STARTS - 1))
    svc, took, warm = _start(seed, SERVICE_STARTS - 1, workdir)
    setups.append(took)
    loop = Loop(svc.url, seed)
    try:
        wall = loop.run(seconds)
        rss = peak_rss_mb()
    finally:
        _close(svc)
    setups += _time_starts(seed, workdir, range(SERVICE_STARTS, 2 * SERVICE_STARTS))
    done = len(loop.fresh_ms) + len(loop.repeat_ms)
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "run_s": (median(loop.round_s), "s", len(loop.round_s)),
        "peak_rss_mb": (rss, "MB", 1),
        "jobs_per_s": (done / wall if wall else 0.0, "1/s", done),
        "fresh_job_p50_ms": (median(loop.fresh_ms), "ms", len(loop.fresh_ms)),
    }
    extra = {
        "fresh_job_p95_ms": (percentile(loop.fresh_ms, 95), "ms", len(loop.fresh_ms)),
        "repeat_job_p50_ms": (median(loop.repeat_ms), "ms", len(loop.repeat_ms)),
    }
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": loop.attempted + len(setups),
        "failed": len(loop.errors),
        "errors": loop.errors,
        "digest": _digest(warm, loop.reports),
    }


def trace(seed: int, seconds: float, workdir) -> dict:
    """Half the time untraced, half with spans; per-layer metrics."""
    svc, _took, warm = _start(seed, 0, workdir)
    loop = Loop(svc.url, seed)
    spans = Spans(svc)
    try:
        plain_wall = loop.run(seconds / 2)
        plain_jobs = len(loop.fresh_ms) + len(loop.repeat_ms)
        spans.install()
        traced_wall = loop.run(seconds / 2)
        traced_jobs = len(loop.fresh_ms) + len(loop.repeat_ms) - plain_jobs
    finally:
        _close(svc)
    out = spans.layer_metrics(traced_wall)
    out["trace.overhead_frac"] = (
        (traced_wall / traced_jobs) / (plain_wall / plain_jobs) - 1
        if traced_jobs and plain_jobs else 0.0
    )
    return {
        "metrics": out,
        "attempted": loop.attempted + 1,
        "failed": len(loop.errors),
        "errors": loop.errors,
        "digest": _digest(warm, loop.reports),
    }
