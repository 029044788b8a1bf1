"""The three workloads: drive a served MCBound, check its answers, report metrics.

Every workload spawns the backend ``setup_repeats`` times (``setup_s`` is
the median spawn-to-trained time), keeps the last server and drives it
from one closed-loop serve connection for at least ``--seconds`` seconds
and at least ``Size.min_requests`` serve requests (``online_retrain``
adds a second connection that retrains).  Answers are then checked
against an in-process reference ``MCBound`` built from the same trace and
config, and day-window labels are scored against the roofline labels of
the benchmark's own copy of the trace.

Request ids (the ``X-Request-Id`` header, which tags a traced request's
spans): ``setup<k>``/``health<k>`` set-up, ``m<i>`` memo warm-up, ``u<i>``
untimed warm-up, ``s<i>`` measured serve requests, ``t<day>`` daily
``POST /train``, ``w<day>`` its day-window ``POST /predict``.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable

import numpy as np

import tracing
import workloads
from loadgen import Connection, Sample, ServerProcess, closed_loop
from repro.core import JobCharacterizer, MCBound, MCBoundConfig, load_trace_into_db
from repro.fugaku.workload import DAY_SECONDS
from repro.mlcore.metrics import f1_macro

#: serve connections (= threads driving them): one closed loop, as one
#: submit hook waiting for each label.  The whole benchmark runs on one
#: CPU (run.py), where a second loop would only queue behind the first.
#: The loop is paced (``Workload.serve_interval_s``): while the CPU was
#: busy without a break, the host ran it at two speeds ~1.5x apart from
#: run to run, and a paced load with idle gaps did not see the difference.
CONNECTIONS = 1
#: a run's measured phase never exceeds this, so the run ends within 180 s
MAX_MEASURE_S = 90.0
#: idle time before each scored retrain of a serve workload, so that each
#: starts on an idle CPU, as an operator's daily retrain does
RETRAIN_GAP_S = 0.5
#: online_retrain stops before the trace's last day
LAST_TRACE_DAY = 121
#: untimed closed-loop traffic before a serve workload's measured phase;
#: the first requests of a fresh server pay one-off costs (thread and
#: token-cache warm-up) that otherwise make up serve_novel's whole p99
WARMUP_S = 1.0


@dataclass
class Outcome:
    """What one workload measured, before it becomes metrics."""

    #: the measured serve requests and the labels of the valid ones, by stream index
    samples: list[Sample]
    served: dict[int, list[int]]
    #: wall time, start and CPU use of the measured phase (Run.drive)
    phase: dict
    setup_s: list[float]
    retrain_s: list[float]
    f1_macro: float
    spans: list
    properties: dict


class Run:
    """State shared by the workloads of one benchmark run."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool,
                 size: workloads.Size, src: Path, work: Path) -> None:
        self.seed, self.seconds, self.traced, self.size = seed, seconds, traced, size
        self.src, self.work = src, work
        self.workload = workloads.workload(name, size)
        self.trace = workloads.make_trace(size)
        self.trace_file = work / "trace"
        self.trace.save(self.trace_file)
        truth = JobCharacterizer().labels_from_trace(self.trace)
        self.truth = dict(zip(self.trace["job_id"].tolist(), truth.tolist()))
        self.rng = np.random.default_rng([seed, 0xBE7C4])
        #: every request of the run; ``failures`` names the ones that failed
        self.attempted = 0
        self.failures: list[str] = []
        self.kinds: dict[str, str] = {}
        #: server VmHWM once the run's fixed share of work is done
        self.peak_rss_mb: float | None = None

    # -- checks ---------------------------------------------------------------

    def check(self, sample: Sample, expect_status: int = 200) -> dict | None:
        """Count one request; return its JSON body, or None (a failure)."""
        self.attempted += 1
        if sample.error is not None or sample.status != expect_status:
            self.fail(f"{sample.rid}: status {sample.status} {sample.error or sample.body[:200]!r}")
            return None
        try:
            return json.loads(sample.body)
        except ValueError:
            self.fail(f"{sample.rid}: body is not JSON")
            return None

    def labels(self, sample: Sample, n_jobs: int | None) -> list[int] | None:
        """The labels of a ``/predict`` reply: one per job sent, each 0 or 1."""
        body = self.check(sample)
        if body is None:
            return None
        labels = body.get("labels")
        ids = body.get("job_ids")
        if (
            not isinstance(labels, list)
            or not isinstance(ids, list)
            or len(labels) != len(ids)
            or (n_jobs is not None and len(labels) != n_jobs)
            or any(type(label) is not int or label not in (0, 1) for label in labels)
        ):
            self.fail(f"{sample.rid}: expected {n_jobs} labels in {{0, 1}}")
            return None
        return labels

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def reference(self, now_day: float) -> MCBound:
        """In-process MCBound with the served config, trained like the server."""
        ref = MCBound(MCBoundConfig(**self.workload.config), load_trace_into_db(self.trace))
        ref.train(now_day * DAY_SECONDS)
        return ref

    def check_window(self, served: Sample, ref: MCBound, day: int):
        """Served day-window labels: valid and equal to the reference's.

        Returns the served (job_ids, labels).
        """
        labels = self.labels(served, None)
        if labels is None:
            return [], []
        ids = json.loads(served.body)["job_ids"]
        ref_ids, ref_labels = ref.predict_window(day * DAY_SECONDS, (day + 1) * DAY_SECONDS)
        if ids != ref_ids.tolist() or labels != ref_labels.tolist():
            self.fail(f"{served.rid}: window labels differ from the in-process reference")
        return ids, labels

    def check_replies(self, samples: list[Sample], n_jobs) -> dict[int, list[int]]:
        """Check every serve reply; stream index -> labels of the valid ones."""
        served = {}
        for s in samples:
            self.kinds[s.rid] = "serve"
            labels = self.labels(s, n_jobs(s.index))
            if labels is not None:
                served[s.index] = labels
        return served

    def scored_days(self) -> range:
        """The days whose windows make up ``f1_macro`` (after the maintenance gap)."""
        first = workloads.RETRAIN_FIRST_DAY + 1
        return range(first, first + self.size.f1_days)

    def score(self, days: list[tuple[int, Sample, Sample]]) -> tuple[list[float], float]:
        """Check the daily retrains and windows.

        Returns the scored days' ``POST /train`` wall times and the
        macro-F1 of their labels against the roofline labels.  One
        seed-chosen scored day is also compared with an in-process
        reference.  Later retrains (``online_retrain`` keeps retraining
        while it serves) are checked but measured nowhere, so every run
        times the same fixed set of windows.
        """
        scored = self.scored_days()
        retrain_s = []
        for d, train, _ in days:
            self.kinds[train.rid] = "train" if d in scored else "train_extra"
            if self.check(train, 201) is not None and d in scored:
                retrain_s.append(train.latency)
        checked_day = scored[int(self.rng.integers(len(scored)))]
        truth, predicted = [], []
        for d, _, window in days:
            self.kinds[window.rid] = "window"
            if d == checked_day:
                ids, labels = self.check_window(window, self.reference(d), d)
            else:
                labels = self.labels(window, None) or []
                ids = json.loads(window.body)["job_ids"] if labels else []
            if d in scored:
                truth += [self.truth[j] for j in ids]
                predicted += labels
        return retrain_s, f1_macro(truth, predicted, labels=(0, 1))

    def window_profiles(self, days: list[tuple[int, Sample, Sample]]) -> list[dict]:
        """Rows and distinct strings of every retrain window the run trained on."""
        alpha = self.workload.config["alpha_days"]
        return [workloads.window_profile(self.trace, d, alpha) for d, _, _ in days]

    # -- server lifetime --------------------------------------------------------

    def setup(self) -> tuple[ServerProcess, list[float]]:
        """Spawn the server ``setup_repeats`` times; keep the last one running.

        Returns the server and the spawn-to-trained times.
        """
        setup_s = []
        now = self.workload.train_day * DAY_SECONDS
        for k in range(self.size.setup_repeats):
            server = ServerProcess(
                self.src, self.work, f"server{k}", self.trace_file,
                self.workload.config, self.traced,
            )
            try:
                conn = Connection(server.port)
                self.check(conn.post_json("/train", {"now": now}, f"setup{k}"), 201)
                health = self.check(conn.call("GET", "/health", None, f"health{k}"))
                if not (health or {}).get("model_trained"):
                    self.fail(f"health{k}: model not trained after /train")
                setup_s.append(perf_counter() - server.spawned)
                conn.close()
            except BaseException:
                server.kill()
                raise
            if k < self.size.setup_repeats - 1:
                server.stop()
        return server, setup_s

    def drive(self, server: ServerProcess, loops) -> dict:
        """Run ``loops`` on their own threads; the calling thread only waits.

        Returns the phase's wall time, the server's and client's CPU use
        and the host's steal share; traced runs also sample the
        server's thread count every 20 ms.
        """
        errors: list[BaseException] = []

        def guarded(fn):
            try:
                fn()
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(fn,)) for fn in loops]
        server_cpu, client_cpu, host = server.cpu_seconds(), _cpu_seconds(), _host_ticks()
        threads_peak = 0
        # A collection in the client would stall the connections and show
        # up as server latency; the loops create no reference cycles.
        gc.collect()
        gc.disable()
        t0 = perf_counter()
        try:
            for t in threads:
                t.start()
            while self.traced and any(t.is_alive() for t in threads):
                threads_peak = max(threads_peak, int(server.status()["Threads"]))
                sleep(0.02)
            for t in threads:
                t.join()
        finally:
            gc.enable()
        wall = perf_counter() - t0
        if errors:
            raise errors[0]
        return {
            "wall_s": wall,
            "server_cpu_util": (server.cpu_seconds() - server_cpu) / wall,
            "client_cpu_util": (_cpu_seconds() - client_cpu) / wall,
            "server_threads_peak": threads_peak,
            # CPU time the hypervisor gave to other guests, as a share of
            # all CPU time in the phase: context for noisy runs
            "steal_share": _steal_share(host, _host_ticks()),
        }

    def keep_going(self, server: ServerProcess, samples: list) -> Callable[[], bool]:
        """Closed-loop stop rule: ``--seconds`` elapsed and ``min_requests`` done.

        The server's peak RSS is read when the ``min_requests``-th request
        completes, so it covers the same work on every run.
        """
        start = perf_counter()
        deadline, hard = start + self.seconds, start + MAX_MEASURE_S
        lock = threading.Lock()

        def more() -> bool:
            done = len(samples) >= self.size.min_requests
            if done:
                with lock:
                    if self.peak_rss_mb is None:
                        self.peak_rss_mb = server.peak_rss_mb()
            now = perf_counter()
            return now < hard and (now < deadline or not done)

        return more

    def finish(self, server: ServerProcess) -> list:
        """Stop the server and load its spans."""
        if self.peak_rss_mb is None:  # the run hit MAX_MEASURE_S first
            self.peak_rss_mb = server.peak_rss_mb()
        server.stop()
        return json.loads(server.spans_file.read_text()) if self.traced else []


# -- workloads ------------------------------------------------------------------


def replay(run: Run, day: int) -> list[dict]:
    """The submissions of the ``REPLAY_DAYS`` from ``day`` in submit order,
    starting at a seed-chosen job and wrapping round."""
    jobs = workloads.submissions(run.trace, day, day + workloads.REPLAY_DAYS)
    start = int(run.rng.integers(len(jobs)))
    return jobs[start:] + jobs[:start]


def retrain_day(conn: Connection, day: int) -> tuple[int, Sample, Sample]:
    """Retrain at the start of ``day``, then predict the jobs submitted that day."""
    train = conn.post_json("/train", {"now": day * DAY_SECONDS}, f"t{day}")
    window = conn.post_json(
        "/predict",
        {"start_time": day * DAY_SECONDS, "end_time": (day + 1) * DAY_SECONDS},
        f"w{day}",
    )
    return day, train, window


def serve(run: Run) -> dict:
    """``serve_repeat`` / ``serve_novel``: a closed loop of ``POST /predict``.

    After the measured phase one connection runs ``f1_days`` daily
    retrains, untimed by the serve metrics, for ``retrain_s`` and
    ``f1_macro``.
    """
    wl, size = run.workload, run.size
    day = wl.train_day
    if wl.body_jobs == 1:
        jobs = replay(run, day)
        bodies_jobs = [[r] for r in jobs]
        cycle = True
        # One request per distinct string fills the memo before timing, so
        # the measured stream is all repeats whatever the seed's share of
        # first occurrences (serve_novel and online_retrain time misses).
        warm = workloads.first_occurrences(jobs)
    else:
        jobs = workloads.novel_submissions(run.trace, size.novel_bodies * wl.body_jobs, run.seed)
        bodies_jobs = [jobs[i : i + wl.body_jobs] for i in range(0, len(jobs), wl.body_jobs)]
        cycle = False
        warm = []
    bodies = [json.dumps({"jobs": b}).encode() for b in bodies_jobs]

    server, setup_s = run.setup()
    try:
        conn = Connection(server.port)
        for i in warm:
            run.labels(conn.call("POST", "/predict", bodies[i], f"m{i}"), 1)
        seq = itertools.count()
        warmup: list[Sample] = []
        warm_until = perf_counter() + WARMUP_S
        run.drive(server, [
            lambda: closed_loop(server.port, "u", bodies, cycle, seq, warmup,
                                lambda: perf_counter() < warm_until, wl.serve_interval_s)
            for _ in range(CONNECTIONS)
        ])
        for s in warmup:
            run.labels(s, len(bodies_jobs[s.index % len(bodies)]))
        samples: list[Sample] = []
        more = run.keep_going(server, samples)
        phase = run.drive(server, [
            lambda: closed_loop(server.port, "s", bodies, cycle, seq, samples, more,
                                wl.serve_interval_s)
            for _ in range(CONNECTIONS)
        ])
        days = []
        for d in run.scored_days():
            sleep(RETRAIN_GAP_S)
            days.append(retrain_day(conn, d))
        conn.close()
    except BaseException:
        server.kill()
        raise
    spans = run.finish(server)

    served = run.check_replies(samples, lambda i: len(bodies_jobs[i % len(bodies)]))
    ref = run.reference(day)
    timed = sorted(served)
    pool = min(size.min_requests, len(timed))
    ranks = run.rng.choice(pool, size=min(size.reference_sample, pool), replace=False)
    for i in (timed[int(k)] for k in sorted(ranks)):
        if served[i] != ref.predict_records(bodies_jobs[i % len(bodies)]).tolist():
            run.fail(f"s{i}: labels differ from the in-process reference")
    retrain_s, f1 = run.score(days)
    sent = [job for s in sorted(samples, key=lambda s: s.index)
            for job in bodies_jobs[s.index % len(bodies)]]
    properties = {
        **workloads.repeat_profile(sent),
        "jobs_per_body": wl.body_jobs,
        "memo_warmup_requests": len(warm),
        "warmup_requests": len(warmup),
        "retrain_windows": run.window_profiles(days),
    }
    return Outcome(samples, served, phase, setup_s, retrain_s, f1, spans, properties)


def online_retrain(run: Run) -> dict:
    """Connection A retrains daily and scores each day; connection B keeps serving.

    B is paced like the serve workloads.  Back to back, B and the
    retrains also traded CPU time on the one core: runs that served
    faster retrained slower, and the split moved from run to run.
    """
    wl, size = run.workload, run.size
    first = wl.train_day
    jobs = replay(run, first)
    bodies = [json.dumps({"jobs": [r]}).encode() for r in jobs]

    server, setup_s = run.setup()
    try:
        samples: list[Sample] = []
        days: list[tuple[int, Sample, Sample]] = []
        a_done = threading.Event()
        more = run.keep_going(server, samples)

        def retrain_loop() -> None:
            conn = Connection(server.port)
            try:
                for d in range(run.scored_days().start, LAST_TRACE_DAY):
                    days.append(retrain_day(conn, d))
                    if len(days) == size.f1_days:
                        run.peak_rss_mb = server.peak_rss_mb()
                    if len(days) >= size.f1_days and not more():
                        return
            finally:
                a_done.set()
                conn.close()

        phase = run.drive(server, [
            retrain_loop,
            lambda: closed_loop(server.port, "s", bodies, True, itertools.count(),
                                samples, lambda: not a_done.is_set(), wl.serve_interval_s),
        ])
    except BaseException:
        server.kill()
        raise
    spans = run.finish(server)

    served = run.check_replies(samples, lambda i: 1)
    retrain_s, f1 = run.score(days)
    sent = [jobs[s.index % len(jobs)] for s in sorted(samples, key=lambda s: s.index)]
    properties = {
        **workloads.repeat_profile(sent),
        "jobs_per_body": 1,
        "retrain_windows": run.window_profiles(days),
    }
    return Outcome(samples, served, phase, setup_s, retrain_s, f1, spans, properties)


# -- metrics ----------------------------------------------------------------------


def end_to_end(run: Run, out: Outcome) -> dict:
    """The metrics a caller of the service sees, with their units.

    ``jobs_per_s`` counts the labels of every valid measured reply over
    the phase's wall time; the latencies are percentiles of those
    replies and ``retrain_s`` is the median of the scored days' retrain
    times, so a stall that hits a few requests moves them little.
    """
    latencies = np.array([s.latency for s in out.samples if s.index in out.served]) * 1e3
    jobs = sum(len(labels) for labels in out.served.values())
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "jobs_per_s": (jobs / out.phase["wall_s"], "1/s"),
        "latency_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
        "latency_p99_ms": (float(np.percentile(latencies, 99)), "ms"),
        "success_ratio": (1.0 - len(run.failures) / run.attempted, "ratio"),
        "retrain_s": (statistics.median(out.retrain_s), "s"),
        "f1_macro": (out.f1_macro, "ratio"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run: Run, out: Outcome, summary: dict) -> dict:
    """Per-layer metrics from the spans of the serve and train requests.

    Times are means per request of the kind the layer serves ("serve":
    the measured ``/predict`` requests; "train": the scored days'
    ``POST /train`` requests); counts are totals over serve requests and
    means per train request.
    """
    empty = {"requests": 0, "handle": {}, "names": {}}
    sv, tr = summary.get("serve", empty), summary.get("train", empty)

    def ms(k: dict, *names: str, field: str = "total") -> float:
        total = sum(k["names"].get(n, {}).get(field, 0.0) for n in names)
        return 1e3 * total / max(k["requests"], 1)

    def count(k: dict, name: str, key: str, per_request: bool = False) -> float:
        total = k["names"].get(name, {}).get("counts", {}).get(key, 0)
        return total / max(k["requests"], 1) if per_request else total

    # Rows of the scored windows, as the retrains fitted them: counted on
    # the client so that no benchmark work runs inside a timed span.
    scored = run.scored_days()
    windows = [w for w in out.properties["retrain_windows"] if w["now_day"] in scored]
    latency = {s.rid: s.latency for s in out.samples}
    transport = [latency[rid] - h for rid, h in sv["handle"].items() if rid in latency]
    predict_jobs = count(sv, "framework.predict", "jobs")
    encoded = count(sv, "nlp.encode", "strings")
    phase = out.phase
    return {
        "web.requests": (sv["requests"], "count"),
        "web.handle_ms": (ms(sv, "web.handle"), "ms"),
        "web.transport_ms": (1e3 * statistics.fmean(transport) if transport else 0.0, "ms"),
        "web.json_parse_ms": (ms(sv, "web.json_parse"), "ms"),
        "web.serialize_ms": (ms(sv, "web.serialize"), "ms"),
        "framework.predict_ms": (ms(sv, "framework.predict"), "ms"),
        "framework.predict_jobs": (predict_jobs, "count"),
        "framework.encoded_strings": (encoded, "count"),
        "framework.memo_hit_ratio": (1.0 - encoded / predict_jobs if predict_jobs else 0.0, "ratio"),
        "framework.train_self_ms": (ms(tr, "framework.train", field="self"), "ms"),
        "encoder.feature_string_ms": (ms(sv, "encoder.feature_string"), "ms"),
        "encoder.strings_from_result_ms": (ms(tr, "encoder.strings_from_result"), "ms"),
        "nlp.encode_calls": (sv["names"].get("nlp.encode", {}).get("calls", 0), "count"),
        "nlp.encode_strings": (encoded, "count"),
        "nlp.encode_ms": (ms(sv, "nlp.encode"), "ms"),
        "nlp.train_encode_ms": (ms(tr, "nlp.encode"), "ms"),
        "mlcore.infer_rows": (count(sv, "mlcore.infer", "rows"), "count"),
        "mlcore.infer_ms": (ms(sv, "mlcore.infer"), "ms"),
        "mlcore.fit_rows": (count(tr, "mlcore.fit", "rows", True), "rows"),
        "mlcore.fit_distinct_rows": (
            statistics.fmean(w["distinct_strings"] for w in windows) if windows else 0.0, "rows"
        ),
        "mlcore.fit_ms": (ms(tr, "mlcore.fit"), "ms"),
        "storage.fetch_batches": (count(tr, "storage.fetch_batch", "batches", True), "count"),
        "storage.fetch_rows": (count(tr, "storage.fetch_batch", "rows", True), "rows"),
        "storage.fetch_ms": (ms(tr, "storage.fetch_batch", "storage.fetch"), "ms"),
        "characterize.rows": (count(tr, "characterize", "rows", True), "rows"),
        "characterize.ms": (ms(tr, "characterize"), "ms"),
        "registry.publish_ms": (ms(tr, "registry.publish"), "ms"),
        "registry.publish_bytes": (count(tr, "registry.publish", "bytes", True), "bytes"),
        "train.requests": (tr["requests"], "count"),
        "server.cpu_util": (phase["server_cpu_util"], "cpu_s/s"),
        "server.threads_peak": (phase["server_threads_peak"], "count"),
        "client.cpu_util": (phase["client_cpu_util"], "cpu_s/s"),
    }


def span_table(summary: dict) -> dict:
    """Per kind, per span name: calls, total and self milliseconds per request."""
    return {
        kind: {
            name: {
                "calls_per_request": e["calls"] / k["requests"],
                "total_ms": 1e3 * e["total"] / k["requests"],
                "self_ms": 1e3 * e["self"] / k["requests"],
            }
            for name, e in sorted(k["names"].items())
        } | {"requests": k["requests"]}
        for kind, k in summary.items()
    }


def settings(run: Run, root: Path, name: str, tiny: bool) -> dict:
    return {
        "workload": name,
        "seed": run.seed,
        "seconds": run.seconds,
        "traced": run.traced,
        "tiny": tiny,
        "scale": run.size.scale,
        "trace_seed": workloads.TRACE_SEED,
        "min_requests": run.size.min_requests,
        "setup_repeats": run.size.setup_repeats,
        "model_config": run.workload.config,
        "connections": CONNECTIONS,
        "serve_interval_s": run.workload.serve_interval_s,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
    }


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool,
        root: Path, work: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result line)."""
    size = workloads.TINY if tiny else workloads.FULL
    r = Run(name, seed, seconds, traced, size, root / "src", work)
    out = online_retrain(r) if name == "online_retrain" else serve(r)
    metrics = end_to_end(r, out)
    report = {
        "settings": settings(r, root, name, tiny),
        "properties": out.properties,
        "latency_samples": sum(1 for s in out.samples if s.index in out.served),
        "host_steal_share": out.phase["steal_share"],
        "server_cpu_util": out.phase["server_cpu_util"],
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
        "failures": r.failures[:20],
    }
    if traced:
        summary = tracing.summarize(out.spans, r.kinds)
        metrics = per_layer(r, out, summary)
        report["spans"] = span_table(summary)
    result = {
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _host_ticks() -> list[int]:
    """Aggregate CPU tick counters of the host (first line of ``/proc/stat``)."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def _steal_share(before: list[int], after: list[int]) -> float:
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """SHA-256 over the package sources, naming the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
