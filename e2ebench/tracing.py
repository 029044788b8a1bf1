"""Spans recorded from outside the program, around each layer's public calls.

The server entry script installs :class:`Tracer` wrappers on the live
objects of one MCBound backend (the app, the framework and its
components, and the classes whose instances are created per request or
per retrain).  Nothing under ``src/`` is edited: a wrapper records a span
(name, start, end, parent span, request id) plus the counts its layer
exposes, keeps it in memory and the whole list is written out when the
server stops.

:func:`summarize` turns the spans back into per-request totals and self
times (a span's duration minus the part its children cover).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter

#: request header carrying the client's request id
REQUEST_ID_HEADER = "X-Request-Id"


class Tracer:
    """In-memory span recorder; one per server process."""

    def __init__(self) -> None:
        #: (span id, parent id, name, request id, start, end, counts)
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name: str, counts=None):
        """``fn`` recording one span per call.

        ``counts(args, kwargs, result) -> dict`` runs after the span has
        ended but inside the caller's span, so it must stay cheap (a
        ``len`` or a returned value); costlier counts are resolved once
        the server has stopped (:func:`resolve_publish_bytes`).
        """
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                counted = counts(args, kwargs, result) if counts and result is not None else None
                self.spans.append(
                    (sid, parent, name, getattr(local, "rid", None), t0, t1, counted)
                )

        return traced

    def wrap_iter(self, fn, name: str, counts=None):
        """Generator function ``fn`` recording one span per item produced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = self.wrap(functools.partial(next, iter(fn(*args, **kwargs))), name, counts)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    def wrap_request(self, handle):
        """``App.handle`` tagging the spans of a request with its id."""
        local = self._local
        traced = self.wrap(handle, "web.handle")

        @functools.wraps(handle)
        def tagged(request):
            local.rid = request.headers.get(REQUEST_ID_HEADER)
            try:
                return traced(request)
            finally:
                local.rid = None

        return tagged

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def install(tracer: Tracer, app, framework) -> None:
    """Wrap every layer boundary of one served MCBound instance."""
    from repro.core.classification_model import ClassificationModel
    from repro.web.app import Request, Response

    wrap = tracer.wrap
    app.handle = tracer.wrap_request(app.handle)
    # Request and model objects are created per request / per retrain, so
    # their classes are wrapped inside this server process.
    Request.json = wrap(Request.json, "web.json_parse")
    Response.from_handler_result = staticmethod(
        wrap(Response.from_handler_result, "web.serialize")
    )
    ClassificationModel.inference = wrap(
        ClassificationModel.inference, "mlcore.infer",
        lambda a, kw, r: {"rows": len(a[1])},
    )
    ClassificationModel.training = wrap(
        ClassificationModel.training, "mlcore.fit", lambda a, kw, r: {"rows": len(a[1])}
    )
    fw = framework
    fw.predict_records = wrap(
        fw.predict_records, "framework.predict", lambda a, kw, r: {"jobs": len(a[0])}
    )
    fw.train = wrap(fw.train, "framework.train")
    fw.encoder.feature_string = wrap(fw.encoder.feature_string, "encoder.feature_string")
    fw.encoder.feature_strings_from_result = wrap(
        fw.encoder.feature_strings_from_result, "encoder.strings_from_result",
        lambda a, kw, r: {"rows": len(r)},
    )
    fw.encoder.embedder.encode = wrap(
        fw.encoder.embedder.encode, "nlp.encode",
        lambda a, kw, r: {"strings": 1 if isinstance(a[0], str) else len(a[0])},
    )
    fw.fetcher.fetch = wrap(fw.fetcher.fetch, "storage.fetch", lambda a, kw, r: {"rows": len(r)})
    fw.fetcher.fetch_batches = tracer.wrap_iter(
        fw.fetcher.fetch_batches, "storage.fetch_batch",
        lambda a, kw, r: {"rows": len(r), "batches": 1},
    )
    fw.characterizer.labels_from_result = wrap(
        fw.characterizer.labels_from_result, "characterize", lambda a, kw, r: {"rows": len(r)}
    )
    if fw.store is not None:
        fw.store.publish = wrap(
            fw.store.publish, "registry.publish", lambda a, kw, version: {"version": version}
        )


def resolve_publish_bytes(tracer: Tracer, framework) -> None:
    """Replace each publish span's version with the bytes that version wrote.

    Runs after the server has stopped, so the directory walk is inside
    no timed span.
    """
    root = framework.store.registry.root
    for span in tracer.spans:
        counts = span[6]
        if span[2] == "registry.publish" and counts:
            version_dir = root / f"v{counts.pop('version'):08d}"
            counts["bytes"] = sum(p.stat().st_size for p in version_dir.rglob("*") if p.is_file())


def summarize(spans: list, kinds: dict[str, str]) -> dict:
    """Per request kind, per span name: calls, counts, total and self time.

    ``kinds`` maps request id -> kind ("serve", "train", ...); spans of
    other requests are ignored.  Times are in seconds, summed over all the
    requests of the kind; ``requests`` is how many requests of the kind
    produced spans, and ``handle`` maps each request id to its
    ``web.handle`` duration.
    """
    covered: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, name, rid, t0, t1, counts in spans:
        if parent is not None:
            covered.setdefault(parent, []).append((t0, t1))
    out: dict[str, dict] = {}
    for sid, parent, name, rid, t0, t1, counts in spans:
        kind = kinds.get(rid)
        if kind is None:
            continue
        k = out.setdefault(kind, {"requests": set(), "handle": {}, "names": {}})
        k["requests"].add(rid)
        if name == "web.handle":
            k["handle"][rid] = t1 - t0
        entry = k["names"].setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["total"] += t1 - t0
        entry["self"] += (t1 - t0) - _union(covered.get(sid, ()))
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    for k in out.values():
        k["requests"] = len(k["requests"])
    return out


def _union(intervals) -> float:
    """Total length covered by a set of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
