"""Client side of the benchmark: the server process and its connections.

The backend runs in its own process (``server.py``) so the client's own
Python work stays off the server's interpreter lock.  Each connection is
one socket connection driven in a closed loop: the next request
is sent only after the previous reply has been read, as a submit hook
waiting for a label does.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep

from tracing import REQUEST_ID_HEADER

HERE = Path(__file__).resolve().parent
#: longest a server may take from spawn to listening
START_TIMEOUT_S = 60.0
#: per-request socket timeout; a reply slower than this is a failure
REQUEST_TIMEOUT_S = 60.0


class ServerProcess:
    """One ``server.py`` backend process, stopped by closing its stdin."""

    def __init__(self, src: Path, work: Path, name: str, trace_file: Path,
                 config: dict, traced: bool) -> None:
        #: where the server writes its spans when ``traced``
        self.spans_file = work / f"{name}.spans.json" if traced else None
        cmd = [
            sys.executable, str(HERE / "server.py"),
            "--trace-file", str(trace_file),
            "--store", str(work / f"{name}.store"),
            "--config", json.dumps(config),
        ]
        if traced:
            cmd += ["--spans", str(self.spans_file)]
        path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        # One malloc arena, as suits a server on one CPU.  With glibc's
        # default of up to 8 per core, per-request threads spread their
        # allocations over several arenas and online_retrain's VmHWM ranged
        # 109-166 MB over runs of the same work; with one, within 1-3 MB.
        env = {**os.environ, "PYTHONPATH": path, "MALLOC_ARENA_MAX": "1"}
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=work, env=env,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("benchmark server did not start")
            self.port = json.loads(line)["port"]
        except BaseException:
            self.kill()
            raise

    def stop(self) -> None:
        """Close stdin and wait for the server to exit (spans are written then)."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()
        if self.proc.returncode:
            raise RuntimeError(f"benchmark server exited with {self.proc.returncode}")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()

    def status(self) -> dict[str, str]:
        """``/proc/<pid>/status`` fields (``VmHWM``, ``Threads``, ...)."""
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        return dict(line.split(":\t", 1) for line in text.splitlines() if ":\t" in line)

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``) so far."""
        return int(self.status()["VmHWM"].split()[0]) / 1024

    def cpu_seconds(self) -> float:
        """User + system CPU time the server has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass(slots=True)
class Sample:
    """One request as the client saw it."""

    rid: str
    #: position in the workload's request stream
    index: int
    #: perf_counter() when the reply (or the error) arrived
    done: float
    latency: float
    status: int
    body: bytes
    error: str | None = None


class Connection:
    """One client connection on a raw socket, speaking HTTP/1.1.

    The connection stays open while the server keeps it alive and is
    reopened when the server closes it (the stdlib server answers with
    HTTP/1.0 and closes after every reply), so connect time is part of
    each request's latency exactly when the server makes it so.  The
    client stays small so its own CPU use disturbs the server little.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: socket.socket | None = None

    def call(self, method: str, path: str, body: bytes | None, rid: str,
             index: int = 0) -> Sample:
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{REQUEST_ID_HEADER}: {rid}\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        request = head.encode() + b"\r\n" + (body or b"")
        t0 = perf_counter()
        try:
            if self.sock is None:
                self.sock = socket.create_connection(
                    ("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S
                )
            self.sock.sendall(request)
            status, data, keep = self._reply()
        except (OSError, ValueError) as exc:
            self.close()
            done = perf_counter()
            return Sample(rid, index, done, done - t0, 0, b"", repr(exc))
        done = perf_counter()
        if not keep:
            self.close()
        return Sample(rid, index, done, done - t0, status, data)

    def _reply(self) -> tuple[int, bytes, bool]:
        """Read one reply: (status, body, whether the connection stays open)."""
        buf = bytearray()
        while (end := buf.find(b"\r\n\r\n")) < 0:
            buf += self._recv()
        lines = buf[:end].decode("latin-1").split("\r\n")
        version, status = lines[0].split(" ", 2)[:2]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        data = buf[end + 4 :]
        if "content-length" not in headers:
            while chunk := self.sock.recv(1 << 16):
                data += chunk
            return int(status), bytes(data), False
        length = int(headers["content-length"])
        while len(data) < length:
            data += self._recv()
        connection = headers.get("connection", "")
        keep = connection == "keep-alive" if version == "HTTP/1.0" else connection != "close"
        return int(status), bytes(data), keep

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection mid-reply")
        return chunk

    def post_json(self, path: str, payload, rid: str) -> Sample:
        return self.call("POST", path, json.dumps(payload).encode(), rid)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def closed_loop(port: int, prefix: str, bodies: list[bytes], cycle: bool, seq,
                samples: list[Sample], keep_going, interval: float = 0.0) -> None:
    """Send ``POST /predict`` bodies until ``keep_going()`` is false.

    Each request waits for the previous reply.  With ``interval`` it also
    waits until ``interval`` seconds after the previous send, so the
    caller offers at most ``1 / interval`` requests per second; a late
    reply delays the next send and is not made up for.  ``seq`` is an
    ``itertools.count`` shared by the connections of one stream, so
    together they send the bodies in stream order; request ``i`` gets
    the id ``prefix + str(i)``.  Without ``cycle`` the stream ends after
    its last body.
    """
    conn = Connection(port)
    due = perf_counter()
    try:
        while keep_going():
            if interval:
                if (wait := due - perf_counter()) > 0:
                    sleep(wait)
                due = max(due + interval, perf_counter())
            i = next(seq)
            if i >= len(bodies) and not cycle:
                return
            samples.append(
                conn.call("POST", "/predict", bodies[i % len(bodies)], f"{prefix}{i}", i)
            )
    finally:
        conn.close()
