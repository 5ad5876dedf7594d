"""Shared plumbing: paths, child processes, a tiny HTTP client, statistics.

Everything the benchmark runs against the program goes through the real
entry points (``python -m repro.service query|update|serve|farm``) started
as child processes of this one; the helpers here start them, time them
from ``exec``, read their peak RSS from ``wait4`` and stop them.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for indexes and child logs; one sub-directory per run
WORK = ROOT / ".e2ebench_work"


def require_program() -> None:
    """Exit non-zero (printing no result) when the program sources are absent."""
    if not (SRC / "repro" / "service" / "cli.py").is_file():
        sys.stderr.write(f"e2ebench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def work_dir(workload: str, seed: int) -> Path:
    path = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the p50/p90 convention of the server's reservoir)."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# ---------------------------------------------------------------------- #
# child processes
# ---------------------------------------------------------------------- #
@dataclass(eq=False)
class Child:
    """One program process started by the benchmark."""

    proc: subprocess.Popen
    started: float  # perf_counter just before exec
    peak_rss_kb: int = 0
    returncode: int | None = None

    def reap(self, timeout: float = 60.0) -> int:
        """Wait for exit (bounded), recording exit code and peak RSS."""
        deadline = time.monotonic() + timeout
        while self.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_kb = int(usage.ru_maxrss)
                self.proc.returncode = self.returncode
                _LIVE.discard(self)
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = time.monotonic() + 10.0
            time.sleep(0.002)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.returncode

    def stop(self) -> int:
        """SIGINT (the servers' graceful drain), then reap."""
        if self.returncode is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
        return self.reap(timeout=30.0)


def spawn(args: list[str], log: Path, stdout_pipe: bool = False) -> Child:
    """Start ``python -m repro.service <args>``; stderr goes to *log*."""
    handle = open(log, "ab")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", *args],
        stdout=subprocess.PIPE if stdout_pipe else handle,
        stderr=handle,
        env=child_env(),
        cwd=str(ROOT),
    )
    handle.close()
    child = Child(proc=proc, started=started)
    _LIVE.add(child)
    return child


#: children not yet reaped; stopped on any exit of the benchmark process
_LIVE: set[Child] = set()


def _stop_all() -> None:
    for child in list(_LIVE):
        child.stop()


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


atexit.register(_stop_all)
signal.signal(signal.SIGTERM, _terminate)


def run_to_marker(args: list[str], log: Path, marker: str) -> tuple[Child, float]:
    """Run a CLI command to its end; returns (child, seconds from exec to *marker*).

    The marker line is the first stdout line starting with *marker* — the
    moment the command's answer is on disk.  A command that fails or
    never prints it raises.
    """
    child = spawn(args, log, stdout_pipe=True)
    marked = None
    assert child.proc.stdout is not None
    for raw in child.proc.stdout:
        if marked is None and raw.startswith(marker.encode()):
            marked = time.perf_counter() - child.started
    code = child.reap()
    if code != 0 or marked is None:
        raise RuntimeError(f"`repro.service {args[0]}` failed (exit {code}); see {log}")
    return child, marked


def start_server(args: list[str], log: Path) -> tuple[Child, int]:
    """Start ``serve``/``farm`` on an ephemeral port; returns (child, port)."""
    child = spawn(args + ["--port", "0"], log, stdout_pipe=True)
    assert child.proc.stdout is not None
    for raw in child.proc.stdout:
        line = raw.decode(errors="replace")
        if " on http://" in line:
            port = int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            # keep draining stdout so the server never blocks on a full pipe
            _drain_in_background(child)
            return child, port
    child.reap()
    raise RuntimeError(f"server exited before binding; see {log}")


def _drain_in_background(child: Child) -> None:
    import threading

    def drain() -> None:
        try:
            for _ in child.proc.stdout:  # type: ignore[union-attr]
                pass
        except ValueError:  # closed by reap()
            pass

    threading.Thread(target=drain, daemon=True).start()


# ---------------------------------------------------------------------- #
# HTTP/1.1 keep-alive client
# ---------------------------------------------------------------------- #
class HttpError(RuntimeError):
    pass


class Connection:
    """One keep-alive HTTP/1.1 connection (no pipelining)."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.buffer = b""

    def _connect(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), self.timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.buffer = b""
        return self.sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        sock = self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        sock.sendall(head.encode("latin-1") + body)
        return self._read_response()

    def _fill(self) -> None:
        assert self.sock is not None
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            self.close()
            raise HttpError("connection closed without a response")
        self.buffer += chunk

    def _read_response(self) -> tuple[int, bytes]:
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, rest = self.buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        self.buffer = rest
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, body

    def json(self, method: str, path: str, payload: object | None = None) -> dict:
        body = b"" if payload is None else json.dumps(payload).encode()
        status, raw = self.request(method, path, body)
        if status != 200:
            raise HttpError(f"{method} {path} -> {status}: {raw[:200]!r}")
        return json.loads(raw)


def hostile_request(port: int, kind: str) -> int | None:
    """Send one malformed request on a fresh connection.

    Returns the response status, or ``None`` when the server dropped the
    connection without answering.  ``kind`` is ``"content_length"`` (a
    non-numeric ``Content-Length``) or ``"long_header"`` (one header line
    over 64 KiB).
    """
    if kind == "content_length":
        raw = (
            b"POST /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Length: twelve\r\n\r\n"
        )
    else:
        raw = (
            b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Filler: "
            + b"a" * (70 << 10)
            + b"\r\n\r\n"
        )
    conn = Connection(port, timeout=10.0)
    try:
        sock = conn._connect()
        try:
            sock.sendall(raw)
        except (BrokenPipeError, ConnectionResetError):
            pass
        return conn._read_response()[0]
    except (HttpError, ConnectionResetError, BrokenPipeError, socket.timeout):
        return None
    finally:
        conn.close()


def wait_healthy(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn = Connection(port, timeout=5.0)
            try:
                if conn.request("GET", "/healthz")[0] == 200:
                    return
            finally:
                conn.close()
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server never became healthy")
        time.sleep(0.005)


def scrape_metrics(port: int) -> dict[str, float]:
    """``GET /metrics`` as ``{"name{labels}": value}``."""
    conn = Connection(port)
    try:
        status, body = conn.request("GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise HttpError(f"/metrics -> {status}")
    values = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


# ---------------------------------------------------------------------- #
# client-side spans (traced runs)
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory spans from the benchmark's own files, written out at the end.

    In a traced run, every other round is traced (``active``): its
    operations and the layer probes record a span each.  Every operation's
    latency is also kept by round kind, so the tracing overhead is the
    traced-minus-untraced difference of the same operations.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.active = False
        self.spans: list[dict] = []
        self.latency: dict[bool, list[float]] = {True: [], False: []}

    def round(self, number: int) -> None:
        self.active = self.enabled and number % 2 == 1

    def op(self, name: str, start: float, end: float, **attrs: object) -> None:
        self.latency[self.active].append(end - start)
        if self.active:
            self.spans.append({"name": name, "start": start, "end": end, **attrs})

    def span(self, name: str, start: float, end: float, **attrs: object) -> None:
        if self.enabled:
            self.spans.append({"name": name, "start": start, "end": end, **attrs})

    def overhead_ms(self) -> float:
        traced, plain = self.latency[True], self.latency[False]
        if not traced or not plain:
            return 0.0
        return (median(traced) - median(plain)) * 1000.0

    def write(self, path: Path) -> None:
        if self.enabled:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.spans))
