"""Child processes of the benchmark: spawn, readiness, teardown, peak memory.

Every child writes stdout and stderr to files in the run's scratch directory,
never to a pipe, so a child can outlive a failing parent without blocking on
a full pipe, and the parent never blocks on a read: readiness is a line
polled from the stdout file against a deadline.  :meth:`Child.stop` sends
SIGTERM and reaps (SIGKILL after a grace period); callers run it in a
``finally`` so no child survives the benchmark.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 60.0

_BANNER = re.compile(r"listening on http://([^:]+):(\d+)")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, dead child)."""


def require_program() -> None:
    """Refuse to run outside a checkout that holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # NumPy asks for transparent huge pages on arrays of 4 MiB and more; with
    # THP defrag on madvise, one process then runs the 262,144-node sweep
    # kernel at about 80 ms a row and the next at about 115 ms, for the whole
    # process.  Without the request every process runs at the faster speed.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


class Child:
    """One child process with file-backed stdout/stderr."""

    def __init__(self, argv: list[str], workdir: Path, name: str) -> None:
        self.out_path = workdir / f"{name}.out"
        self.err_path = workdir / f"{name}.err"
        self.started = time.perf_counter()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
                stdout=out, stderr=err,
            )

    def wait_line(self, pattern: re.Pattern[str], timeout_s: float = READY_TIMEOUT_S) -> re.Match[str]:
        """Poll stdout for a line matching ``pattern`` until ``timeout_s``."""
        deadline = time.perf_counter() + timeout_s
        while True:
            with open(self.out_path, encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    match = pattern.search(line)
                    if match is not None and line.endswith("\n"):
                        return match
            if self.proc.poll() is not None:
                raise BenchError(
                    f"child exited with {self.proc.returncode} before readiness: "
                    f"{self.stderr_tail()}"
                )
            if time.perf_counter() > deadline:
                raise BenchError(f"no readiness line within {timeout_s:.0f} s")
            time.sleep(0.001)

    def stderr_tail(self, lines: int = 5) -> str:
        text = self.err_path.read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-lines:])

    def peak_rss_mb(self) -> float:
        """High-water resident memory of the live child (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def wait_exit(self, timeout_s: float) -> int:
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child still running after {timeout_s:.0f} s") from None

    def stop(self) -> None:
        """SIGTERM, wait for the graceful exit, SIGKILL as a last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def last_json_line(path: Path) -> dict | None:
    """The last line of ``path`` that parses as a JSON object."""
    for line in reversed(path.read_text(encoding="utf-8", errors="replace").splitlines()):
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(data, dict):
            return data
    return None


class Gateway(Child):
    """A ``python -m repro serve`` process (or the traced launcher)."""

    def __init__(self, workdir: Path, name: str, spans_path: Path | None = None) -> None:
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            argv = [sys.executable, str(BENCH / "traced_gateway.py"),
                    "--spans", str(spans_path), "--port", "0"]
        super().__init__(argv, workdir, name)
        try:
            match = self.wait_line(_BANNER)
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def post(self, path: str, payload: dict) -> dict:
        """One blocking JSON request (warm-up and set-up only)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", path, body=json.dumps(payload).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError(f"POST {path} -> {response.status}: {data[:200]!r}")
        return json.loads(data)

    def drained_stats(self) -> dict:
        """The final ``/stats`` line the gateway prints after a SIGTERM drain."""
        stats = last_json_line(self.err_path)
        if stats is None or "server" not in stats:
            raise BenchError(f"gateway left no drained /stats line: {self.stderr_tail()}")
        return stats
