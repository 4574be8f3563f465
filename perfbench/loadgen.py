"""Single-threaded HTTP/1.1 load generation: open-loop rungs and closed loops.

One asyncio event loop in the benchmark's main thread drives every
connection, so the generator never shares the gateway's loop and never adds
threads.  An open loop sends request ``i`` at ``start + i / rate`` whatever
the server does; latency runs from that due time, so time spent waiting for a
free connection counts against the server, and ``late_ms`` records how late
the generator itself woke (a rung whose generator fell behind is invalid).
A closed loop sends its next request only after the previous reply.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from procs import BenchError

REQUEST_TIMEOUT_S = 30.0


def max_connections() -> int:
    """At most one keep-alive connection per CPU the benchmark may use."""
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """One request: due/send/done times (``perf_counter``) and the reply."""

    index: int
    due: float
    sent: float
    done: float
    status: int  # 0 = transport error or timeout
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class Connection:
    """A keep-alive HTTP/1.1 client connection (Content-Length framing)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        if self._writer is None:
            await self._open()
        head = (f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        data = await self._reader.readexactly(length)
        if close:
            await self.close()
        return status, data

    async def exchange(self, path: str, body: bytes) -> tuple[int, bytes]:
        """``post`` with a timeout; a failed exchange resets the connection."""
        try:
            return await asyncio.wait_for(self.post(path, body), REQUEST_TIMEOUT_S)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError, OSError,
                ValueError, IndexError):
            await self.close()
            return 0, b""


@dataclass
class OpenLoopResult:
    outcomes: list[Outcome]
    late_ms: list[float]
    aborted: bool  # the backlog outgrew its limit; unsent requests dropped
    final_backlog: int  # requests due but not yet sent at the last due time
    unsent: int = 0


@dataclass
class LoopGuard:
    """Asserts the generator's honesty: one thread, at most nproc connections."""

    thread: int = field(default_factory=threading.get_ident)

    def check(self, connections: int) -> None:
        if threading.get_ident() != self.thread:
            raise BenchError("load generator left its thread")
        if threading.active_count() != 1:
            raise BenchError(f"load generator runs {threading.active_count()} threads")
        if connections > max_connections():
            raise BenchError(f"{connections} connections exceed nproc={max_connections()}")


async def open_loop(
    conns: list[Connection],
    path: str,
    bodies: list[bytes],
    rate: float,
    start: float,
    on_reply: Callable[[Outcome], None],
    backlog_limit: int | None = None,
) -> OpenLoopResult:
    """Send ``bodies[i]`` at ``start + i / rate`` over ``conns``."""
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    late: list[float] = []
    state = {"aborted": False, "backlog": 0, "unsent": 0}

    async def generate() -> None:
        for i, body in enumerate(bodies):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, time.perf_counter() - due) * 1e3)
            queue.put_nowait((i, due, body))
            if backlog_limit is not None and queue.qsize() > backlog_limit:
                state["aborted"] = True
                break
        state["backlog"] = queue.qsize()
        if state["aborted"]:
            while not queue.empty():
                queue.get_nowait()
                state["unsent"] += 1
        for _ in conns:
            queue.put_nowait(None)

    async def serve(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            i, due, body = item
            sent = time.perf_counter()
            status, data = await conn.exchange(path, body)
            outcome = Outcome(i, due, sent, time.perf_counter(), status, data)
            outcomes.append(outcome)
            on_reply(outcome)

    await asyncio.gather(generate(), *(serve(c) for c in conns))
    outcomes.sort(key=lambda o: o.index)
    return OpenLoopResult(outcomes, late, state["aborted"], state["backlog"], state["unsent"])


async def closed_loop(
    conn: Connection,
    path: str,
    bodies: list[bytes],
    until: float,
    on_reply: Callable[[Outcome], bool],
) -> list[Outcome]:
    """Send ``bodies`` one after another until ``until`` or a failed reply.

    ``on_reply`` returns False to stop the loop (an ordered stream cannot
    continue past a lost or wrong answer).
    """
    outcomes = []
    for i, body in enumerate(bodies):
        if time.perf_counter() >= until:
            break
        sent = time.perf_counter()
        status, data = await conn.exchange(path, body)
        outcome = Outcome(i, sent, sent, time.perf_counter(), status, data)
        outcomes.append(outcome)
        if not on_reply(outcome):
            break
    return outcomes


def median(values: list[float]) -> float:
    data = sorted(values)
    if not data:
        return 0.0
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else (data[mid - 1] + data[mid]) / 2


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``; with too few samples for any such
    percentile, the maximum at percentile 100.
    """
    data = sorted(values)
    if not data:
        return 0.0, 0.0
    k = max(0, len(data) - beyond - 1)
    return data[k], 100.0 * (k + 1) / len(data)


#: fewest samples in a window a tail is taken from
TAIL_WINDOW = 100


def windows(values: list, count: int) -> list[list]:
    """``values`` cut into ``count`` consecutive, nearly equal windows."""
    count = max(1, min(count, len(values)))
    size = len(values) // count
    return [values[w * size:(w + 1) * size] if w < count - 1 else values[w * size:]
            for w in range(count)]


def summary(values: list[float]) -> dict:
    """Whole-run median of a stream, and its tail.

    On a shared virtual machine speed drifts by tens of percent, with fast
    and slow stretches of seconds; a median over the whole run averages
    them.  The tail is the median over windows of at least ``TAIL_WINDOW``
    samples (one window for shorter streams) of each window's tail, so one
    noisy stretch moves it less.
    """
    tails = [tail(part) for part in windows(values, len(values) // TAIL_WINDOW)]
    return {
        "p50": median(values),
        "tail": median([t[0] for t in tails]),
        "tail_percentile": min(t[1] for t in tails),
        "tail_windows": len(tails),
        "samples": len(values),
    }
