"""The repository benchmark: sweeps, ``/measure`` serving and churn re-embedding.

::

    python3 perfbench/run.py --workload serve_measure --seed 1 --seconds 32 --trace 0

Every measured run starts a fresh program process (a sweep process or a
``python -m repro serve`` gateway), warms it with inputs disjoint from the
measured ones, drives it from this single-threaded process, checks every
answer, and prints one JSON object as its last stdout line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from a traced process,
plus the tracing overhead against an untraced one) with ``--trace 1``.
A line before it (``detail``) carries the per-workload names of the metrics
and the numbers behind them.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import re
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
from procs import BENCH, ROOT, BenchError, Child, Gateway, require_program  # noqa: E402

#: set-up samples per untraced run (fresh processes); the median is reported
SETUP_SAMPLES = 5
#: a rung is invalid when the generator's p99 lateness exceeds two
#: inter-arrival gaps (it fell behind its schedule), or this floor
LATE_FLOOR_MS = 10.0
#: sampled rings compared with offline FFC per run
FFC_SAMPLES = 4
#: latency a failed /measure request counts with: the client's timeout
FAILED_LATENCY_MS = loadgen.REQUEST_TIMEOUT_S * 1e3
PLANTS = ("sweep", "measure", "status", "ring", "ffc")
_READY = re.compile(r"^ready$")


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    work: Path
    plant: str | None = None
    spawned: int = 0

    def name(self, kind: str) -> str:
        self.spawned += 1
        return f"{kind}-{self.spawned}"


@dataclass
class Phase:
    """One measured program process."""

    setup_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    errors: list[str]
    throughput: float
    main_ms: list[float]
    second_ms: list[float]
    since: float  # start of the measuring window (perf_counter, system-wide)
    spans_path: Path | None = None
    stats: dict = field(default_factory=dict)
    late_ms: list[float] = field(default_factory=list)
    response_bytes: list[int] = field(default_factory=list)
    #: stream of each sweep call (span request ids are call indices)
    call_streams: list[int] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


# -- sweeps --------------------------------------------------------------------
def _sweep_argv(ctx: Ctx, out: Path | None, spans_path: Path | None, setup_only: bool) -> list[str]:
    argv = [sys.executable, str(BENCH / "sweep_worker.py"),
            "--seed", str(ctx.seed), "--seconds", str(ctx.seconds)]
    if out is not None:
        argv += ["--out", str(out)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    if setup_only:
        argv.append("--setup-only")
    return argv


def sweep_setup(ctx: Ctx) -> float:
    child = Child(_sweep_argv(ctx, None, None, True), ctx.work, ctx.name("sweep-setup"))
    try:
        child.wait_line(_READY)
        setup = time.perf_counter() - child.started
        if child.wait_exit(60) != 0:
            raise BenchError(f"sweep set-up failed: {child.stderr_tail()}")
    finally:
        child.stop()
    return setup


def sweep_phase(ctx: Ctx, traced: bool) -> Phase:
    name = ctx.name("sweep")
    out = ctx.work / f"{name}.json"
    spans_path = ctx.work / f"{name}.spans" if traced else None
    child = Child(_sweep_argv(ctx, out, spans_path, False), ctx.work, name)
    try:
        child.wait_line(_READY)
        setup = time.perf_counter() - child.started
        if child.wait_exit(ctx.seconds + 60) != 0:
            raise BenchError(f"sweep process failed: {child.stderr_tail()}")
    finally:
        child.stop()
    result = json.loads(out.read_text())
    calls, rows, latency = result["calls"], result["rows"], result["latency_s"]
    sample = checks.sweep_sample(ctx.seed, calls)
    if ctx.plant == "sweep":
        rows[sample[0]][0]["avg_size"] += 1.0
    errors, bad = [], set()
    for i, call in enumerate(calls):
        for err in checks.row_invariant_errors(call, rows[i]):
            errors.append(f"call {i}: {err}")
            bad.add(i)
    for i in sample:
        if not checks.check_sweep_scalar(calls[i], rows[i]):
            errors.append(f"call {i}: rows differ from the scalar path")
            bad.add(i)
    per_call = [len(c["fault_counts"]) * inputs.TRIALS for c in calls]
    trials = sum(per_call)
    by_graph: dict[str, list[float]] = {}
    for t, c in zip(latency, calls):
        by_graph.setdefault(f"B({c['d']},{c['n']})", []).append(t * 1e3)
    digest_rows = json.dumps(rows[:inputs.MIN_CALLS], sort_keys=True).encode()
    return Phase(
        setup_s=setup,
        peak_rss_mb=result["peak_rss_mb"],
        attempted=trials,
        failed=sum(per_call[i] for i in bad),
        errors=errors,
        throughput=trials / sum(latency),
        main_ms=[t * 1e3 for t, c in zip(latency, calls) if c["stream"] == 0],
        second_ms=[t * 1e3 for t, c in zip(latency, calls) if c["stream"] == 1],
        since=result["measured_from"],
        spans_path=spans_path,
        call_streams=[c["stream"] for c in calls],
        detail={"calls": len(calls), "trials": trials,
                "trials_per_s_elapsed": trials / result["elapsed_s"],
                "p50_ms_by_graph": {g: loadgen.median(v) for g, v in by_graph.items()},
                "rows_digest": hashlib.sha256(digest_rows).hexdigest()[:16],
                "scalar_checked_calls": sample},
    )


# -- /measure ------------------------------------------------------------------
def gateway_setup(ctx: Ctx) -> float:
    """Spawn -> readiness banner -> warm-up answer(s), then drain and reap."""
    gw = Gateway(ctx.work, ctx.name("gateway-setup"))
    try:
        _warm(ctx, gw)
        return time.perf_counter() - gw.started
    finally:
        gw.stop()


def _warm(ctx: Ctx, gw: Gateway) -> None:
    if ctx.workload == "serve_measure":
        for payload in inputs.measure_warmup(ctx.seed):
            gw.post("/measure", payload)
    else:
        embed, trace, hint = inputs.churn_warmup(ctx.seed)
        gw.post("/embed", embed)
        for event in trace:
            gw.post("/churn", inputs.churn_payload(event, hint))


def _quiet_gc() -> None:
    """Move every object the run holds so far (inputs, request bodies) out of
    the collector's reach, so its full collections stay short and never
    stall the load schedule."""
    gc.collect()
    gc.freeze()


def _p99(values: list[float]) -> float:
    data = sorted(values)
    return data[int(0.99 * (len(data) - 1))] if data else 0.0


async def _drive_ladder(ctx: Ctx, gw: Gateway, ladder: list[inputs.Rung]) -> dict:
    guard = loadgen.LoopGuard()
    conns = [loadgen.Connection(gw.host, gw.port) for _ in range(loadgen.max_connections())]
    guard.check(len(conns))
    rungs, sizes = [], []
    try:
        for rung in ladder:
            answers: dict[int, bytes] = {}

            def on_reply(o: loadgen.Outcome, answers: dict = answers) -> None:
                sizes.append(len(o.body))
                if o.status == 200:
                    answers[o.index] = o.body  # parsed after the window

            bodies = [json.dumps(p).encode() for p in rung.requests]
            result = await loadgen.open_loop(
                conns, "/measure", bodies, rung.rate, time.perf_counter() + 0.01, on_reply,
                backlog_limit=max(16, int(rung.rate / 4)),
            )
            rungs.append((rung, result, answers))
        guard.check(len(conns))
    finally:
        for conn in conns:
            await conn.close()
    return {"rungs": rungs, "sizes": sizes, "connections": len(conns)}


def measure_phase(ctx: Ctx, traced: bool) -> Phase:
    ladder = inputs.measure_ladder(ctx.seed, ctx.seconds)
    name = ctx.name("gateway")
    spans_path = ctx.work / f"{name}.spans" if traced else None
    gw = Gateway(ctx.work, name, spans_path)
    try:
        _warm(ctx, gw)
        setup = time.perf_counter() - gw.started
        _quiet_gc()
        since = time.perf_counter()
        driven = asyncio.run(_drive_ladder(ctx, gw, ladder))
        peak = gw.peak_rss_mb()
    finally:
        gw.stop()
    stats = gw.drained_stats()
    if ctx.plant == "status":
        _, result, answers = driven["rungs"][0]
        result.outcomes[0].status = 500
        answers.pop(result.outcomes[0].index, None)

    # every answer against the in-process oracle (outside the measured window)
    pairs, where, wrong = [], [], set()
    for r, (rung, _, answers) in enumerate(driven["rungs"]):
        for i, body in sorted(answers.items()):
            try:
                pairs.append((rung.requests[i], json.loads(body)))
                where.append((r, i))
            except ValueError:
                wrong.add((r, i))
    if ctx.plant == "measure" and pairs:
        pairs[0][1]["region_size"] += 1
    wrong |= {where[k] for k in checks.check_measures(pairs)}
    errors = [f"rung {r} request {i}: answer differs from EmbeddingService.measure"
              for r, i in sorted(wrong)]

    attempted = failed = 0
    late: list[float] = []
    table = []
    for r, (rung, result, answers) in enumerate(driven["rungs"]):
        errors += [f"rung {r} request {o.index}: HTTP {o.status or 'transport error or timeout'}"
                   for o in result.outcomes if o.status != 200]
        ok = [o for o in result.outcomes if o.status == 200 and (r, o.index) not in wrong]
        ok_index = {o.index for o in ok}
        # a failed request counts as a timed-out one
        lat = [o.latency_ms if o.index in ok_index else FAILED_LATENCY_MS
               for o in result.outcomes]
        attempted += len(result.outcomes)
        failed += len(result.outcomes) - len(ok)
        late += result.late_ms
        stream = loadgen.summary(lat)
        tail_ms = stream["tail"]
        valid = _p99(result.late_ms) <= max(LATE_FLOOR_MS, 2e3 / rung.rate)
        # a backlog that keeps growing aborts the rung (open_loop's limit)
        passed = (valid and not result.aborted and len(ok) == len(result.outcomes)
                  and tail_ms <= inputs.RUNG_TAIL_LIMIT_MS)
        span = (max(o.done for o in ok) - ok[0].due) if len(ok) > 1 else 0.0
        table.append({
            "rate": rung.rate, "sent": len(result.outcomes), "unsent": result.unsent,
            "ok": len(ok), "achieved_rps": len(ok) / span if span > 0 else 0.0,
            "p50_ms": loadgen.median(lat), "tail_ms": tail_ms,
            "tail_percentile": stream["tail_percentile"],
            "late_p99_ms": _p99(result.late_ms), "valid": valid,
            "aborted": result.aborted, "final_backlog": result.final_backlog,
            "passed": passed, "latencies": lat,
        })
    ref = next(t for t in table if t["rate"] == inputs.REFERENCE_RATE)
    passing = [t for t in table if t["passed"]]
    max_rps = passing[-1]["achieved_rps"] if passing else 0.0
    detail = {
        "connections": driven["connections"], "ladder": [
            {k: v for k, v in t.items() if k != "latencies"} for t in table
        ],
        "measure_max_rps": max_rps, "reference_rate": inputs.REFERENCE_RATE,
        "measure_cache": stats.get("measure_cache"),
        "batch_occupancy": stats["server"].get("batch_occupancy"),
    }
    return Phase(
        setup_s=setup, peak_rss_mb=peak, attempted=attempted, failed=failed, errors=errors,
        throughput=max_rps, main_ms=ref["latencies"], second_ms=table[0]["latencies"],
        since=since, spans_path=spans_path, stats=stats, late_ms=late,
        response_bytes=driven["sizes"], detail=detail,
    )


# -- churn + /embed ------------------------------------------------------------
async def _drive_churn(ctx: Ctx, gw: Gateway, trace: list, embeds: list) -> dict:
    """Stream the trace beside the ``/embed`` schedule; keep replies for later checks.

    Nothing is checked inside the measuring window: each reply is split into
    its metadata and its ring (``checks.split_ring``), and replies that carry
    the same ring share one copy of it.
    """
    guard = loadgen.LoopGuard()
    guard.check(2)
    churn_conn = loadgen.Connection(gw.host, gw.port)
    embed_conn = loadgen.Connection(gw.host, gw.port)
    rings: dict[bytes, bytes] = {}
    kept: dict[str, dict[int, tuple[bytes, bytes] | str]] = {"churn": {}, "embed": {}}
    sizes: list[int] = []

    def keep(o: loadgen.Outcome, what: str) -> bool:
        sizes.append(len(o.body))
        if o.status == 200:
            try:
                meta, cycle = checks.split_ring(o.body)
                kept[what][o.index] = (meta, rings.setdefault(cycle, cycle))
            except ValueError as exc:
                kept[what][o.index] = str(exc)
        o.body = b""
        # an ordered stream cannot continue past a lost answer
        return o.status == 200

    churn_bodies = [json.dumps(inputs.churn_payload(e)).encode() for e in trace]
    embed_bodies = [json.dumps(p).encode() for p in embeds]
    start = time.perf_counter() + 0.01
    try:
        churn, embed = await asyncio.gather(
            loadgen.closed_loop(churn_conn, "/churn", churn_bodies, start + ctx.seconds,
                                lambda o: keep(o, "churn")),
            loadgen.open_loop([embed_conn], "/embed", embed_bodies, inputs.EMBED_RATE, start,
                              lambda o: keep(o, "embed")),
        )
        guard.check(2)
    finally:
        await churn_conn.close()
        await embed_conn.close()
    return {"churn": churn, "embed": embed, "kept": kept, "sizes": sizes,
            "distinct_rings": len(rings)}


def _check_rings(ctx: Ctx, driven: dict, states: list, embeds: list) -> tuple[
        checks.RingBook, list[str], dict[str, int]]:
    """Check every kept ring reply, churn events in ``seq`` order first."""
    d, n = inputs.CHURN_GRAPH
    book = checks.RingBook()
    codes_of: dict[bytes, np.ndarray] = {}
    errors: list[str] = []
    failed = {"churn": 0, "embed": 0}

    def check(o: loadgen.Outcome, what: str, faults: list) -> str | None:
        if o.status != 200:
            return f"HTTP {o.status or 'transport error or timeout'}"
        reply = driven["kept"][what][o.index]
        if isinstance(reply, str):
            return reply
        meta, cycle = reply
        try:
            if cycle not in codes_of:
                codes_of[cycle] = checks.ring_codes(cycle, d, n)
            answer = checks.RingAnswer(json.loads(meta), codes_of[cycle])
        except ValueError as exc:
            return f"unparseable reply: {exc}"
        if what == "churn" and o.index == 0 and ctx.plant == "ring":
            answer.codes = answer.codes.copy()
            answer.codes[[0, 1]] = answer.codes[[1, 0]]
        if what == "churn" and o.index == 0 and ctx.plant == "ffc":
            answer.codes = np.roll(answer.codes, 1)
        err = checks.check_ring(answer, d, n, faults) or book.add(faults, answer.codes)
        if err is None and what == "churn" and answer.meta.get("seq") != o.index:
            err = f"seq {answer.meta.get('seq')} echoed for event {o.index}"
        return err

    outcomes = [("churn", o, states[o.index]) for o in driven["churn"]]
    outcomes += [("embed", o, embeds[o.index]["faults"]) for o in driven["embed"].outcomes]
    for what, o, faults in outcomes:
        err = check(o, what, faults)
        if err is not None:
            errors.append(f"{what} {o.index}: {err}")
            failed[what] += 1
    return book, errors, failed


def churn_phase(ctx: Ctx, traced: bool) -> Phase:
    d, n = inputs.CHURN_GRAPH
    trace = inputs.churn_trace(ctx.seed)
    states = inputs.churn_states(trace)
    embeds = inputs.embed_schedule(ctx.seed, ctx.seconds, states)
    name = ctx.name("gateway")
    spans_path = ctx.work / f"{name}.spans" if traced else None
    gw = Gateway(ctx.work, name, spans_path)
    try:
        _warm(ctx, gw)
        setup = time.perf_counter() - gw.started
        _quiet_gc()
        since = time.perf_counter()
        driven = asyncio.run(_drive_churn(ctx, gw, trace, embeds))
        peak = gw.peak_rss_mb()
    finally:
        gw.stop()
    stats = gw.drained_stats()
    book, errors, failed = _check_rings(ctx, driven, states, embeds)
    offline = checks.check_rings_offline(book, book.sample(ctx.seed, FFC_SAMPLES), d, n)
    churn, embed = driven["churn"], driven["embed"]
    # events per busy second (send -> reply): the client's own gaps between
    # events are left out
    busy = sum(o.done - o.sent for o in churn)
    return Phase(
        setup_s=setup, peak_rss_mb=peak, attempted=len(churn) + len(embed.outcomes),
        failed=failed["churn"] + failed["embed"] + len(offline), errors=errors + offline,
        throughput=len(churn) / busy if busy else 0.0,
        main_ms=[o.latency_ms for o in churn], second_ms=[o.latency_ms for o in embed.outcomes],
        since=since, spans_path=spans_path, stats=stats, late_ms=embed.late_ms,
        response_bytes=driven["sizes"],
        detail={"churn_events": len(churn), "embeds": len(embed.outcomes),
                "churn_events_per_s_elapsed":
                    len(churn) / (churn[-1].done - churn[0].sent) if churn else 0.0,
                "distinct_rings": driven["distinct_rings"],
                "service_churn": stats["service"]["churn"],
                "answers": stats["service"]["answers"]},
    )


PHASES = {"sweep": sweep_phase, "serve_measure": measure_phase, "embed_churn": churn_phase}
SETUPS = {"sweep": sweep_setup, "serve_measure": gateway_setup, "embed_churn": gateway_setup}


# -- metrics -------------------------------------------------------------------
END_TO_END = {  # name -> unit
    "setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s", "p50_ms": "ms",
    "second_p50_ms": "ms",
}
#: what each generic end-to-end metric means on each workload
MEANING = {
    "sweep": ("trials_per_s", "sparse row, B(2,18) and B(4,9)",
              "dense call, B(2,16) at f=1024,2048,4096"),
    "serve_measure": ("measure_max_rps", "measure at the reference rate",
                      "measure at the lightest rate"),
    "embed_churn": ("churn_events_per_s", "churn event", "embed request"),
}


def end_to_end(ctx: Ctx, phase: Phase, setups: list[float]) -> tuple[dict, dict]:
    main = loadgen.summary(phase.main_ms)
    second = loadgen.summary(phase.second_ms)
    values = {
        "setup_s": loadgen.median(setups), "peak_rss_mb": phase.peak_rss_mb,
        "throughput_per_s": phase.throughput,
        "p50_ms": main["p50"], "second_p50_ms": second["p50"],
    }
    throughput, main_name, second_name = MEANING[ctx.workload]
    detail = {
        "meaning": {"throughput_per_s": throughput, "p50_ms, tail_ms": main_name,
                    "second_p50_ms, second_tail_ms": second_name},
        # tails are reported here, not gated: on a shared 2-vCPU VM their
        # run-to-run spread exceeds the largest bound BENCHMARK.json may set
        "tail_ms": main["tail"], "second_tail_ms": second["tail"],
        "main": main, "second": second,
        "setup_samples_s": setups,
        "failed_frac": phase.failed / phase.attempted if phase.attempted else 0.0,
    }
    return values, detail


PER_LAYER = {  # name -> unit
    "network.faults.sample_s": "s/op", "graphs.msbfs.pack_s": "s/op",
    "graphs.msbfs.kernel_s": "s/op", "graphs.msbfs.launches": "1/op",
    "graphs.msbfs.levels_per_launch": "count", "graphs.msbfs.lane_occupancy": "ratio",
    "graphs.msbfs.computed_bytes": "B", "engine.executor.fallback_s": "s/op",
    "engine.executor.fallback_trial_ratio": "ratio", "engine.sweep.self_s": "s/op",
    "server.gateway.normalise_s": "s/op", "topology.mask_s": "s/op",
    "server.gateway.reply_s": "s/op", "server.batcher.queue_wait_s": "s",
    "server.batcher.occupancy": "lanes", "server.gateway.measure_cache_hit_ratio": "ratio",
    "core.ffc.compute_s": "s/op", "words.decode_s": "s/op",
    "engine.service.serialise_s": "s/op", "server.gateway.response_bytes": "B",
    "engine.service.incremental_ratio": "ratio", "engine.service.answer_hit_ratio": "ratio",
    "client.late_ms": "ms", "trace.overhead_frac": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _fallback_s(span_list: list[dict], since: float) -> float:
    """Inclusive time of outermost fallback spans."""
    names = {s["id"]: s["name"] for s in span_list}
    return sum(s["end"] - s["start"] for s in span_list
               if s["start"] >= since and s["name"] == "engine.executor.fallback"
               and names.get(s["parent"]) != "engine.executor.fallback")


def _shares(span_list: list[dict], since: float, whole: float) -> dict[str, float]:
    """Self time per span name, primary kernel time and inclusive fallback
    time, as shares of ``whole`` seconds."""
    share = {name: _ratio(t, whole) for name, t in spans.self_times(span_list, since).items()}
    share["graphs.msbfs.kernel (primary)"] = _ratio(sum(
        s["end"] - s["start"] for s in span_list if s["start"] >= since
        and s["name"] == "graphs.msbfs.kernel" and s["attrs"].get("primary")), whole)
    share["engine.executor.fallback (inclusive)"] = _ratio(_fallback_s(span_list, since), whole)
    return share


def per_layer(traced: Phase, untraced: Phase) -> tuple[dict, dict]:
    spans_list, missing = spans.load(traced.spans_path)
    live = [s for s in spans_list if s["start"] >= traced.since]
    own = spans.self_times(spans_list, traced.since)
    kernel = [s for s in live if s["name"] == "graphs.msbfs.kernel"]
    primary = [s for s in kernel if s["attrs"].get("primary")]
    fallback = _fallback_s(spans_list, traced.since)
    queue = [s["end"] - s["start"] for s in live if s["name"] == "server.batcher.queue"]
    stats = traced.stats
    lanes = sum(s["attrs"]["lanes"] for s in primary)
    churn = stats.get("service", {}).get("churn", {})
    answers = stats.get("service", {}).get("answers", {})
    cache = stats.get("measure_cache", {})
    ops = traced.attempted or 1
    primary_s = sum(s["end"] - s["start"] for s in primary)
    values = {
        "network.faults.sample_s": own.get("network.faults.sample", 0.0) / ops,
        "graphs.msbfs.pack_s": own.get("graphs.msbfs.pack", 0.0) / ops,
        "graphs.msbfs.kernel_s": primary_s / ops,
        "graphs.msbfs.launches": len(kernel) / ops,
        "graphs.msbfs.levels_per_launch": _ratio(sum(s["attrs"]["levels"] for s in kernel),
                                                 len(kernel)),
        "graphs.msbfs.lane_occupancy": _ratio(lanes, 64 * len(primary)),
        "graphs.msbfs.computed_bytes": _ratio(sum(s["attrs"]["bytes"] for s in kernel),
                                              len(kernel)),
        "engine.executor.fallback_s": fallback / ops,
        "engine.executor.fallback_trial_ratio": _ratio(sum(s["attrs"]["dead"] for s in primary),
                                                       lanes),
        "engine.sweep.self_s": own.get("engine.sweep.run", 0.0) / ops,
        "server.gateway.normalise_s": own.get("server.gateway.normalise", 0.0) / ops,
        "topology.mask_s": own.get("topology.mask", 0.0) / ops,
        "server.gateway.reply_s": own.get("server.gateway.reply", 0.0) / ops,
        "server.batcher.queue_wait_s": _ratio(sum(queue), len(queue)),
        "server.batcher.occupancy": stats.get("server", {}).get("batch_occupancy", 0.0),
        "server.gateway.measure_cache_hit_ratio": _ratio(
            cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)),
        "core.ffc.compute_s": own.get("core.ffc.compute", 0.0) / ops,
        "words.decode_s": own.get("words.decode", 0.0) / ops,
        "engine.service.serialise_s": own.get("engine.service.serialise", 0.0) / ops,
        "server.gateway.response_bytes": _ratio(sum(traced.response_bytes),
                                                len(traced.response_bytes)),
        "engine.service.incremental_ratio": _ratio(
            churn.get("incremental", 0), churn.get("incremental", 0) + churn.get("full", 0)),
        "engine.service.answer_hit_ratio": _ratio(
            answers.get("hits", 0), answers.get("hits", 0) + answers.get("misses", 0)),
        "client.late_ms": _p99(traced.late_ms),
        "trace.overhead_frac": _ratio(loadgen.median(traced.main_ms),
                                      loadgen.median(untraced.main_ms)) - 1.0,
    }
    window = max((s["end"] for s in live), default=traced.since) - traced.since
    detail = {
        "ops": traced.attempted, "missing_wrappers": missing,
        "share_of_window": _shares(spans_list, traced.since, window),
        "untraced_p50_ms": loadgen.median(untraced.main_ms),
        "traced_p50_ms": loadgen.median(traced.main_ms),
    }
    if traced.call_streams:
        # sweep: each regime's layer split, as shares of its own calls' time
        detail["share_of_calls"] = {}
        for which, regime in enumerate(("sparse", "dense")):
            ids = {i for i, st in enumerate(traced.call_streams) if st == which}
            part = [s for s in spans_list if s["request"] in ids]
            busy = sum(s["end"] - s["start"] for s in part
                       if s["name"] == "engine.sweep.run" and s["start"] >= traced.since)
            detail["share_of_calls"][regime] = _shares(part, traced.since, busy)
    return values, detail


# -- entry point ---------------------------------------------------------------
def run(ctx: Ctx, trace: bool) -> tuple[dict, dict, list[str], int, int]:
    phase_fn = PHASES[ctx.workload]
    if trace:
        # the run's measuring time is shared: untraced (for the overhead), then traced
        ctx.seconds /= 2
        untraced = phase_fn(ctx, False)
        traced = phase_fn(ctx, True)
        phases = [untraced, traced]
        values, detail = per_layer(traced, untraced)
        units = PER_LAYER
    else:
        setups = [SETUPS[ctx.workload](ctx) for _ in range(SETUP_SAMPLES - 1)]
        phase = phase_fn(ctx, False)
        phases = [phase]
        values, detail = end_to_end(ctx, phase, setups + [phase.setup_s])
        units = END_TO_END
    for p in phases:
        detail.setdefault("phases", []).append(p.detail)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    errors = [e for p in phases for e in p.errors]
    return (metrics, detail, errors, sum(p.attempted for p in phases),
            sum(p.failed for p in phases))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=PLANTS,
                        help="corrupt one received answer (tests that checks catch it)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        ctx = Ctx(args.workload, args.seed, args.seconds, work, args.plant)
        metrics, detail, errors, attempted, failed = run(ctx, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not errors
    for err in errors[:20]:
        print(f"perfbench: wrong answer: {err}", file=sys.stderr)
    print(json.dumps({"detail": detail}, allow_nan=False))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
