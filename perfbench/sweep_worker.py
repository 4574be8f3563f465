"""One sweep process: build, warm up, then measure ``ParallelSweepEngine.run``.

Run by ``run.py`` as a fresh process per measured run::

    python perfbench/sweep_worker.py --seed 1 --seconds 20 --out result.json \
        [--spans spans.jsonl] [--setup-only]

It prints ``ready`` once every engine has answered one warm-up call (seeds
disjoint from the measured ones), then runs the seeded calls
inline (one worker, ``batch=64``) until ``--seconds`` have passed and at least
``inputs.MIN_CALLS`` calls completed, and writes every returned row to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402

MAX_CALLS = 4096


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.engine.sweep import ParallelSweepEngine

    log = None
    if args.spans is not None:
        import spans

        log = spans.SpanLog()
        spans.install(log)
    engines = {}
    for call in inputs.sweep_calls(args.seed, inputs.SWEEP_WARM_CALLS, warm=True):
        engine = ParallelSweepEngine(call.d, call.n, batch=inputs.TRIALS)
        engines[(call.d, call.n)] = engine
        engine.run(call.fault_counts, inputs.TRIALS, call.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    calls, rows, latency = [], [], []
    start = time.perf_counter()
    for i, call in enumerate(inputs.sweep_calls(args.seed, MAX_CALLS)):
        if i >= inputs.MIN_CALLS and time.perf_counter() - start >= args.seconds:
            break
        if log is not None:
            spans.set_request(i)
        t0 = time.perf_counter()
        result = engines[(call.d, call.n)].run(call.fault_counts, inputs.TRIALS, call.seed)
        latency.append(time.perf_counter() - t0)
        calls.append(asdict(call))
        rows.append([asdict(row) for row in result])
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "rows": rows, "latency_s": latency, "elapsed_s": elapsed,
                   "peak_rss_mb": peak_kb / 1024.0, "measured_from": start}, fh)
    if log is not None:
        log.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
