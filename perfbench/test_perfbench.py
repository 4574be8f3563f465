"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They cover what a benchmark run cannot show about itself: seeded inputs are
byte-identical per seed and differ across seeds, warm-up inputs never
overlap measured ones, the ring checks reject broken rings, a sweep's rows
digest repeats for a seed, and every planted wrong answer fails the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from procs import ROOT, require_program  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = inputs.canonical_inputs(workload, 7)
    assert first == inputs.canonical_inputs(workload, 7)
    assert first != inputs.canonical_inputs(workload, 8)


def test_warmup_inputs_are_disjoint_from_measured_ones():
    assert all(c.seed % 2 == 0 for c in inputs.sweep_calls(3, 64))
    assert all(c.seed % 2 == 1 for c in inputs.sweep_calls(3, inputs.SWEEP_WARM_CALLS, warm=True))
    measured = [p for rung in inputs.measure_ladder(3, 20.0) for p in rung.requests]
    assert max(len(checks.necklace_set(p["faults"])) for p in measured) < inputs.WARM_UNITS
    for p in inputs.measure_warmup(3):
        assert len(checks.necklace_set(p["faults"])) == inputs.WARM_UNITS
    trace = inputs.churn_trace(3)
    states = inputs.churn_states(trace)
    assert max(len(checks.necklace_set(s)) for s in states) < inputs.WARM_UNITS
    embed, warm_trace, hint = inputs.churn_warmup(3)
    assert len(checks.necklace_set(embed["faults"])) == inputs.WARM_UNITS
    assert all(inputs.necklace_key(e.node) != inputs.necklace_key(hint) for e in warm_trace)


def test_churn_trace_is_orbit_correlated_legal_and_evenly_loaded():
    changes = []
    for seed in (5, 6):
        trace = inputs.churn_trace(seed, events=500)
        faulty: set = set()
        previous = frozenset()
        changed = 0
        for event, state in zip(trace, inputs.churn_states(trace)):
            assert (event.node in faulty) == (event.op == "heal")
            faulty ^= {event.node}
            units = checks.necklace_set(state)
            changed += units != previous
            previous = units
            assert len(units) <= inputs.CHURN_NECKLACES + 1
        changes.append(changed)
    # every seed does the same number of full re-embeddings
    assert changes[0] == changes[1] < 0.25 * 500


def _ring(faults):
    require_program()
    from repro.core.ffc import find_fault_free_cycle

    d, n = 2, 8
    result = find_fault_free_cycle(d, n, faults)
    body = json.dumps({"d": d, "n": n, "faults": [list(w) for w in faults],
                       "faulty_necklaces": [list(w) for w in faults],
                       "length": len(result.cycle), "guarantee_bound": None,
                       "meets_guarantee": True, "cached": False, "elapsed_s": 0.0,
                       "cycle": [list(w) for w in result.cycle], "seq": 3}).encode()
    return body, d, n


def _parse(body, d, n):
    meta, cycle = checks.split_ring(body)
    return checks.RingAnswer(json.loads(meta), checks.ring_codes(cycle, d, n))


def test_split_ring_matches_json_and_accepts_a_valid_ring():
    faults = [(0, 0, 0, 1, 0, 1, 1, 1)]
    body, d, n = _ring(faults)
    answer = _parse(body, d, n)
    expected = json.loads(body)
    cycle = expected.pop("cycle")
    assert answer.meta == {**expected, "cycle": None}
    assert np.array_equal(answer.codes, checks.word_codes(cycle, d, n))
    assert checks.check_ring(answer, d, n, faults) is None


@pytest.mark.parametrize("body", [b'{"length": 0}', b'{"cycle": null, "faults": [[0, 1]]}',
                                  b'{"cycle": [[0, 1], [1, 0'])
def test_split_ring_rejects_a_reply_without_a_cycle(body):
    with pytest.raises(ValueError):
        checks.split_ring(body)


@pytest.mark.parametrize("breakage", ["swap", "drop", "faulty", "faults-field"])
def test_check_ring_rejects_broken_rings(breakage):
    faults = [(0, 0, 0, 1, 0, 1, 1, 1)]
    body, d, n = _ring(faults)
    answer = _parse(body, d, n)
    if breakage == "swap":
        answer.codes[[3, 4]] = answer.codes[[4, 3]]
    elif breakage == "drop":
        answer.codes = answer.codes[:-1]
        answer.meta["length"] -= 1
    elif breakage == "faulty":
        # a ring that walks through a faulty necklace
        answer = _parse(_ring([])[0], d, n)
        answer.meta["faults"] = [list(faults[0])]
        answer.meta["faulty_necklaces"] = [list(faults[0])]
    else:
        answer.meta["faults"] = []
    assert checks.check_ring(answer, d, n, faults) is not None


def _run(workload, *extra, seconds="2", seed="5"):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", seed,
         "--seconds", seconds, "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_rows_digest_repeats_for_a_seed():
    digests = []
    for seed in ("5", "5", "6"):
        proc = _run("sweep", seconds="1", seed=seed)
        assert proc.returncode == 0, proc.stderr
        detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
        digests.append(detail["phases"][0]["rows_digest"])
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("workload,plant", [
    ("sweep", "sweep"), ("serve_measure", "measure"), ("serve_measure", "status"),
    ("embed_churn", "ring"), ("embed_churn", "ffc"),
])
def test_planted_wrong_answer_fails_the_run(workload, plant):
    proc = _run(workload, "--plant", plant)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
