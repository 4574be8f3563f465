"""Answer checks: every answer the benchmark receives is checked.

* sweep rows: invariants on every row, and a seeded sample of calls
  recomputed on the scalar path (``batch=1``) must give equal rows;
* ``/measure``: every answer equals in-process ``EmbeddingService.measure``;
* rings (``/churn``, ``/embed``): every ring is closed, uses De Bruijn shift
  edges only, has distinct nodes, avoids every faulty necklace and reports
  the right fault sets; rings of the same faulty-necklace set are identical;
  a seeded sample equals offline ``find_fault_free_cycle``.

Ring checks here use only NumPy and the benchmark's own necklace helpers;
the program's library is used only as the independent oracle.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict

import numpy as np

import inputs


class RingAnswer:
    """A parsed ring reply: metadata plus the cycle as integer codes."""

    __slots__ = ("meta", "codes")

    def __init__(self, meta: dict, codes: np.ndarray) -> None:
        self.meta = meta
        self.codes = codes


_CYCLE_KEY = b'"cycle": '


def split_ring(body: bytes) -> tuple[bytes, bytes]:
    """``(metadata JSON with "cycle": null, cycle JSON)`` of a ring reply.

    Ring replies are checked after the measuring window closes, so they are
    kept until then; split apart, the many replies that carry the same ring
    can share one copy of it.  A reply without a ``[[...]]`` cycle is
    rejected.
    """
    at = body.find(_CYCLE_KEY)
    start = at + len(_CYCLE_KEY)
    end = body.find(b"]]", start) + 2
    if at < 0 or body[start:start + 2] != b"[[" or end < start:
        raise ValueError("reply carries no cycle")
    return body[:start] + b"null" + body[end:], body[start:end]


def ring_codes(cycle: bytes, d: int, n: int) -> np.ndarray:
    """The integer codes of a cycle's JSON (a list of ``n``-digit words)."""
    return word_codes(json.loads(cycle), d, n)


def word_codes(words: list, d: int, n: int) -> np.ndarray:
    arr = np.asarray(words, dtype=np.int64).reshape(-1, n)
    return arr @ (d ** np.arange(n - 1, -1, -1, dtype=np.int64))


def necklace_set(words: list) -> frozenset:
    return frozenset(inputs.necklace_key(tuple(w)) for w in words)


def check_ring(answer: RingAnswer, d: int, n: int, faults: list) -> str | None:
    """Why ``answer`` is not a valid fault-free ring for ``faults`` (None if it is)."""
    meta, codes = answer.meta, answer.codes
    expected = sorted(tuple(w) for w in faults)
    if sorted(tuple(w) for w in meta["faults"]) != expected:
        return f"faults {meta['faults']} != requested {expected}"
    if necklace_set(meta["faulty_necklaces"]) != necklace_set(faults) or len(
        meta["faulty_necklaces"]
    ) != len(necklace_set(faults)):
        return "faulty_necklaces do not match the faults' necklaces"
    if meta["length"] != codes.size or codes.size < 2:
        return f"length {meta['length']} but {codes.size} cycle nodes"
    if not np.array_equal(codes % d ** (n - 1), np.roll(codes, -1) // d):
        return "cycle uses a non-shift edge or is not closed"
    if np.unique(codes).size != codes.size:
        return "cycle repeats a node"
    faulty = word_codes([r for w in expected for r in inputs.rotations(w)], d, n)
    if np.isin(codes, faulty).any():
        return "cycle visits a node of a faulty necklace"
    bound = meta["guarantee_bound"]
    if meta["meets_guarantee"] != (bound is None or codes.size >= bound):
        return "meets_guarantee contradicts length and bound"
    return None


class RingBook:
    """Checked rings by faulty-necklace set: one ring per set must hold."""

    def __init__(self) -> None:
        self.rings: dict[frozenset, tuple[np.ndarray, list]] = {}
        self.order: list[frozenset] = []

    def add(self, faults: list, codes: np.ndarray) -> str | None:
        key = necklace_set(faults)
        known = self.rings.get(key)
        if known is None:
            self.rings[key] = (codes, faults)
            self.order.append(key)
            return None
        if not np.array_equal(known[0], codes):
            return "two different rings for the same faulty-necklace set"
        return None

    def sample(self, seed: int, count: int) -> list[frozenset]:
        """The first ring seen plus a seeded sample of the others."""
        if not self.order:
            return []
        rest = self.order[1:]
        rng = inputs.stream("embed_churn", seed, "ffc-sample")
        return [self.order[0]] + rng.sample(rest, min(count - 1, len(rest)))


def check_rings_offline(book: RingBook, keys: list, d: int, n: int) -> list[str]:
    """Compare sampled rings with offline ``find_fault_free_cycle``."""
    from repro.core.ffc import find_fault_free_cycle

    errors = []
    for key in keys:
        codes, faults = book.rings[key]
        offline = find_fault_free_cycle(d, n, [tuple(w) for w in faults]).cycle
        if not np.array_equal(word_codes(list(offline), d, n), codes):
            errors.append(f"ring for {sorted(key)} differs from offline FFC")
    return errors


_TRANSIENT = ("cached", "elapsed_s", "trace_id")


def check_measures(answers: list[tuple[dict, dict]]) -> list[int]:
    """Indices of ``(payload, answer)`` pairs that differ from the oracle."""
    from repro.engine.service import EmbeddingService

    oracle = EmbeddingService()
    bad = []
    for i, (payload, answer) in enumerate(answers):
        expected = oracle.measure(
            payload["d"], payload["n"], payload["faults"], root=payload["root"],
            topology=payload["topology"],
        ).as_dict()
        got = {k: v for k, v in answer.items() if k not in _TRANSIENT}
        if got != {k: v for k, v in expected.items() if k not in _TRANSIENT}:
            bad.append(i)
    return bad


def row_invariant_errors(call: dict, rows: list[dict]) -> list[str]:
    """Row checks that need no recomputation."""
    d, n = call["d"], call["n"]
    errors = []
    if [r["f"] for r in rows] != list(call["fault_counts"]):
        errors.append("rows do not match the requested fault counts")
    for r in rows:
        if r["trials"] != inputs.TRIALS:
            errors.append(f"f={r['f']}: {r['trials']} trials")
        if r["reference_size"] != d**n - n * r["f"]:
            errors.append(f"f={r['f']}: reference_size {r['reference_size']}")
        if not 0 <= r["min_size"] <= r["avg_size"] <= r["max_size"] <= d**n - r["f"]:
            errors.append(f"f={r['f']}: size statistics out of order")
        if not 0 <= r["min_ecc"] <= r["avg_ecc"] <= r["max_ecc"] < d**n:
            errors.append(f"f={r['f']}: eccentricity statistics out of order")
    return errors


def sweep_sample(seed: int, calls: list[dict]) -> list[int]:
    """One seeded call index per latency stream for scalar recomputation."""
    rng = random.Random(f"perfbench:sweep-sample:{seed}")
    picks = []
    for which in (0, 1):
        idx = [i for i, c in enumerate(calls) if c["stream"] == which]
        if idx:
            picks.append(rng.choice(idx))
    return picks


def check_sweep_scalar(call: dict, rows: list[dict]) -> bool:
    """Recompute one call on the scalar path (``batch=1``): rows must match."""
    from repro.engine.sweep import ParallelSweepEngine

    engine = ParallelSweepEngine(call["d"], call["n"], batch=1)
    expected = engine.run(call["fault_counts"], inputs.TRIALS, call["seed"])
    return [asdict(r) for r in expected] == rows
