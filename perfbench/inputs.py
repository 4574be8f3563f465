"""Seeded inputs of every workload, generated by the benchmark itself.

Nothing here imports the program under test: the fault sets, the churn trace
and the request schedules depend only on ``(workload, seed, purpose)`` through
``random.Random`` seeded with a string (hashed with SHA-512 by the standard
library, so the streams are stable across platforms).  A later change to the
program therefore cannot change what is measured.

Warm-up inputs come from the ``"warm"`` purpose and are disjoint from the
measured ones by construction, not by luck:

* sweep seeds: measured engine seeds are even, warm-up seeds are odd;
* ``/measure``: measured requests kill at most ``MAX_MEASURE_FAULTS`` fault
  units, warm-up requests kill ``WARM_UNITS`` (more) distinct necklaces;
* ``/embed``: the same unit-count separation against the churn states;
* ``/churn``: the warm-up session uses a root hint, which is part of both the
  session key and the answer-cache key, while the measured trace uses none.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

#: Trials per sweep row: one full 64-lane kernel word.
TRIALS = 64
#: sweep calls every run completes, so a digest of their rows repeats per seed
MIN_CALLS = 16

#: sweep, sparse regime: two graphs of 262,144 nodes (``d`` gathers per BFS
#: level) at Table 2.1/2.2 fault counts, f <= 32: the kernel dominates.
SPARSE_GRAPHS = ((2, 18), (4, 9))
SPARSE_FAULTS = (1, 2, 3, 5, 8, 10, 20, 30)
#: sweep, dense regime: B(2,16) near collapse, one call of three rows: fault
#: sampling, root-fallback racing and lane packing outweigh the kernel.
DENSE_GRAPH = (2, 16)
DENSE_FAULTS = (1024, 2048, 4096)
#: one round of sweep calls as (stream, graph): stream 0 = sparse rows, two on
#: each sparse graph; stream 1 = one dense call.
SWEEP_ROUND = ((0, SPARSE_GRAPHS[0]), (0, SPARSE_GRAPHS[1]), (1, DENSE_GRAPH),
               (0, SPARSE_GRAPHS[0]), (0, SPARSE_GRAPHS[1]))
#: warm-up sweep calls: the first three of a round reach every graph
SWEEP_WARM_CALLS = 3
#: serve_measure shards (16,384 nodes each) and request shape.
MEASURE_GRAPHS = ((2, 14), (4, 7))
MAX_MEASURE_FAULTS = 8
#: share of /measure requests repeating an earlier fault-unit set
REPEAT_SHARE = 0.25
REPEAT_WINDOW = 64
#: open-loop ladder (requests/s, share of the measuring window); the
#: reference rung reports the main latency, the lightest one the second
#: rungs from 160 up are about 1.13x apart, so a capacity change of an
#: eighth moves the highest passing rung
LADDER = ((40, 0.15), (80, 0.25), (160, 0.06), (180, 0.06), (205, 0.06), (230, 0.06),
          (260, 0.06), (290, 0.06), (330, 0.06), (370, 0.06), (420, 0.06), (480, 0.06))
REFERENCE_RATE = 80
#: tail-latency limit of a rung; a rung also fails on a growing backlog
RUNG_TAIL_LIMIT_MS = 50.0

#: embed_churn graph and trace shape
CHURN_GRAPH = (2, 14)
CHURN_EVENTS = 2000
CHURN_NECKLACES = 4
CHURN_GROWTH = 4
#: open-loop /embed stream beside the churn loop
EMBED_RATE = 2.5
#: every FRESH_EVERY-th /embed is a fresh fault set, the others past states
FRESH_EVERY = 8
#: conservative churn progress (events/s) used to pick already-reached states
PAST_STATE_PACE = 5.0
#: faults of a fresh /embed set, each in its own necklace (the same FFC work
#: on every seed)
FRESH_FAULTS = 4

#: warm-up requests kill this many distinct necklaces (> every measured set)
WARM_UNITS = 10

WORKLOADS = ("sweep", "serve_measure", "embed_churn")


def stream(workload: str, seed: int, purpose: str) -> random.Random:
    """The one seeded random stream of ``(workload, seed, purpose)``."""
    return random.Random(f"perfbench:{workload}:{purpose}:{seed}")


def rotations(word: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every rotation of ``word``: its necklace."""
    return {word[i:] + word[:i] for i in range(len(word))}


def necklace_key(word: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation: one name per necklace."""
    return min(rotations(word))


def random_word(rng: random.Random, d: int, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(d) for _ in range(n))


def distinct_necklace_words(
    rng: random.Random, d: int, n: int, count: int
) -> list[tuple[int, ...]]:
    """``count`` random words lying in ``count`` different necklaces."""
    words: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(words) < count:
        word = random_word(rng, d, n)
        key = necklace_key(word)
        if key not in seen:
            seen.add(key)
            words.append(word)
    return words


# -- sweeps --------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCall:
    """One ``ParallelSweepEngine.run`` call: ``TRIALS`` trials per fault count."""

    stream: int  # 0 = main latency stream (sparse rows), 1 = second (dense calls)
    d: int
    n: int
    fault_counts: tuple[int, ...]
    seed: int


def sweep_calls(seed: int, count: int, warm: bool = False) -> list[SweepCall]:
    """The first ``count`` sweep calls, round after round of ``SWEEP_ROUND``."""
    rng = stream("sweep", seed, "warm" if warm else "calls")
    calls = []
    for i in range(count):
        which, (d, n) = SWEEP_ROUND[i % len(SWEEP_ROUND)]
        if which == 0:
            faults: tuple[int, ...] = (SPARSE_FAULTS[rng.randrange(len(SPARSE_FAULTS))],)
        else:
            faults = DENSE_FAULTS
        engine_seed = 2 * rng.getrandbits(31) + (1 if warm else 0)
        calls.append(SweepCall(which, d, n, faults, engine_seed))
    return calls


# -- /measure ------------------------------------------------------------------
@dataclass(frozen=True)
class Rung:
    rate: float
    requests: tuple[dict, ...]


def measure_payload(d: int, n: int, faults: list[tuple[int, ...]]) -> dict:
    return {"topology": "debruijn", "d": d, "n": n,
            "faults": [list(w) for w in faults], "root": None}


def measure_ladder(seed: int, seconds: float) -> list[Rung]:
    """The open-loop ``/measure`` schedule: one rung per ladder rate."""
    rng = stream("serve_measure", seed, "requests")
    history: list[tuple[int, int, list[tuple[int, ...]]]] = []
    rungs = []
    for rate, share in LADDER:
        requests = []
        for _ in range(max(1, round(rate * seconds * share))):
            if history and rng.random() < REPEAT_SHARE:
                # same fault units, different words: rotate every faulty word
                d, n, words = history[-1 - rng.randrange(min(REPEAT_WINDOW, len(history)))]
                faults = [w[k:] + w[:k] for w in words for k in (rng.randrange(n),)]
            else:
                d, n = MEASURE_GRAPHS[rng.randrange(len(MEASURE_GRAPHS))]
                faults = [random_word(rng, d, n)
                          for _ in range(rng.randint(1, MAX_MEASURE_FAULTS))]
            history.append((d, n, faults))
            requests.append(measure_payload(d, n, faults))
        rungs.append(Rung(rate, tuple(requests)))
    return rungs


def measure_warmup(seed: int) -> list[dict]:
    """One warm-up request per shard, each killing ``WARM_UNITS`` necklaces."""
    rng = stream("serve_measure", seed, "warm")
    return [measure_payload(d, n, distinct_necklace_words(rng, d, n, WARM_UNITS))
            for d, n in MEASURE_GRAPHS]


# -- churn + /embed ------------------------------------------------------------
@dataclass(frozen=True)
class ChurnEvent:
    seq: int
    op: str  # "fault" | "heal"
    node: tuple[int, ...]


def churn_trace(seed: int, events: int = CHURN_EVENTS, warm: bool = False) -> list[ChurnEvent]:
    """An orbit-correlated fault/heal trace on ``CHURN_GRAPH``.

    Faults cluster inside necklaces: each faulty necklace is born with one
    fresh fault, grows by ``CHURN_GROWTH`` faults on rotations of its words,
    then, once it is the oldest, shrinks by as many heals and dies with its
    last heal.  ``CHURN_NECKLACES`` necklaces live side by side.  Only births
    and deaths change the faulty-necklace set, so after a build-up of
    ``CHURN_NECKLACES`` births every cycle of ``2 * CHURN_GROWTH + 2`` events
    has exactly two full re-embeddings; the seed picks only the words, so
    every seed does the same amount of work.
    """
    d, n = CHURN_GRAPH
    rng = stream("embed_churn", seed, "warm-trace" if warm else "trace")
    alive: list[tuple[tuple[int, ...], list[tuple[int, ...]]]] = []  # (key, faulty words)
    out: list[ChurnEvent] = []

    def emit(op: str, node: tuple[int, ...]) -> None:
        out.append(ChurnEvent(len(out), op, node))

    def birth() -> None:
        taken = {key for key, _ in alive}
        while True:
            node = random_word(rng, d, n)
            if len(rotations(node)) == n and necklace_key(node) not in taken:
                break
        alive.append((necklace_key(node), [node]))
        emit("fault", node)

    def grow() -> None:
        words = alive[-1][1]
        free = sorted(rotations(words[0]) - set(words))
        node = free[rng.randrange(len(free))]
        words.append(node)
        emit("fault", node)

    def shrink() -> None:
        words = alive[0][1]
        emit("heal", words.pop(rng.randrange(len(words))))
        if not words:
            alive.pop(0)

    for _ in range(CHURN_NECKLACES):
        birth()
        for _ in range(CHURN_GROWTH):
            grow()
    while len(out) < events:
        birth()
        for _ in range(CHURN_GROWTH):
            grow()
            shrink()
        shrink()  # the oldest necklace's last faulty node: it dies
    return out[:events]


def churn_states(trace: list[ChurnEvent]) -> list[list[tuple[int, ...]]]:
    """Sorted faulty-node set after each event of ``trace``."""
    faulty: set[tuple[int, ...]] = set()
    states = []
    for event in trace:
        if event.op == "fault":
            faulty.add(event.node)
        else:
            faulty.remove(event.node)
        states.append(sorted(faulty))
    return states


def churn_payload(event: ChurnEvent, root_hint: tuple[int, ...] | None = None) -> dict:
    d, n = CHURN_GRAPH
    return {"d": d, "n": n, "op": event.op, "node": list(event.node), "seq": event.seq,
            "root_hint": None if root_hint is None else list(root_hint),
            "include_cycle": True}


def embed_payload(faults: list[tuple[int, ...]]) -> dict:
    d, n = CHURN_GRAPH
    return {"d": d, "n": n, "faults": [list(w) for w in faults], "root_hint": None,
            "include_cycle": True}


def embed_schedule(seed: int, seconds: float, states: list[list[tuple[int, ...]]]) -> list[dict]:
    """Open-loop ``/embed`` requests at ``EMBED_RATE``, one every 1/rate s.

    Most reuse a churn state the trace has very likely reached by then
    (shared work: an answer-cache hit); the rest are fresh fault sets.
    """
    d, n = CHURN_GRAPH
    rng = stream("embed_churn", seed, "embed")
    out = []
    for i in range(max(1, round(EMBED_RATE * seconds))):
        due = i / EMBED_RATE
        if i % FRESH_EVERY != FRESH_EVERY - 1:
            reached = max(1, min(len(states), int(due * PAST_STATE_PACE)))
            faults = states[rng.randrange(reached)]
        else:
            faults = distinct_necklace_words(rng, d, n, FRESH_FAULTS)
        out.append(embed_payload(faults))
    return out


def churn_warmup(seed: int) -> tuple[dict, list[ChurnEvent], tuple[int, ...]]:
    """Warm-up: one ``/embed`` with ``WARM_UNITS`` necklaces, and a short
    churn stream under a root-hinted session (a separate cache key space)."""
    d, n = CHURN_GRAPH
    rng = stream("embed_churn", seed, "warm")
    embed = embed_payload(distinct_necklace_words(rng, d, n, WARM_UNITS))
    trace = churn_trace(seed, events=3, warm=True)
    hint = (0,) * (n - 1) + (1,)
    if any(necklace_key(e.node) == necklace_key(hint) for e in trace):
        hint = (1,) * (n - 1) + (0,)
    return embed, trace, hint


# -- canonical form (determinism tests) ----------------------------------------
def canonical_inputs(workload: str, seed: int, seconds: float = 20.0) -> bytes:
    """Every input a run of ``workload`` would send, as canonical JSON bytes."""
    if workload == "sweep":
        data: object = {
            "calls": [asdict(c) for c in sweep_calls(seed, 256)],
            "warm": [asdict(c) for c in sweep_calls(seed, SWEEP_WARM_CALLS, warm=True)],
        }
    elif workload == "serve_measure":
        data = {"ladder": [asdict(r) for r in measure_ladder(seed, seconds)],
                "warm": measure_warmup(seed)}
    elif workload == "embed_churn":
        trace = churn_trace(seed)
        embed, warm_trace, hint = churn_warmup(seed)
        data = {"trace": [asdict(e) for e in trace],
                "embed": embed_schedule(seed, seconds, churn_states(trace)),
                "warm": [embed, [asdict(e) for e in warm_trace], hint]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
