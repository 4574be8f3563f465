"""Bit-parallel multi-trial BFS: measure up to 64 fault trials per sweep.

The random-fault simulations behind Tables 2.1/2.2 reduce to one directed
BFS per trial, all over the *same* successor structure — only the
removed-node mask differs between trials.  This module collapses that
redundancy by the machine word width: each node carries one ``uint64`` whose
bit ``t`` says "node is on trial ``t``'s frontier", so a single vectorized
BFS step advances up to :data:`WORD_WIDTH` trials at once.

The kernel is topology-generic: it consumes any *source* exposing ``size``
(node count) and ``predecessor_columns`` (contiguous in-neighbour gather
columns) — the De Bruijn :class:`~repro.words.codec.WordCodec` and every
:class:`~repro.topology.base.Topology` backend alike.  Columns may pad
irregular in-degrees with the node's own code; a self-gather only re-reads a
visited lane and is masked off by ``avail``.

The step itself is a pure gather.  A node ``y`` with in-neighbour columns
``P[y, a]`` gets the out-direction frontier update

``next[y] = (frontier[P[y, 0]] | ... | frontier[P[y, k-1]]) & alive[y] & ~visited[y]``

— ``k`` full-array gathers and a few bitwise ops per level, with no scatter
and no per-trial work.  Per-trial results are recovered cheaply:

* *eccentricity*: an OR-reduction of the newly-reached lanes yields one
  ``uint64`` whose set bits are the trials that gained nodes this level, so
  each trial's eccentricity is the last level its bit was set;
* *component size*: one transposed popcount of the final ``visited`` lanes
  (``np.unpackbits``) counts each trial's reached nodes.

For the De Bruijn graph whole-necklace removal keeps the residual digraph
balanced (see :mod:`repro.graphs.components`), so the out-reachable set from
the root *is* its component and this one sweep produces exactly the paper's
``(component size, root eccentricity)`` measurement for every packed trial;
for undirected topologies the same holds trivially.

Trials whose root is itself removed are not handled here: the kernel reports
them in ``root_dead`` and the caller peels them onto the scalar
root-fallback path (:class:`repro.engine.executor.KernelExecutor`),
which is statistically rare in the tabulated regimes.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = [
    "WORD_WIDTH",
    "BatchStats",
    "BatchWorkspace",
    "pack_fault_lanes",
    "pack_mask_lanes",
    "lane_removed_mask",
    "lane_popcounts",
    "batched_root_stats",
]

#: Number of trials packed into one lane word (the uint64 width).
WORD_WIDTH = 64

_ONE = np.uint64(1)
_BITS = _ONE << np.arange(WORD_WIDTH, dtype=np.uint64)


class BatchStats:
    """Result of one batched sweep over ``B <= 64`` trials.

    ``sizes[t]``/``eccs[t]`` are valid only for trials whose bit is clear in
    ``root_dead``; the caller measures the others via the scalar fallback.
    ``levels`` is the number of BFS frontier expansions the sweep ran (the
    deepest level reached by any lane) — profiling metadata, not a result.
    """

    __slots__ = ("sizes", "eccs", "root_dead", "levels")

    def __init__(
        self,
        sizes: np.ndarray,
        eccs: np.ndarray,
        root_dead: int,
        levels: int = 0,
    ) -> None:
        self.sizes = sizes
        self.eccs = eccs
        self.root_dead = root_dead
        self.levels = levels

    def dead_trials(self) -> list[int]:
        """Indices of the trials whose root was removed (to be peeled)."""
        return [t for t in range(len(self.sizes)) if (self.root_dead >> t) & 1]


class BatchWorkspace:
    """Reusable per-graph scratch buffers for :func:`batched_root_stats`.

    A resident executor launches the kernel thousands of times over the same
    graph; the three ``uint64[size]`` sweep arrays (frontier, next, gather
    scratch) dominate the kernel's allocation cost and never change shape, so
    a long-lived caller allocates them once here and passes the workspace to
    every launch.  The workspace is NOT safe for concurrent launches — the
    owner (e.g. :class:`repro.engine.executor.KernelExecutor`) serialises
    access.
    """

    __slots__ = ("size", "frontier", "nxt", "scratch")

    def __init__(self, size: int) -> None:
        self.size = int(size)
        self.frontier = np.empty(self.size, dtype=np.uint64)
        self.nxt = np.empty(self.size, dtype=np.uint64)
        self.scratch = np.empty(self.size, dtype=np.uint64)


class KernelSource(Protocol):
    """Structural contract on the graph supplier of the packed kernels.

    Satisfied by :class:`~repro.words.codec.WordCodec` and every
    :class:`~repro.topology.base.Topology` backend; the kernels read only
    the node count and the contiguous predecessor gather columns (plus, for
    fault packing, an optional ``fault_unit_members`` closure probed with
    ``getattr``).
    """

    @property
    def size(self) -> int: ...

    @property
    def predecessor_columns(self) -> tuple[np.ndarray, ...]: ...


def pack_fault_lanes(source: KernelSource, fault_codes: np.ndarray | Sequence) -> np.ndarray:
    """Pack a batch of trials' fault sets into removed-lanes: ``uint64[size]``.

    ``source`` is a :class:`~repro.words.codec.WordCodec` (necklace fault
    units) or any :class:`~repro.topology.base.Topology` backend (its own
    ``fault_unit_members`` closure).  ``fault_codes`` is a ``(B, f)`` integer
    array — trial ``t``'s ``f`` faulty node codes in row ``t`` (``B <= 64``;
    ``f`` is fixed within a table row, so the batch is rectangular; ``f = 0``
    packs to all-zero lanes).  Bit ``t`` of ``lanes[x]`` is set iff node
    ``x`` lies in a fault unit containing one of trial ``t``'s faults —
    bit-for-bit the mask ``source``'s unit closure computes for that trial
    alone (:meth:`~repro.words.codec.WordCodec.faulty_necklace_mask` in the
    De Bruijn case).
    """
    codes = np.asarray(fault_codes, dtype=np.int64)
    if codes.ndim != 2:
        raise InvalidParameterError(
            f"expected a (batch, f) fault-code array, got shape {codes.shape}"
        )
    batch = codes.shape[0]
    if not 1 <= batch <= WORD_WIDTH:
        raise InvalidParameterError(f"batch size must be in 1..{WORD_WIDTH}, got {batch}")
    lanes = np.zeros(source.size, dtype=np.uint64)
    if codes.shape[1] == 0:
        return lanes
    if codes.min() < 0 or codes.max() >= source.size:
        raise InvalidParameterError("fault code outside node range")
    members_of = getattr(source, "fault_unit_members", None)
    if members_of is None:  # a plain WordCodec: units are necklaces
        members_of = source.necklace_member_matrix
    members = members_of(codes)  # (k, B, f)
    for t in range(batch):
        # Duplicate indices are harmless under |= with a single constant bit.
        lanes[members[:, t, :].ravel()] |= _BITS[t]
    return lanes


def pack_mask_lanes(masks: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Pack per-request boolean removed-masks into lanes: ``uint64[size]``.

    The ragged-batch dual of :func:`pack_fault_lanes`: request ``t`` supplies
    its own ``bool[size]`` removed mask (requests in one micro-batch may
    remove different numbers of fault units — the serving case), and bit
    ``t`` of ``lanes[x]`` is set iff request ``t`` removed node ``x``.
    """
    if not 1 <= len(masks) <= WORD_WIDTH:
        raise InvalidParameterError(
            f"batch size must be in 1..{WORD_WIDTH}, got {len(masks)}"
        )
    lanes = np.zeros(size, dtype=np.uint64)
    for t, mask in enumerate(masks):
        if mask.shape != (size,):
            raise InvalidParameterError(
                f"mask {t} has shape {mask.shape}, expected ({size},)"
            )
        lanes |= mask.astype(np.uint64) << np.uint64(t)
    return lanes


def lane_removed_mask(lanes: np.ndarray, trial: int) -> np.ndarray:
    """Extract trial ``trial``'s boolean removed-mask from packed lanes."""
    return (lanes >> np.uint64(trial)) & _ONE != 0


def lane_popcounts(lanes: np.ndarray, batch: int) -> np.ndarray:
    """Per-trial popcount over nodes: ``out[t] = #{x : bit t of lanes[x]}``.

    One transposed popcount via ``np.unpackbits`` on the little-endian byte
    view — ``O(64 * d**n)`` byte ops once per batch, instead of 64 masked
    passes over the lane array.
    """
    le = lanes.astype("<u8", copy=False)
    bits = np.unpackbits(le.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    return bits.sum(axis=0, dtype=np.int64)[:batch]


def batched_root_stats(
    source: KernelSource,
    removed_lanes: np.ndarray,
    root: int | np.ndarray,
    batch: int,
    workspace: BatchWorkspace | None = None,
) -> BatchStats:
    """Run one bit-parallel out-BFS across all packed trials.

    ``source`` supplies the graph structure: any object with ``size`` and
    ``predecessor_columns`` — a :class:`~repro.words.codec.WordCodec` or a
    :class:`~repro.topology.base.Topology` backend.  ``root`` is either one
    shared root code (the fault-sweep case: every trial measures from the
    paper's ``R``) or a ``(batch,)`` array giving lane ``t`` its own root
    (the root-fallback case: tied candidate roots racing over one shared
    fault mask).  Returns per-trial ``(reached-region size, root
    eccentricity)`` for every lane whose root survives, exactly as the
    scalar path measures them (reached-node count and deepest BFS level).
    Lanes whose root is removed are skipped and flagged in
    :attr:`BatchStats.root_dead`.

    ``workspace`` optionally supplies preallocated sweep buffers
    (:class:`BatchWorkspace`) so resident callers amortise the per-launch
    allocations; results are identical with or without it.
    """
    size = source.size
    if removed_lanes.shape != (size,) or removed_lanes.dtype != np.uint64:
        raise InvalidParameterError(
            f"removed_lanes must be uint64 of shape ({size},), "
            f"got {removed_lanes.dtype} {removed_lanes.shape}"
        )
    if not 1 <= batch <= WORD_WIDTH:
        raise InvalidParameterError(f"batch size must be in 1..{WORD_WIDTH}, got {batch}")
    roots = np.broadcast_to(np.asarray(root, dtype=np.int64), (batch,))
    if roots.size and (roots.min() < 0 or roots.max() >= size):
        raise InvalidParameterError(f"root {root} outside node range")

    trial_bits = _BITS[:batch]
    all_bits = np.uint64(2**batch - 1)
    dead_mask = (removed_lanes[roots] & trial_bits) != 0
    root_dead = int(np.bitwise_or.reduce(trial_bits[dead_mask])) if dead_mask.any() else 0
    sizes = np.zeros(batch, dtype=np.int64)
    eccs = np.zeros(batch, dtype=np.int64)
    if root_dead == int(all_bits):
        return BatchStats(sizes, eccs, root_dead)

    if workspace is not None and workspace.size != size:
        raise InvalidParameterError(
            f"workspace sized for {workspace.size} nodes, graph has {size}"
        )
    if workspace is None:
        frontier = np.zeros(size, dtype=np.uint64)
        nxt = np.empty(size, dtype=np.uint64)
        scratch = np.empty(size, dtype=np.uint64)
    else:
        frontier, nxt, scratch = workspace.frontier, workspace.nxt, workspace.scratch
        frontier.fill(0)
    np.bitwise_or.at(frontier, roots[~dead_mask], trial_bits[~dead_mask])
    # `avail[x]` holds the lanes in which x is alive and not yet visited —
    # one AND per step instead of `& alive & ~visited`, and since every
    # newly-reached lane set is a subset of `avail`, marking it visited is a
    # XOR.  The visited set itself is never materialised: it is recovered at
    # the end as `alive ^ avail` (visited lanes are always alive).
    alive = ~removed_lanes
    avail = alive ^ frontier  # root lanes start visited
    pred_cols = source.predecessor_columns
    gains: list[np.uint64] = []  # per-level OR of the newly-reached lanes
    while True:
        np.take(frontier, pred_cols[0], out=nxt)
        for col in pred_cols[1:]:
            np.take(frontier, col, out=scratch)
            np.bitwise_or(nxt, scratch, out=nxt)
        np.bitwise_and(nxt, avail, out=nxt)
        gained = np.bitwise_or.reduce(nxt)
        if not int(gained):
            break
        np.bitwise_xor(avail, nxt, out=avail)
        gains.append(gained)
        frontier, nxt = nxt, frontier  # ping-pong: old frontier becomes scratch
    if gains:
        # eccentricity of lane t = deepest level whose gained-word set bit t
        # (levels are 1-based; lanes never gaining stay at 0)
        hit = (np.asarray(gains, dtype=np.uint64)[:, None] & trial_bits) != 0
        depth = len(gains)
        eccs[:] = np.where(hit.any(axis=0), depth - np.argmax(hit[::-1], axis=0), 0)
    np.bitwise_xor(alive, avail, out=alive)
    sizes[:] = lane_popcounts(alive, batch)
    return BatchStats(sizes, eccs, root_dead, levels=len(gains))
