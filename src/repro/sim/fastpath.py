"""Vectorised bitset kernels for the token-dissemination algorithm family.

The reference engine (:mod:`repro.sim.engine`) dispatches per-node Python
objects exchanging ``frozenset`` token sets — ideal for clarity and for
arbitrary user algorithms, but the hot loop of every benchmark sweep.
This module re-implements the *fixed* algorithm family of the paper
(Algorithm 1, its Remark-1 stable-heads variant, Algorithm 2, both KLO
baselines, and the two flooding baselines) as vectorised kernels:

* a node's token set is a row of ``uint64`` words (one bit per token), so
  set union is ``|``, difference is ``& ~``, and cardinality is a popcount;
* per-round topology comes from the memoized CSR arrays of
  :meth:`repro.sim.topology.Snapshot.arrays`;
* :meth:`_Kernel.send` emits every node's transmission for a round as one
  :class:`_SendBatch`, and :meth:`_Kernel.absorb` applies the algorithm's
  receive rule to one :class:`_Landing` (the round's delivered traffic)
  as masked column operations — no per-node Python in either.

This is a kernel library, not an engine: the round loop that runs these
kernels — crash stage, accounting, link transform, CSR delivery,
observers — is :func:`repro.sim.columnar.run_columnar`, which both
``engine="fast"`` and ``engine="columnar"`` select.  Factories built by
the ``make_*_factory`` helpers carry a ``factory.fastpath = (kind,
params)`` tag naming their kernel (see :func:`supported_kinds`).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from ..obs import RunTimeline
from .metrics import Metrics, RoleCost
from .topology import SnapshotArrays

__all__ = ["supported_kinds"]

_U1 = np.uint64(1)

_ROLE_MEMBER = 2
_ROLE_NAMES = ((0, "head"), (1, "gateway"), (2, "member"))
_ROLE_NAME_BY_CODE = {code: name for code, name in _ROLE_NAMES}

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


# ---------------------------------------------------------------------------
# bit tricks on (m, W) uint64 rows
# ---------------------------------------------------------------------------

def _popcounts(rows: np.ndarray) -> np.ndarray:
    """Per-row popcount of (m, W) uint64 rows."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)

def _lowest_bit_rows(rows: np.ndarray) -> np.ndarray:
    """One-hot rows isolating each row's lowest set bit (rows must be != 0)."""
    out = np.zeros_like(rows)
    wsel = (rows != 0).argmax(axis=1)
    ar = np.arange(rows.shape[0])
    w = rows[ar, wsel]
    out[ar, wsel] = w & ~(w - _U1)
    return out

def _highest_bit_rows(rows: np.ndarray) -> np.ndarray:
    """One-hot rows isolating each row's highest set bit (rows must be != 0)."""
    out = np.zeros_like(rows)
    wsel = rows.shape[1] - 1 - (rows[:, ::-1] != 0).argmax(axis=1)
    ar = np.arange(rows.shape[0])
    s = rows[ar, wsel].copy()
    s |= s >> _U1
    s |= s >> np.uint64(2)
    s |= s >> np.uint64(4)
    s |= s >> np.uint64(8)
    s |= s >> np.uint64(16)
    s |= s >> np.uint64(32)
    out[ar, wsel] = s ^ (s >> _U1)
    return out

def _rows_to_frozensets(bits: np.ndarray) -> List[FrozenSet[int]]:
    """Decode (n, W) uint64 rows back to per-node frozensets of token ids."""
    n, W = bits.shape
    unpacked = np.unpackbits(
        bits.astype("<u8").view(np.uint8).reshape(n, W * 8),
        axis=1,
        bitorder="little",
    )
    return [frozenset(np.nonzero(row)[0].tolist()) for row in unpacked]

def _rows_tokens(rows: np.ndarray) -> List[List[int]]:
    """Decode an (m, words) uint64 bitset matrix to per-row sorted token
    lists in one vectorised pass (one ``unpackbits`` + one ``nonzero``
    instead of m Python word walks — the recording hot path decodes
    every message payload of every round)."""
    m = rows.shape[0]
    out: List[List[int]] = [[] for _ in range(m)]
    if m == 0:
        return out
    bits = np.unpackbits(
        np.ascontiguousarray(rows, dtype="<u8").view(np.uint8),
        axis=1, bitorder="little",
    )
    for i, t in zip(*(ix.tolist() for ix in np.nonzero(bits))):
        out[i].append(t)
    return out


# ---------------------------------------------------------------------------
# per-round send batches and landings
# ---------------------------------------------------------------------------

class _SendBatch:
    """All transmissions of one round, as arrays.

    Senders appear at most once per side (every supported algorithm sends
    at most one message per node per round) and in ascending node order —
    the reference engine's iteration order.
    """

    __slots__ = (
        "bc_senders", "bc_payload", "bc_costs",
        "uc_senders", "uc_dests", "uc_ok", "uc_payload", "uc_costs",
    )

    def __init__(
        self,
        bc_senders: np.ndarray,
        bc_payload: np.ndarray,
        bc_costs: np.ndarray,
        uc_senders: np.ndarray,
        uc_dests: np.ndarray,
        uc_ok: np.ndarray,
        uc_payload: np.ndarray,
        uc_costs: np.ndarray,
    ) -> None:
        self.bc_senders = bc_senders
        self.bc_payload = bc_payload
        self.bc_costs = bc_costs
        self.uc_senders = uc_senders
        self.uc_dests = uc_dests
        self.uc_ok = uc_ok
        self.uc_payload = uc_payload
        self.uc_costs = uc_costs

    @property
    def messages(self) -> int:
        return len(self.bc_senders) + len(self.uc_senders)


def _broadcast_batch(senders: np.ndarray, payload: np.ndarray, costs: np.ndarray) -> _SendBatch:
    W = payload.shape[1] if payload.ndim == 2 else 1
    empty_rows = np.empty((0, W), dtype=np.uint64)
    return _SendBatch(
        senders, payload, costs,
        _EMPTY_IDS, _EMPTY_IDS, _EMPTY_BOOL, empty_rows, _EMPTY_IDS,
    )


def _filter_batch_alive(batch: _SendBatch, alive: np.ndarray) -> _SendBatch:
    """Drop transmissions whose sender crashed — crashed nodes never send."""
    bk = alive[batch.bc_senders]
    uk = alive[batch.uc_senders]
    if bk.all() and uk.all():
        return batch
    return _SendBatch(
        batch.bc_senders[bk], batch.bc_payload[bk], batch.bc_costs[bk],
        batch.uc_senders[uk], batch.uc_dests[uk], batch.uc_ok[uk],
        batch.uc_payload[uk], batch.uc_costs[uk],
    )


def _adjacent(
    arrs: SnapshotArrays, rec: np.ndarray, snd: np.ndarray
) -> np.ndarray:
    """Whether ``snd[i]`` is a neighbour of ``rec[i]`` in ``arrs``.

    Each CSR row is sorted, so the flattened ``(row, column)`` keys are
    sorted too and one ``searchsorted`` answers every query.
    """
    n = arrs.degrees.shape[0]
    keys = np.repeat(np.arange(n, dtype=np.int64), arrs.degrees) * n
    keys += arrs.indices
    query = rec.astype(np.int64) * n + snd
    if keys.size == 0:
        return np.zeros(query.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return keys[pos] == query


class _Landing:
    """One transmission round's delivered traffic, absorbed when it lands.

    The round loop builds it at transmission round ``r`` after the link
    transform: ``bc_full`` holds every broadcaster's payload row (zero
    rows for silent nodes), ``edge_keep`` marks the CSR edges of ``arrs``
    whose delivery the link kept (``None`` = all kept) and the ``uc_*``
    arrays list the unicasts delivered.  Its delivery stage then fills
    ``recv``, each node's OR of the broadcasts it received.  With
    ``latency > 1`` the landing round comes later than ``r``: audiences
    and link decisions stay those of round ``r``, while the absorbing
    kernel reads roles and heads from the landing round.
    """

    __slots__ = ("r", "arrs", "link", "bc_full", "edge_keep",
                 "uc_senders", "uc_dests", "uc_payload", "recv")

    def __init__(self, r, arrs, link, bc_full, edge_keep,
                 uc_senders, uc_dests, uc_payload) -> None:
        self.r = r
        self.arrs = arrs
        self.link = link
        self.bc_full = bc_full
        self.edge_keep = edge_keep
        self.uc_senders = uc_senders
        self.uc_dests = uc_dests
        self.uc_payload = uc_payload
        self.recv: Optional[np.ndarray] = None

    def heard_heads(
        self, arrs: SnapshotArrays, member: np.ndarray
    ) -> np.ndarray:
        """Members of ``arrs`` whose head's broadcast edge reached them.

        ``arrs`` is the landing round's topology.  At unit latency it is
        the transmission round's own, so ``head_adjacent`` answers
        adjacency; otherwise the landing round's heads are looked up in
        the transmission round's CSR.  Under a link model the head→member
        delivery re-evaluates the same counter-based decision the edge
        mask drew for that (round, edge), so it is suppressed consistently
        and never billed twice.
        """
        head = arrs.head_of
        if arrs is self.arrs:
            listening = member & arrs.head_adjacent
        else:
            listening = member & (head >= 0)
            ids = np.flatnonzero(listening)
            listening[ids[~_adjacent(self.arrs, ids, head[ids])]] = False
        if self.link is not None and listening.any():
            ids = np.flatnonzero(listening)
            kept = self.link.deliver_mask(self.r, head[ids], ids)
            if kept is not None:
                listening[ids[~kept]] = False
        return listening

    def deliveries_to(
        self, ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(receiver, sender, payload)`` deliveries to nodes ``ids``."""
        arrs = self.arrs
        lens = arrs.degrees[ids]
        starts = arrs.indptr[ids]
        total = int(lens.sum())
        pos = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (np.cumsum(lens) - lens), lens
        )
        rec = np.repeat(ids, lens)
        snd = arrs.indices[pos]
        payload = self.bc_full[snd]
        keep = payload.any(axis=1)
        if self.edge_keep is not None:
            keep &= self.edge_keep[pos]
        uc = np.isin(self.uc_dests, ids)
        return (
            np.concatenate((rec[keep], self.uc_dests[uc])),
            np.concatenate((snd[keep], self.uc_senders[uc])),
            np.concatenate((payload[keep], self.uc_payload[uc])),
        )


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class _Kernel:
    """Vectorised state of one algorithm family across all nodes.

    Subclasses implement :meth:`send` (returning a :class:`_SendBatch` or
    ``None`` for a silent round) and :meth:`finished`; the default
    :meth:`absorb` ORs every delivered payload into ``TA`` — the
    reference rule "absorb everything you hear".
    """

    def __init__(self, n: int, k: int, W: int, TA: np.ndarray) -> None:
        self.n = n
        self.k = k
        self.W = W
        self.TA = TA

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        raise NotImplementedError

    def absorb(self, arrs: SnapshotArrays, land: _Landing) -> None:
        """Apply the receive rule to ``land`` under the landing round's
        topology ``arrs``."""
        self.TA |= land.recv
        if land.uc_dests.size:
            np.bitwise_or.at(self.TA, land.uc_dests, land.uc_payload)

    def finished(self, r: int) -> bool:
        """Whether every node has locally terminated after round ``r``."""
        return False

    def _head_arr(self, arrs: SnapshotArrays) -> np.ndarray:
        if arrs.head_of is not None:
            return arrs.head_of
        cached = getattr(self, "_neg1", None)
        if cached is None:
            cached = np.full(self.n, -1, dtype=np.int64)
            self._neg1 = cached
        return cached

    def _member_mask(self, arrs: SnapshotArrays) -> Optional[np.ndarray]:
        return None if arrs.roles is None else arrs.roles == _ROLE_MEMBER


class _Algorithm1Kernel(_Kernel):
    """Algorithm 1 (Fig. 4) and its Remark-1 stable-heads variant."""

    def __init__(self, n, k, W, TA, T: int, M: int, strict: bool, stable: bool = False):
        super().__init__(n, k, W, TA)
        if T < 1 or M < 1:
            raise ValueError(f"T and M must be >= 1, got T={T}, M={M}")
        self.T = T
        self.M = M
        self.strict = strict
        self.stable = stable
        self.TS = np.zeros_like(TA)
        self.TR = np.zeros_like(TA)
        # previous phase's head per node; -1 encodes "None", matching the
        # reference's initial `_phase_head = None`
        self.phase_head = np.full(n, -1, dtype=np.int64)

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if r // self.T >= self.M:
            return None
        member = self._member_mask(arrs)
        head_arr = self._head_arr(arrs)

        if r % self.T == 0:
            # phase boundary: members forget TS/TR on head change (plain
            # Algorithm 1 only); heads/gateways clear their per-phase TS
            if member is None:
                self.TS[:] = 0
            else:
                if not self.stable:
                    reset = member & (head_arr != self.phase_head)
                    self.TS[reset] = 0
                    self.TR[reset] = 0
                self.TS[~member] = 0
            self.phase_head[:] = head_arr

        uc_senders = _EMPTY_IDS
        uc_dests = _EMPTY_IDS
        uc_ok = _EMPTY_BOOL
        uc_payload = np.empty((0, self.W), dtype=np.uint64)
        if member is not None and not (self.stable and r >= self.T):
            unknown = self.TA & ~(self.TS | self.TR)
            can = member & (head_arr >= 0) & unknown.any(axis=1)
            uc_senders = np.nonzero(can)[0]
            if uc_senders.size:
                uc_payload = _highest_bit_rows(unknown[uc_senders])
                self.TS[uc_senders] |= uc_payload
                uc_dests = head_arr[uc_senders]
                uc_ok = arrs.head_adjacent[uc_senders]

        unsent = self.TA & ~self.TS
        canb = unsent.any(axis=1)
        if member is not None:
            canb &= ~member
        bc_senders = np.nonzero(canb)[0]
        if bc_senders.size:
            bc_payload = _lowest_bit_rows(unsent[bc_senders])
            self.TS[bc_senders] |= bc_payload
        else:
            bc_payload = np.empty((0, self.W), dtype=np.uint64)

        return _SendBatch(
            bc_senders, bc_payload,
            np.ones(bc_senders.size, dtype=np.int64),
            uc_senders, uc_dests, uc_ok, uc_payload,
            np.ones(uc_senders.size, dtype=np.int64),
        )

    def absorb(self, arrs, land):
        """Members take their own head's traffic into ``TA`` and ``TR``
        and overheard traffic into ``TA`` unless ``strict``; non-members
        absorb everything.  The head contribution is one gather
        ``bc_full[head_of]`` over the members that heard it — a silent
        head contributes an all-zero row, exactly like no delivery."""
        member = self._member_mask(arrs)
        if member is None:
            super().absorb(arrs, land)
            return
        if self.strict:
            # masked in-place OR (ufunc ``where=``) — no gather/scatter copies
            np.bitwise_or(self.TA, land.recv, out=self.TA, where=~member[:, None])
        else:
            self.TA |= land.recv
        head_arr = self._head_arr(arrs)
        if arrs.head_adjacent is not None:
            listening = land.heard_heads(arrs, member)
            if listening.any():
                keep = listening[:, None]
                from_head = land.bc_full[head_arr]
                np.bitwise_or(self.TA, from_head, out=self.TA, where=keep)
                np.bitwise_or(self.TR, from_head, out=self.TR, where=keep)
        if land.uc_dests.size:
            dests, snds, pay = land.uc_dests, land.uc_senders, land.uc_payload
            memb_d = member[dests]
            if (~memb_d).any():
                np.bitwise_or.at(self.TA, dests[~memb_d], pay[~memb_d])
            uc_from_head = memb_d & (head_arr[dests] == snds)
            if uc_from_head.any():
                np.bitwise_or.at(self.TA, dests[uc_from_head], pay[uc_from_head])
                np.bitwise_or.at(self.TR, dests[uc_from_head], pay[uc_from_head])
            if not self.strict:
                overheard = memb_d & ~uc_from_head
                if overheard.any():
                    np.bitwise_or.at(self.TA, dests[overheard], pay[overheard])

    def finished(self, r: int) -> bool:
        return r + 1 >= self.M * self.T


class _Algorithm2Kernel(_Kernel):
    """Algorithm 2 (Fig. 5): full-set uploads on (re-)affiliation, full-set
    head/gateway broadcasts every round."""

    def __init__(self, n, k, W, TA, M: int):
        super().__init__(n, k, W, TA)
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        self.M = M
        self.prev_head = np.full(n, -1, dtype=np.int64)
        self.seen = np.zeros(n, dtype=bool)

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if r >= self.M:
            return None
        member = self._member_mask(arrs)
        head_arr = self._head_arr(arrs)
        has_tokens = self.TA.any(axis=1)

        uc_senders = _EMPTY_IDS
        uc_dests = _EMPTY_IDS
        uc_ok = _EMPTY_BOOL
        uc_payload = np.empty((0, self.W), dtype=np.uint64)
        if member is not None:
            changed = ~self.seen | (head_arr != self.prev_head)
            can = member & changed & (head_arr >= 0) & has_tokens
            uc_senders = np.nonzero(can)[0]
            if uc_senders.size:
                uc_payload = self.TA[uc_senders]
                uc_dests = head_arr[uc_senders]
                uc_ok = arrs.head_adjacent[uc_senders]
        self.seen[:] = True
        self.prev_head[:] = head_arr

        canb = has_tokens
        if member is not None:
            canb = canb & ~member
        bc_senders = np.nonzero(canb)[0]
        bc_payload = self.TA[bc_senders]

        return _SendBatch(
            bc_senders, bc_payload, _popcounts(bc_payload),
            uc_senders, uc_dests, uc_ok, uc_payload, _popcounts(uc_payload),
        )

    def finished(self, r: int) -> bool:
        return r + 1 >= self.M


class _KLOIntervalKernel(_Kernel):
    """KLO token forwarding: min-id unsent token per phase, all nodes."""

    def __init__(self, n, k, W, TA, T: int, M: int):
        super().__init__(n, k, W, TA)
        if T < 1 or M < 1:
            raise ValueError(f"T and M must be >= 1, got T={T}, M={M}")
        self.T = T
        self.M = M
        self.TS = np.zeros_like(TA)

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if r // self.T >= self.M:
            return None
        if r % self.T == 0:
            self.TS[:] = 0
        unsent = self.TA & ~self.TS
        senders = np.nonzero(unsent.any(axis=1))[0]
        if senders.size:
            payload = _lowest_bit_rows(unsent[senders])
            self.TS[senders] |= payload
        else:
            payload = np.empty((0, self.W), dtype=np.uint64)
        return _broadcast_batch(senders, payload, np.ones(senders.size, dtype=np.int64))

    def finished(self, r: int) -> bool:
        return r + 1 >= self.M * self.T


class _FullSetBroadcastKernel(_Kernel):
    """Everyone broadcasts their whole token set each round.

    ``M=None`` floods forever (FloodAllNode); otherwise this is the KLO
    1-interval baseline with its ``M``-round budget.
    """

    def __init__(self, n, k, W, TA, M: Optional[int] = None):
        super().__init__(n, k, W, TA)
        if M is not None and M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        self.M = M

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if self.M is not None and r >= self.M:
            return None
        senders = np.nonzero(self.TA.any(axis=1))[0]
        payload = self.TA[senders]
        return _broadcast_batch(senders, payload, _popcounts(payload))

    def finished(self, r: int) -> bool:
        return self.M is not None and r + 1 >= self.M


class _FloodNewKernel(_Kernel):
    """Epidemic flooding: broadcast only tokens first learned last round."""

    def __init__(self, n, k, W, TA):
        super().__init__(n, k, W, TA)
        self.fresh = TA.copy()

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        senders = np.nonzero(self.fresh.any(axis=1))[0]
        payload = self.fresh[senders]
        self.fresh[senders] = 0
        return _broadcast_batch(senders, payload, _popcounts(payload))

    def absorb(self, arrs, land):
        """Only never-seen tokens re-arm the fresh set."""
        novel = land.recv & ~self.TA
        self.TA |= novel
        self.fresh |= novel


KERNELS = {
    "algorithm1": lambda n, k, W, TA, **p: _Algorithm1Kernel(n, k, W, TA, **p),
    "algorithm1_stable": lambda n, k, W, TA, **p: _Algorithm1Kernel(
        n, k, W, TA, stable=True, **p
    ),
    "algorithm2": lambda n, k, W, TA, **p: _Algorithm2Kernel(n, k, W, TA, **p),
    "klo_interval": lambda n, k, W, TA, **p: _KLOIntervalKernel(n, k, W, TA, **p),
    "klo_one": lambda n, k, W, TA, M: _FullSetBroadcastKernel(n, k, W, TA, M=M),
    "flood_all": lambda n, k, W, TA: _FullSetBroadcastKernel(n, k, W, TA, M=None),
    "flood_new": lambda n, k, W, TA: _FloodNewKernel(n, k, W, TA),
}


def supported_kinds() -> Tuple[str, ...]:
    """The ``factory.fastpath`` kinds the kernel library implements."""
    return tuple(sorted(KERNELS))


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def _account(
    metrics: Metrics,
    batch: _SendBatch,
    arrs: SnapshotArrays,
    timeline: Optional[RunTimeline] = None,
) -> None:
    """Record one round's transmissions exactly as the reference engine does."""
    b = len(batch.bc_senders)
    u = len(batch.uc_senders)
    if b + u == 0:
        return
    tokens = int(batch.bc_costs.sum()) + int(batch.uc_costs.sum())
    metrics.tokens_sent += tokens
    metrics.messages_sent += b + u
    metrics.broadcasts += b
    metrics.unicasts += u
    if metrics.per_round_tokens:
        metrics.per_round_tokens[-1] += tokens
    if u:
        metrics.dropped_unicasts += int((~batch.uc_ok).sum())
    if arrs.roles is None:
        cost = metrics.by_role.setdefault("flat", RoleCost())
        cost.tokens += tokens
        cost.messages += b + u
        if timeline is not None:
            timeline.record_sends("flat", b + u, tokens)
        return
    senders = np.concatenate((batch.bc_senders, batch.uc_senders))
    costs = np.concatenate((batch.bc_costs, batch.uc_costs))
    codes = arrs.roles[senders]
    msg_counts = np.bincount(codes, minlength=3)
    tok_counts = np.bincount(codes, weights=costs, minlength=3)
    for code, name in _ROLE_NAMES:
        if msg_counts[code]:
            cost = metrics.by_role.setdefault(name, RoleCost())
            cost.tokens += int(tok_counts[code])
            cost.messages += int(msg_counts[code])
            if timeline is not None:
                timeline.record_sends(
                    name, int(msg_counts[code]), int(tok_counts[code])
                )
