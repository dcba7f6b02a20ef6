"""The vectorised engine: whole-network rounds as a handful of array ops.

``engine="columnar"`` and its alias ``engine="fast"`` both execute here.
Every node's token set is a row of a packed ``(n, W)`` ``uint64``
bit-matrix, and the per-algorithm send and absorb rules come from the
kernel library :mod:`repro.sim.fastpath`.  Delivery is a boolean
sparse-matrix product over the cached CSR topology
(:class:`~repro.sim.topology.SnapshotArrays`): scatter the round's
broadcast payloads into a dense ``(n, W)`` matrix, gather it through the
CSR ``indices`` and OR-reduce each adjacency segment with one
``np.bitwise_or.reduceat`` — the boolean spmm ``A · P`` where ``A`` is the
adjacency matrix and the OR is the boolean semiring's addition.  Role,
phase and head/gateway/member logic are masked column operations.  No
per-node Python runs inside the round loop, so a flooding round at
n = 10⁶ is a few hundred milliseconds and an Algorithm-1 sweep at n = 10⁴
is routine.

**Bit-identity.**  OR-accumulation is order-independent and every
:class:`~repro.sim.linkmodel.LinkModel` decision is a pure counter-based
hash of ``(seed, round, edge)``, so a supported run produces the same
:class:`RunResult` as the reference engine: outputs, metrics, timelines,
causal traces (``obs="trace"``), recordings (``obs="record"``) and
monitor violation streams, under loss, churn, pinpoint faults and
``latency > 1``.  The equivalence suites (``tests/test_columnar.py``,
``test_fastpath.py``, ``test_obs.py``, ``test_causal_trace.py``,
``test_monitors.py``, ``test_recorder.py``, ``test_linkmodel.py``) assert
it against the reference engine; nightly CI widens the seed sweep.

**Rounds.**  Each round runs the reference engine's stages, timed under
the same names at ``obs="profile"``: ``topology`` (the round's CSR
arrays), ``send`` (crash stage, kernel send, accounting, link
transform), ``deliver`` (the spmm), ``receive`` (the kernel's absorb
rule, crash re-zero, pinpoint faults) and ``bookkeeping`` (observers,
coverage, monitors).  The link transform is a boolean mask over the CSR
edge array, applied by zeroing suppressed gathered rows before the
OR-reduce (zero rows are OR-neutral); crash-stop churn is row wipes plus
a post-absorb re-zero of dead rows.  With latency ζ > 1 a round's traffic
waits in flight and lands ζ − 1 rounds later: audiences, link decisions
and sender liveness are fixed at transmission, while the absorb rule
reads the landing round's roles and heads.

**Sharding.**  For n ≥ 10⁵ the bit-matrix can be sharded into contiguous
row blocks: each shard receives only the payload rows its adjacency
segment references (the boundary exchange — ``unique(indices[block])``
rows, remapped into a compact sub-matrix), reduces its block
independently, and the per-round merge is a plain row concatenation.
Shards run serially in-process by default (deterministic, zero setup
cost) or across the persistent process pool of
:class:`repro.experiments.parallel.ShardPool`, whose workers report
``worker<i>_deliver`` profile sections.  Configure via
``run_columnar(shards=…, shard_processes=…)`` or the environment
(:data:`SHARDS_ENV_VAR`, :data:`SHARD_PROCESSES_ENV_VAR`).  Sharded and
unsharded runs are bit-identical (OR is associative); the tests assert it
at a fixed shard count.

**Dispatch.**  :func:`try_run` executes factories tagged
``factory.fastpath = (kind, params)`` with a supported kind, on
non-adaptive networks without ``SimTrace`` recording, at every ``obs``
level; anything else returns ``None`` and the engine runs the reference
path.  ``RunResult.algorithms`` is ``None`` here: there are no per-node
objects to hand back.

Networks may be array-native: when the network object exposes
``snapshot_arrays(r)`` (see :class:`~repro.sim.topology.CSRNetwork`), the
engine never materialises per-node frozensets at all — the memory
envelope per round is the bit-matrix (``n·W·8`` bytes) plus the CSR
arrays plus one gathered ``(E, W)`` matrix (or its per-shard slices).
Only attached monitors ask for the round's full ``network.snapshot(r)``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import CausalTrace, Profiler, RoundView, RunRecorder, RunTimeline
from .engine import RunResult, SynchronousEngine, validate_run_args
from .fastpath import (
    _EMPTY_IDS,
    _ROLE_NAME_BY_CODE,
    _ROLE_NAMES,
    _U1,
    KERNELS,
    _account,
    _filter_batch_alive,
    _Landing,
    _rows_to_frozensets,
    _rows_tokens,
    _SendBatch,
    supported_kinds,
)
from .linkmodel import LinkModel
from .metrics import Metrics
from .topology import SnapshotArrays

__all__ = [
    "SHARDS_ENV_VAR",
    "SHARD_PROCESSES_ENV_VAR",
    "pack_rows",
    "pack_single_tokens",
    "run_columnar",
    "supported_kinds",
    "try_run",
    "unpack_rows",
]

#: Shard the bit-matrix into this many contiguous row blocks (``0``/unset
#: disables sharding).  Worth it from n ≈ 10⁵; see docs/performance.md.
SHARDS_ENV_VAR = "REPRO_COLUMNAR_SHARDS"

#: Worker processes for sharded delivery (``1``/unset reduces the shards
#: serially in-process — deterministic and allocation-friendly; identical
#: results either way).
SHARD_PROCESSES_ENV_VAR = "REPRO_COLUMNAR_SHARD_PROCESSES"

#: Role code → the packed-recording role letter (codes index ``"hgm"``).
_ROLE_CHAR_LUT = np.frombuffer(b"hgm", dtype=np.uint8)


# ---------------------------------------------------------------------------
# packed bit-matrix helpers
# ---------------------------------------------------------------------------

def words_for(k: int) -> int:
    """Number of uint64 words per row for a k-token instance."""
    return max(1, (k + 63) // 64)


def pack_rows(token_rows: Sequence[Iterable[int]], k: int) -> np.ndarray:
    """Pack per-node token collections into an ``(n, W)`` uint64 bit-matrix.

    Row ``v`` has bit ``t`` set iff token ``t`` appears in
    ``token_rows[v]``.  Inverse of :func:`unpack_rows`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    W = words_for(k)
    out = np.zeros((len(token_rows), W), dtype=np.uint64)
    for v, toks in enumerate(token_rows):
        for t in toks:
            if not 0 <= t < k:
                raise ValueError(f"token {t} outside 0..{k - 1}")
            out[v, t >> 6] |= _U1 << np.uint64(t & 63)
    return out


def unpack_rows(bits: np.ndarray) -> List[Tuple[int, ...]]:
    """Decode an ``(n, W)`` uint64 bit-matrix to per-row sorted token tuples."""
    rows = np.ascontiguousarray(np.asarray(bits, dtype=np.uint64))
    return [tuple(toks) for toks in _rows_tokens(rows)]


def pack_single_tokens(tokens: np.ndarray, k: int) -> np.ndarray:
    """Vectorised pack of one token per node (``-1`` = starts empty).

    The array-native counterpart of
    ``initial_assignment(k, n, mode="spread")`` for million-node instances
    where building ``n`` frozensets would dominate the run.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1:
        raise ValueError(f"tokens must be 1-D, got shape {tokens.shape}")
    if tokens.size and int(tokens.max()) >= k:
        raise ValueError(f"token {int(tokens.max())} outside 0..{k - 1}")
    out = np.zeros((tokens.shape[0], words_for(k)), dtype=np.uint64)
    idx = np.nonzero(tokens >= 0)[0]
    t = tokens[idx]
    out[idx, t >> 6] = _U1 << (t & 63).astype(np.uint64)
    return out


# ---------------------------------------------------------------------------
# the spmm delivery kernel
# ---------------------------------------------------------------------------

def _segment_or(
    starts: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    payload: np.ndarray,
    edge_keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """OR-reduce ``payload`` rows over CSR adjacency segments.

    ``out[i] = OR(payload[indices[starts[i] : starts[i] + degrees[i]]])``
    — one boolean spmm row block.  ``reduceat`` mis-handles empty segments
    (it returns the element *at* the index instead of the OR-identity) so
    degree-0 rows are masked out and stay all-zero.

    ``edge_keep`` (one bool per CSR edge of this block, or ``None`` for
    all-kept) zeroes the gathered rows of suppressed edges before the
    reduce — zero rows are OR-neutral, so a link-masked edge behaves
    exactly like no delivery.
    """
    rows = degrees.shape[0]
    out = np.zeros((rows, payload.shape[1]), dtype=np.uint64)
    if indices.size == 0:
        return out
    gathered = payload[indices]
    if edge_keep is not None and not edge_keep.all():
        gathered[~edge_keep] = 0
    nonempty = degrees > 0
    out[nonempty] = np.bitwise_or.reduceat(
        gathered, np.asarray(starts[nonempty], dtype=np.intp), axis=0
    )
    return out


def _shard_deliver(
    item: Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]
    ],
) -> np.ndarray:
    """One shard's delivery: reduce a row block against its sub-payload.

    Module-level (picklable) so :class:`ShardPool` workers can run it; the
    sub-payload already contains only the boundary-exchanged rows this
    block's adjacency references.
    """
    local_starts, seg_indices, degrees, payload_sub, edge_keep = item
    return _segment_or(local_starts, seg_indices, degrees, payload_sub, edge_keep)


def _shard_deliver_traced(
    item: Tuple[int, int, Tuple],
) -> np.ndarray:
    """Instrumented :func:`_shard_deliver` for telemetry-wired pools.

    Times the reduce and emits one ``shard`` event (round, shard index,
    kernel milliseconds) over the worker's telemetry queue — the source
    of the parent's per-worker profile sections and the ``repro watch``
    per-shard lag view.  The returned array is identical to the untimed
    variant; only used when the pool carries a telemetry queue.
    """
    from ..experiments.parallel import emit_worker_event  # avoids a cycle

    r, shard_idx, base = item
    t0 = time.perf_counter()
    out = _shard_deliver(base)
    emit_worker_event({
        "type": "shard",
        "round": r,
        "shard": shard_idx,
        "status": "deliver",
        "ms": round((time.perf_counter() - t0) * 1000.0, 3),
    })
    return out


def _shard_plan(
    arrs: SnapshotArrays, shards: int
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Static per-topology shard layout: contiguous row blocks plus the
    boundary-exchange index sets.

    For each block ``[lo, hi)``: the block-local CSR starts, the segment
    indices remapped into the compact ``needed`` row set (the only payload
    rows the block must receive), the block degrees, and ``needed`` itself.
    Memoized per arrays object by the caller — the layout depends only on
    topology, not on the round's payloads.
    """
    n = arrs.degrees.shape[0]
    indptr = arrs.indptr
    plan = []
    for i in range(shards):
        lo = (i * n) // shards
        hi = ((i + 1) * n) // shards
        elo, ehi = int(indptr[lo]), int(indptr[hi])
        seg = arrs.indices[elo:ehi]
        needed = np.unique(seg)
        remapped = np.searchsorted(needed, seg).astype(np.int64)
        local_starts = (indptr[lo:hi] - indptr[lo]).astype(np.intp)
        plan.append((local_starts, remapped, arrs.degrees[lo:hi], needed, elo, ehi))
    return plan


# ---------------------------------------------------------------------------
# link transform and observers
# ---------------------------------------------------------------------------

def _transmit(
    r: int,
    arrs: SnapshotArrays,
    batch: _SendBatch,
    link: Optional[LinkModel],
    alive: Optional[np.ndarray],
    metrics: Metrics,
) -> _Landing:
    """Pass one round's sends through the link: what survives the channel.

    Candidates are deliveries to live receivers (the reference bills
    losses only on those; dead receivers are silent and the post-absorb
    re-zero handles them).  Broadcast losses become a per-edge keep-mask
    over the CSR columns, unicast losses a filter on the delivered list.
    """
    n = arrs.degrees.shape[0]
    bc_full = np.zeros((n, batch.bc_payload.shape[1]), dtype=np.uint64)
    bc_full[batch.bc_senders] = batch.bc_payload
    delivered = batch.uc_ok
    edge_keep: Optional[np.ndarray] = None
    if link is not None:
        is_bc = np.zeros(n, dtype=bool)
        is_bc[batch.bc_senders] = True
        snd_e = arrs.indices
        recv_e = np.repeat(np.arange(n, dtype=np.int64), arrs.degrees)
        cidx = np.flatnonzero(is_bc[snd_e] & alive[recv_e])
        if cidx.size:
            m = link.deliver_mask(r, snd_e[cidx], recv_e[cidx])
            if m is not None and not m.all():
                metrics.record_loss(int(m.size - int(m.sum())))
                edge_keep = np.ones(snd_e.shape[0], dtype=bool)
                edge_keep[cidx[~m]] = False
        if batch.uc_senders.size:
            delivered = delivered & alive[batch.uc_dests]
            uidx = np.flatnonzero(delivered)
            if uidx.size:
                mu = link.deliver_mask(
                    r, batch.uc_senders[uidx], batch.uc_dests[uidx]
                )
                if mu is not None and not mu.all():
                    metrics.record_loss(int(mu.size - int(mu.sum())))
                    delivered[uidx[~mu]] = False
    return _Landing(
        r, arrs, link, bc_full, edge_keep, batch.uc_senders[delivered],
        batch.uc_dests[delivered], batch.uc_payload[delivered],
    )


def _record_causal(
    causal: CausalTrace,
    r: int,
    roles: Optional[np.ndarray],
    known: np.ndarray,
    TA: np.ndarray,
    land: Optional[_Landing],
) -> None:
    """Record this round's first-learn events from the bitset diff.

    Mirrors the reference engine's attribution rule
    (:meth:`repro.sim.engine.ActiveRun._record_causal`): for each token a
    node gained this round, the sender is the minimum sender among the
    round's *delivered* messages to that node whose payload carried the
    token, falling back to the minimum deliverer (then −1); the sender's
    role is read from this round's role codes.
    """
    new = TA & ~known
    changed = np.flatnonzero(new.any(axis=1))
    if not changed.size:
        return
    rec = snd = _EMPTY_IDS
    payload = np.empty((0, TA.shape[1]), dtype=np.uint64)
    if land is not None:
        rec, snd, payload = land.deliveries_to(changed)
        order = np.lexsort((snd, rec))  # by receiver, then ascending sender
        rec, snd, payload = rec[order], snd[order], payload[order]
    los = np.searchsorted(rec, changed).tolist()
    his = np.searchsorted(rec, changed, side="right").tolist()
    for v, toks, lo, hi in zip(
        changed.tolist(), _rows_tokens(new[changed]), los, his
    ):
        senders, carried = snd[lo:hi], payload[lo:hi]
        fallback = int(senders[0]) if hi > lo else -1
        for t in toks:
            sender = fallback
            if hi > lo:
                bit = _U1 << np.uint64(t & 63)
                carrying = np.flatnonzero(carried[:, t >> 6] & bit)
                if carrying.size:
                    sender = int(senders[carrying[0]])
            if sender >= 0 and roles is not None:
                role = _ROLE_NAME_BY_CODE[int(roles[sender])]
            else:
                role = "flat"
            causal.record_learn(v, t, r, sender, role)
    known |= new


def _packed_hierarchy(
    arrs: SnapshotArrays, memo: Dict[int, Tuple[object, tuple]]
) -> Tuple[Optional[str], Optional[Tuple[int, ...]]]:
    """Pack an arrays' roles/head_of into the recording encoding.

    Memoized by arrays identity (a strong reference is kept so ``id``
    cannot be recycled) — static networks pay the O(n) packing once.
    """
    key = id(arrs)
    hit = memo.get(key)
    if hit is not None and hit[0] is arrs:
        return hit[1]
    roles = None
    if arrs.roles is not None:
        roles = _ROLE_CHAR_LUT[arrs.roles.astype(np.int64)].tobytes().decode("ascii")
    head_of = None
    if arrs.head_of is not None:
        head_of = tuple(arrs.head_of.tolist())
    memo[key] = (arrs, (roles, head_of))
    return roles, head_of


def _record_batch(recorder: RunRecorder, batch: _SendBatch) -> None:
    """Feed one round's send batch to the recorder."""
    recorder.record_sends(
        "b", batch.bc_senders.tolist(), [-1] * len(batch.bc_senders),
        _rows_tokens(batch.bc_payload), batch.bc_costs.tolist(),
    )
    recorder.record_sends(
        "u", batch.uc_senders.tolist(), batch.uc_dests.tolist(),
        _rows_tokens(batch.uc_payload), batch.uc_costs.tolist(),
    )


# ---------------------------------------------------------------------------
# the round loop
# ---------------------------------------------------------------------------

def _env_int(var: str) -> Optional[int]:
    raw = os.environ.get(var, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{var} must be an integer, got {raw!r}") from exc
    return value if value > 0 else None


def _arrays_for_round(network, r: int, n: int) -> SnapshotArrays:
    """The round's CSR topology, preferring array-native networks."""
    getter = getattr(network, "snapshot_arrays", None)
    if getter is not None:
        arrs = getter(r)
    else:
        arrs = network.snapshot(r).arrays()
    if arrs.degrees.shape[0] != n:
        raise ValueError(
            f"snapshot for round {r} has {arrs.degrees.shape[0]} nodes, "
            f"expected {n}"
        )
    return arrs


def _absorb_shard_events(
    events: Iterable[Dict[str, object]],
    prof: Optional[Profiler],
    stream,
    worker_ids: Dict[int, int],
) -> None:
    """Fold drained worker ``shard`` events into the profiler and bus.

    Worker pids are mapped to stable small indices in arrival order, so a
    profiled sharded run grows ``worker0_deliver``, ``worker1_deliver``, …
    sections holding each process's cumulative kernel wall-clock — a
    per-worker breakdown of the ``deliver`` section.
    """
    for event in events:
        pid = event.get("pid")
        if pid is not None and pid not in worker_ids:
            worker_ids[pid] = len(worker_ids)
        ms = event.get("ms")
        if prof is not None and isinstance(ms, (int, float)):
            prof.add(f"worker{worker_ids.get(pid, 0)}_deliver", ms / 1000.0)
        if stream is not None:
            stream.publish(event)


def run_columnar(
    engine: SynchronousEngine,
    network,
    kind: str,
    params: Mapping[str, object],
    k: int,
    TA: np.ndarray,
    max_rounds: int,
    *,
    stop_when_complete: bool = False,
    stop_when_finished: bool = True,
    shards: Optional[int] = None,
    shard_processes: Optional[int] = None,
    materialize_outputs: bool = True,
    monitors: Optional[Sequence] = None,
) -> RunResult:
    """Execute a packed-state run on the vectorised engine.

    The low-level entry point: ``TA`` is the ``(n, W)`` initial bit-matrix
    (see :func:`pack_rows` / :func:`pack_single_tokens`) and ``kind`` /
    ``params`` name a supported kernel.  :func:`try_run` wraps this with
    the engine's ``initial`` mapping contract; benchmarks call it directly
    with ``materialize_outputs=False`` so a million-node run never builds
    ``n`` frozensets (``RunResult.outputs`` is then empty and
    ``complete`` comes from the coverage counter).

    ``shards`` > 1 splits delivery into contiguous row blocks;
    ``shard_processes`` > 1 reduces them on a persistent
    :class:`~repro.experiments.parallel.ShardPool`.  Both default to the
    :data:`SHARDS_ENV_VAR` / :data:`SHARD_PROCESSES_ENV_VAR` environment.
    ``monitors`` are fed one :class:`~repro.obs.RoundView` per round,
    exactly as :meth:`SynchronousEngine.run` feeds them.
    """
    n, W = TA.shape
    if kind not in KERNELS:
        raise ValueError(f"unsupported columnar kernel kind {kind!r}")
    kernel = KERNELS[kind](n, k, W, TA, **params)
    if shards is None:
        shards = _env_int(SHARDS_ENV_VAR)
    if shard_processes is None:
        shard_processes = _env_int(SHARD_PROCESSES_ENV_VAR)
    sharded = shards is not None and shards > 1
    stream = getattr(engine, "stream", None)
    pool = None
    telemetry_q = None
    worker_ids: Dict[int, int] = {}
    if sharded and shard_processes is not None and shard_processes > 1:
        from ..experiments.parallel import ShardPool  # lazy: avoids a cycle

        if engine.obs == "profile" or stream is not None:
            import multiprocessing as mp

            telemetry_q = mp.Queue()
        pool = ShardPool(
            processes=min(shard_processes, shards), telemetry=telemetry_q
        )

    metrics = Metrics()
    timeline = RunTimeline() if engine.obs != "off" else None
    prof = Profiler() if engine.obs == "profile" else None
    causal: Optional[CausalTrace] = None
    known: Optional[np.ndarray] = None
    if engine.obs == "trace":
        causal = CausalTrace(n=n, k=k)
        for v, toks in enumerate(_rows_tokens(TA)):
            for t in toks:
                causal.record_origin(v, t)
        known = TA.copy()
    recorder: Optional[RunRecorder] = None
    rec_known: Optional[np.ndarray] = None
    if engine.obs == "record":
        recorder = RunRecorder(n, k, dict(enumerate(_rows_to_frozensets(TA))))
        rec_known = TA.copy()
    monitors = list(monitors) if monitors else []
    pack_memo: Dict[int, Tuple[object, tuple]] = {}
    plan_memo: Dict[int, Tuple[object, list]] = {}
    link = engine.link_for("columnar")
    alive: Optional[np.ndarray] = None
    if link is not None:
        alive = np.ones(n, dtype=bool)
    latency = engine.latency
    in_flight: Dict[int, _Landing] = {}
    coverage = 0
    executed = 0

    def lap(section: str, t0: float) -> float:
        now = time.perf_counter()
        prof.add(section, now - t0)
        return now

    def deliver(land: _Landing) -> np.ndarray:
        """The spmm: every node's OR of the broadcasts it received."""
        arrs = land.arrs
        if not sharded:
            return _segment_or(
                arrs.indptr[:-1], arrs.indices, arrs.degrees, land.bc_full,
                land.edge_keep,
            )
        hit = plan_memo.get(id(arrs))
        if hit is None or hit[0] is not arrs:
            hit = (arrs, _shard_plan(arrs, shards))
            plan_memo[id(arrs)] = hit
        # boundary exchange: slice each shard's needed rows
        items = [
            (
                ls, seg, deg, land.bc_full[needed],
                None if land.edge_keep is None else land.edge_keep[elo:ehi],
            )
            for ls, seg, deg, needed, elo, ehi in hit[1]
        ]
        if pool is None:
            outs = [_shard_deliver(item) for item in items]
        elif telemetry_q is not None:
            outs = pool.map(
                _shard_deliver_traced,
                [(land.r, i, it) for i, it in enumerate(items)],
            )
            _absorb_shard_events(pool.drain(), prof, stream, worker_ids)
        else:
            outs = pool.map(_shard_deliver, items)
        return np.concatenate(outs, axis=0)

    try:
        for r in range(max_rounds):
            t0 = time.perf_counter() if prof is not None else 0.0
            arrs = _arrays_for_round(network, r, n)
            if prof is not None:
                t0 = lap("topology", t0)
            metrics.begin_round()
            if timeline is not None:
                timeline.begin_round()
                if arrs.roles is not None:
                    pops = np.bincount(arrs.roles, minlength=3)
                    timeline.record_populations({
                        name: int(pops[code]) for code, name in _ROLE_NAMES
                    })
            if recorder is not None:
                recorder.begin_round_packed(*_packed_hierarchy(arrs, pack_memo))

            # --- crash stage (before sends: crashed nodes never act) -----
            newly_crashed = _EMPTY_IDS
            crash_tokens = 0
            lost_before = metrics.lost_deliveries
            if link is not None:
                newly_crashed = link.crashes(r, alive)
                if len(newly_crashed):
                    alive[newly_crashed] = False
                    crash_tokens = int(
                        np.bitwise_count(kernel.TA[newly_crashed]).sum()
                    )
                    kernel.TA[newly_crashed] = 0
                    metrics.record_crashes(len(newly_crashed))

            batch = kernel.send(r, arrs)
            if batch is not None and alive is not None:
                batch = _filter_batch_alive(batch, alive)
            if batch is not None and batch.messages:
                _account(metrics, batch, arrs, timeline)
                if recorder is not None:
                    _record_batch(recorder, batch)
                in_flight[r + latency - 1] = _transmit(
                    r, arrs, batch, link, alive, metrics
                )
            if prof is not None:
                t0 = lap("send", t0)

            land = in_flight.pop(r, None)
            if land is not None:
                land.recv = deliver(land)
                if prof is not None:
                    t0 = lap("deliver", t0)
                kernel.absorb(arrs, land)
            if alive is not None and not alive.all():
                # dead receivers may have absorbed via the multi-input
                # gathers; OR-neutral re-zero restores crash-stop semantics
                kernel.TA[~alive] = 0
            if link is not None:
                # pinpoint perturbations: XOR always changes state, so
                # divergence happens at exactly this round/node
                for fv, ft in link.faults(r):
                    if alive[fv]:
                        kernel.TA[fv, ft >> 6] ^= _U1 << np.uint64(ft & 63)
            if prof is not None:
                t0 = lap("receive", t0)

            if causal is not None:
                _record_causal(causal, r, arrs.roles, known, kernel.TA, land)
            if recorder is not None:
                new = kernel.TA & ~rec_known
                dropped = rec_known & ~kernel.TA
                new_idx = np.nonzero(new.any(axis=1))[0]
                gained = list(zip(new_idx.tolist(), _rows_tokens(new[new_idx])))
                lost_idx = np.nonzero(dropped.any(axis=1))[0]
                lost = list(
                    zip(lost_idx.tolist(), _rows_tokens(dropped[lost_idx]))
                )
                recorder.end_round(gained, lost)
                rec_known[:] = kernel.TA
            per_node = np.bitwise_count(kernel.TA).sum(axis=1, dtype=np.int64)
            coverage = int(per_node.sum())
            nodes_complete = int((per_node == k).sum())
            metrics.end_round(coverage)
            if timeline is not None:
                timeline.end_round(coverage, nodes_complete)
                if stream is not None:
                    stream.on_round(timeline)
            if monitors:
                faults_info = None
                if link is not None:
                    faults_info = {
                        "crashed": tuple(int(x) for x in newly_crashed),
                        "crash_tokens": crash_tokens,
                        "lost": metrics.lost_deliveries - lost_before,
                    }
                view = RoundView(
                    round_index=r,
                    snap=network.snapshot(r),
                    coverage=coverage,
                    nodes_complete=nodes_complete,
                    per_node=per_node.tolist(),
                    n=n,
                    k=k,
                    faults=faults_info,
                    tokens_sent=metrics.tokens_sent,
                    messages_sent=metrics.messages_sent,
                )
                for monitor in monitors:
                    before = len(monitor.violations)
                    monitor.observe(view)
                    if stream is not None:
                        for violation in monitor.violations[before:]:
                            stream.alert(violation)
            executed = r + 1
            if prof is not None:
                lap("bookkeeping", t0)
            alive_n = n if alive is None else int(alive.sum())
            if coverage == alive_n * k and (alive is None or alive_n > 0):
                metrics.mark_complete()
                if stop_when_complete:
                    break
            if stop_when_finished and not in_flight and kernel.finished(r):
                break
    finally:
        if pool is not None:
            if telemetry_q is not None:
                # catch straggler events still in the queue's feeder pipe
                _absorb_shard_events(pool.drain(), prof, stream, worker_ids)
            pool.close()

    if timeline is not None and prof is not None:
        timeline.profile.update(prof.seconds)
    alive_n = n if alive is None else int(alive.sum())
    if materialize_outputs:
        token_sets = _rows_to_frozensets(kernel.TA)
        outputs = {v: token_sets[v] for v in range(n)}
        if alive is None:
            complete = all(len(t) == k for t in outputs.values())
        else:
            survivors = np.nonzero(alive)[0]
            complete = bool(survivors.size) and all(
                len(outputs[int(v)]) == k for v in survivors
            )
    else:
        outputs = {}
        complete = alive_n > 0 and coverage == alive_n * k
    violations = None
    if monitors:
        for monitor in monitors:
            monitor.finish(executed, complete)
        violations = [v for m in monitors for v in m.violations]
    return RunResult(
        n=n,
        k=k,
        metrics=metrics,
        outputs=outputs,
        complete=complete,
        trace=None,
        timeline=timeline,
        causal_trace=causal,
        recording=recorder.finish() if recorder is not None else None,
        violations=violations,
        algorithms=None,
    )


def try_run(
    engine: SynchronousEngine,
    network,
    factory,
    k: int,
    initial: Mapping[int, FrozenSet[int]],
    max_rounds: int,
    stop_when_complete: bool = False,
    stop_when_finished: bool = True,
    monitors=None,
) -> Optional[RunResult]:
    """Run on the vectorised engine, or return ``None`` if unsupported.

    Supported: factories tagged with a known ``factory.fastpath`` kind on
    non-adaptive networks without ``SimTrace`` recording — at every
    ``obs`` level, with monitors, at any latency and under any link
    model.  ``None`` is only returned before the first round, so monitor
    state is untouched when the engine falls back to the reference path.
    """
    spec = getattr(factory, "fastpath", None)
    if spec is None or spec[0] not in KERNELS:
        return None
    if engine.record_trace or engine.record_knowledge:
        return None
    if getattr(network, "adaptive_snapshot", None) is not None:
        return None

    n = network.n
    validate_run_args(n, k, initial, max_rounds)
    TA = np.zeros((n, words_for(k)), dtype=np.uint64)
    for node, toks in initial.items():
        for t in toks:
            TA[node, t >> 6] |= _U1 << np.uint64(t & 63)
    kind, params = spec
    return run_columnar(
        engine, network, kind, params, k, TA, max_rounds,
        stop_when_complete=stop_when_complete,
        stop_when_finished=stop_when_finished,
        monitors=monitors,
    )
