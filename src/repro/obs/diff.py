"""Run differencing: align two :class:`RunRecording`\\ s and bisect to the
first diverging round.

``diff_recordings(a, b)`` answers the question the equivalence suites can
only raise as a bare assert: *where* do two executions of the same
scenario part ways?  Because recordings store per-round deltas with
monotone running prefix digests (:meth:`RunRecording.prefix_digests`),
the first diverging round is found by binary search — O(log R) digest
comparisons — and the report then reconstructs both states at that round
to name the diverging nodes, the knowledge difference per node, and the
messages unique to each side, with per-phase context when the recording
was stamped with a ``phase_length`` (``RunPlan`` via
:func:`repro.experiments.runner.execute`).

``diff_engines(spec, scenario)`` is the one-call wrapper behind
``repro diff --engines`` and the benchmark fleet's divergence report
(``repro bench --bisect``): record the same scenario on both engines
and diff the recordings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .recorder import MessageRecord, RunRecording

__all__ = [
    "DivergenceReport",
    "NodeDivergence",
    "diff_engines",
    "diff_recordings",
]


@dataclass(frozen=True)
class NodeDivergence:
    """One node whose knowledge differs at the first diverging round."""

    node: int
    a_tokens: Tuple[int, ...]
    b_tokens: Tuple[int, ...]

    @property
    def only_a(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.a_tokens) - set(self.b_tokens)))

    @property
    def only_b(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.b_tokens) - set(self.a_tokens)))


@dataclass
class DivergenceReport:
    """Round-aligned comparison of two recordings.

    ``first_round is None`` means the recordings are identical
    (:attr:`identical`).  Otherwise ``first_round`` is the earliest round
    whose delta differs, ``reason`` classifies the difference
    (``"state"``, ``"messages"``, ``"roles"``, ``"length"``,
    ``"initial"``), ``nodes`` lists the diverging nodes with both sides'
    token sets at that round, and ``messages_only_a``/``_b`` the round's
    transmissions unique to each side.  ``phase`` locates the round in
    the run's phase structure when known.
    """

    label_a: str
    label_b: str
    first_round: Optional[int] = None
    reason: str = ""
    nodes: List[NodeDivergence] = field(default_factory=list)
    messages_only_a: List[MessageRecord] = field(default_factory=list)
    messages_only_b: List[MessageRecord] = field(default_factory=list)
    phase: Optional[int] = None
    phase_length: Optional[int] = None
    rounds_a: int = 0
    rounds_b: int = 0

    @property
    def identical(self) -> bool:
        return self.first_round is None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view (for ``--events``-style tooling)."""
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "identical": self.identical,
            "first_round": self.first_round,
            "reason": self.reason,
            "phase": self.phase,
            "phase_length": self.phase_length,
            "rounds_a": self.rounds_a,
            "rounds_b": self.rounds_b,
            "nodes": [
                {
                    "node": d.node,
                    "only_a": list(d.only_a),
                    "only_b": list(d.only_b),
                }
                for d in self.nodes
            ],
            "messages_only_a": [list(m) for m in self.messages_only_a],
            "messages_only_b": [list(m) for m in self.messages_only_b],
        }

    def format(self) -> str:
        """Human-readable multi-line report."""
        a, b = self.label_a, self.label_b
        if self.identical:
            return (
                f"recordings identical: {a} == {b} "
                f"({self.rounds_a} rounds, bit-identical deltas)"
            )
        lines = [
            f"DIVERGENCE between {a!r} and {b!r}",
            f"  first diverging round: {self.first_round} ({self.reason})",
        ]
        if self.phase is not None:
            lines.append(
                f"  phase: {self.phase} "
                f"(phase_length={self.phase_length})"
            )
        if self.rounds_a != self.rounds_b:
            lines.append(
                f"  run length: {a}={self.rounds_a} rounds, "
                f"{b}={self.rounds_b} rounds"
            )
        for d in self.nodes[:20]:
            lines.append(
                f"  node {d.node}: only in {a}: "
                f"{list(d.only_a) or '-'}; only in {b}: "
                f"{list(d.only_b) or '-'}"
            )
        if len(self.nodes) > 20:
            lines.append(f"  ... and {len(self.nodes) - 20} more nodes")
        for label, msgs in ((a, self.messages_only_a),
                            (b, self.messages_only_b)):
            for m in msgs[:10]:
                dest = "broadcast" if m.dest < 0 else f"-> {m.dest}"
                lines.append(
                    f"  message only in {label}: node {m.sender} "
                    f"{dest} tokens={list(m.tokens)} cost={m.cost}"
                )
            if len(msgs) > 10:
                lines.append(
                    f"  ... and {len(msgs) - 10} more messages only in "
                    f"{label}"
                )
        return "\n".join(lines)


def _phase_of(recording: RunRecording, r: int) -> Tuple[Optional[int],
                                                        Optional[int]]:
    phase_length = recording.meta.get("phase_length")
    if isinstance(phase_length, int) and phase_length >= 1:
        return r // phase_length, phase_length
    return None, None


def diff_recordings(
    a: RunRecording,
    b: RunRecording,
    label_a: str = "a",
    label_b: str = "b",
) -> DivergenceReport:
    """Compare two recordings of the *same scenario* round by round.

    Raises :class:`ValueError` if the recordings are not comparable at
    all (different ``n``/``k`` or different initial token assignments —
    i.e. different scenarios); a mismatched *execution* of the same
    scenario yields a :class:`DivergenceReport` instead.
    """
    if (a.n, a.k) != (b.n, b.k):
        raise ValueError(
            f"recordings are from different scenarios: "
            f"{label_a} has n={a.n} k={a.k}, {label_b} has n={b.n} k={b.k}"
        )
    report = DivergenceReport(
        label_a=label_a, label_b=label_b,
        rounds_a=a.rounds_recorded, rounds_b=b.rounds_recorded,
    )
    if a.initial != b.initial:
        raise ValueError(
            f"recordings are from different scenarios: initial token "
            f"assignments differ between {label_a} and {label_b}"
        )

    common = min(a.rounds_recorded, b.rounds_recorded)
    dig_a, dig_b = a.prefix_digests(), b.prefix_digests()
    if dig_a[:common] == dig_b[:common]:
        if a.rounds_recorded == b.rounds_recorded:
            return report  # identical
        report.first_round = common
        report.reason = "length"
        report.phase, report.phase_length = _phase_of(a, common)
        return report

    # prefix-digest equality is monotone in r: binary-search the first
    # round whose cumulative digest differs — that round's delta is the
    # first difference.
    lo, hi = 0, common - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if dig_a[mid] == dig_b[mid]:
            lo = mid + 1
        else:
            hi = mid
    r = lo
    report.first_round = r
    report.phase, report.phase_length = _phase_of(a, r)

    da, db = a.rounds[r], b.rounds[r]
    reasons = []
    if da.gained != db.gained or da.lost != db.lost:
        reasons.append("state")
    if da.messages != db.messages:
        reasons.append("messages")
    if da.roles != db.roles or da.head_of != db.head_of:
        reasons.append("roles")
    report.reason = "+".join(reasons) or "state"

    state_a, state_b = a.state_at(r), b.state_at(r)
    for node in range(a.n):
        ta, tb = state_a.get(node, frozenset()), state_b.get(node, frozenset())
        if ta != tb:
            report.nodes.append(
                NodeDivergence(
                    node=node,
                    a_tokens=tuple(sorted(ta)),
                    b_tokens=tuple(sorted(tb)),
                )
            )
    set_a, set_b = set(da.messages), set(db.messages)
    report.messages_only_a = sorted(set_a - set_b)
    report.messages_only_b = sorted(set_b - set_a)
    return report


def diff_engines(spec, scenario, **overrides) -> DivergenceReport:
    """Record ``scenario`` under ``spec`` on both engines and diff them.

    Returns the fast-vs-reference :class:`DivergenceReport` (``"fast"``
    names the vectorised engine) — identical when the bit-identity
    guarantee holds, a pinpointed divergence when it does not (e.g. under
    a :class:`~repro.sim.linkmodel.PinpointFault` restricted to
    ``tiers=("fast", "columnar")``).
    Runs bypass the result cache: a stale cache entry would mask a live
    divergence.
    """
    # lazy import: obs must stay importable from the engines without a cycle
    from repro.experiments.runner import execute

    recordings = {}
    for engine in ("fast", "reference"):
        record = execute(
            spec, scenario, engine=engine, obs="record", cache=False,
            **overrides,
        )
        recordings[engine] = record.result.recording
    return diff_recordings(
        recordings["fast"], recordings["reference"],
        label_a="fast", label_b="reference",
    )
