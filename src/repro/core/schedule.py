"""Schedule model for K-PBS solutions.

A solution to K-PBS is an ordered sequence of *communication steps*.
Each step is a set of simultaneous point-to-point transfers forming a
matching of at most ``k`` edges; the step lasts as long as its longest
transfer, and opening a step costs the setup delay ``β``.  The objective
the paper minimises is therefore::

    cost = sum over steps of (beta + duration(step))

Preemption means a single message (edge) may appear in several steps,
each time transferring a chunk; the chunks must add up to the full edge
weight ("the union of the matchings is G").
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.graph.bipartite import BipartiteGraph
from repro.util.errors import ScheduleError


class Transfer(NamedTuple):
    """One chunk of one message inside a step.

    ``edge_id`` identifies the original message; ``amount`` is the chunk
    size in time units (at communication speed ``t`` data and time are
    interchangeable, paper §2.2).  A named tuple: immutable, hashable,
    and equal to the plain tuple ``(edge_id, left, right, amount)``.
    """

    edge_id: int
    left: int
    right: int
    amount: float

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "edge_id": self.edge_id,
            "left": self.left,
            "right": self.right,
            "amount": self.amount,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Transfer":
        """Inverse of :meth:`to_dict`."""
        return cls(
            int(data["edge_id"]),
            int(data["left"]),
            int(data["right"]),
            float(data["amount"]),
        )


class Step:
    """One synchronous communication step: a matching of transfers.

    The constructor enforces the 1-port constraint (no sender or
    receiver appears twice) and reads each transfer as the 4-tuple
    :class:`Transfer` is.  ``duration`` defaults to the longest
    transfer — the paper's :math:`W(M_i)` — but may be given explicitly
    (e.g. normalised durations that exceed the physically shipped
    amounts after round-up).
    """

    __slots__ = ("transfers", "duration")

    def __init__(
        self,
        transfers: Iterable[Transfer],
        duration: float | None = None,
    ) -> None:
        tlist = tuple(transfers)
        max_amount = 0.0
        if tlist:
            _, lefts, rights, amounts = zip(*tlist)
            if len(set(lefts)) != len(tlist):
                raise ScheduleError(
                    f"step violates 1-port at senders: {sorted(lefts)}"
                )
            if len(set(rights)) != len(tlist):
                raise ScheduleError(
                    f"step violates 1-port at receivers: {sorted(rights)}"
                )
            max_amount = max(amounts)
            # min() > 0 proves every amount positive; a NaN can hide a
            # bad amount from min(), so anything else re-checks in order.
            if not min(amounts) > 0:
                for t in tlist:
                    if t.amount <= 0:
                        raise ScheduleError(
                            f"transfer on edge {t.edge_id} has non-positive "
                            f"amount {t.amount!r}"
                        )
        if duration is None:
            duration = max_amount
        elif duration < max_amount - 1e-12 * max(1.0, max_amount):
            raise ScheduleError(
                f"step duration {duration!r} shorter than longest transfer {max_amount!r}"
            )
        self.transfers = tlist
        self.duration = float(duration)

    def __len__(self) -> int:
        return len(self.transfers)

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self.transfers)

    def edge_ids(self) -> set[int]:
        """Ids of the messages active in this step."""
        return {t.edge_id for t in self.transfers}

    def volume(self) -> float:
        """Total amount shipped during the step."""
        return sum(t.amount for t in self.transfers)

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "duration": self.duration,
            "transfers": [t.to_dict() for t in self.transfers],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Step":
        """Inverse of :meth:`to_dict`."""
        return cls(
            (Transfer.from_dict(t) for t in data["transfers"]),
            duration=float(data["duration"]),
        )

    def __repr__(self) -> str:
        return f"Step(size={len(self.transfers)}, duration={self.duration})"


class Schedule:
    """Ordered sequence of steps plus the problem parameters ``k`` and ``β``.

    The headline quantity is :attr:`cost`, the paper's objective
    :math:`\\sum_i (\\beta + W(M_i))`.
    """

    __slots__ = ("steps", "k", "beta")

    def __init__(self, steps: Sequence[Step], k: int, beta: float) -> None:
        if k < 1:
            raise ScheduleError(f"k must be >= 1, got {k}")
        if beta < 0:
            raise ScheduleError(f"beta must be >= 0, got {beta}")
        self.steps = tuple(steps)
        self.k = int(k)
        self.beta = float(beta)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def num_steps(self) -> int:
        """Number of communication steps ``s``."""
        return len(self.steps)

    @property
    def transmission_time(self) -> float:
        """:math:`\\sum_i W(M_i)` — cost excluding setup delays."""
        return sum(s.duration for s in self.steps)

    @property
    def setup_time(self) -> float:
        """:math:`s \\cdot \\beta` — total setup delay."""
        return self.num_steps * self.beta

    @property
    def cost(self) -> float:
        """The K-PBS objective :math:`\\sum_i (\\beta + W(M_i))`."""
        return self.setup_time + self.transmission_time

    @property
    def max_step_size(self) -> int:
        """Largest number of simultaneous transfers in any step."""
        return max((len(s) for s in self.steps), default=0)

    @property
    def num_preemptions(self) -> int:
        """Chunk appearances beyond each message's first.

        A message scheduled in ``c`` steps was preempted ``c - 1``
        times; this sums that over all messages — 0 means every message
        ships in one piece.
        """
        chunks = sum(len(s) for s in self.steps)
        distinct = len({t.edge_id for s in self.steps for t in s.transfers})
        return chunks - distinct

    def transferred_per_edge(self) -> dict[int, float]:
        """Map ``edge_id -> total amount shipped`` over the schedule."""
        totals: dict[int, float] = {}
        for step in self.steps:
            for t in step.transfers:
                totals[t.edge_id] = totals.get(t.edge_id, 0.0) + t.amount
        return totals

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(
        self,
        graph: BipartiteGraph,
        rel_tol: float = 1e-9,
    ) -> None:
        """Check this schedule is a valid K-PBS solution for ``graph``.

        Verifies, raising :class:`ScheduleError` on the first violation:

        1. every step is a matching (enforced at Step construction, but
           re-checked here against the graph's endpoints),
        2. no step carries more than ``k`` transfers,
        3. the union of the steps is exactly ``graph``: every edge's
           chunks sum to its weight (within ``rel_tol``), and no
           transfer references a missing edge or wrong endpoints.
        """
        edges = {e.id: e for e in graph.edges()}
        shipped: dict[int, float] = {eid: 0.0 for eid in edges}
        for index, step in enumerate(self.steps):
            if len(step) > self.k:
                raise ScheduleError(
                    f"step {index} has {len(step)} transfers, exceeds k={self.k}"
                )
            for t in step.transfers:
                edge = edges.get(t.edge_id)
                if edge is None:
                    raise ScheduleError(
                        f"step {index} references unknown edge {t.edge_id}"
                    )
                if (edge.left, edge.right) != (t.left, t.right):
                    raise ScheduleError(
                        f"step {index} transfer endpoints {(t.left, t.right)} "
                        f"disagree with edge {t.edge_id} {(edge.left, edge.right)}"
                    )
                shipped[t.edge_id] += t.amount
        for eid, edge in edges.items():
            want = float(edge.weight)
            got = shipped[eid]
            if abs(got - want) > rel_tol * max(1.0, abs(want)):
                raise ScheduleError(
                    f"edge {eid} ({edge.left}->{edge.right}) shipped {got!r} "
                    f"of weight {want!r}"
                )

    # ------------------------------------------------------------------
    # Serialisation & display
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "k": self.k,
            "beta": self.beta,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Schedule":
        """Inverse of :meth:`to_dict`."""
        return cls(
            [Step.from_dict(s) for s in data["steps"]],
            k=int(data["k"]),
            beta=float(data["beta"]),
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """Deserialise from a JSON string."""
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """Multi-line human-readable description of the schedule."""
        lines = [
            f"Schedule: {self.num_steps} steps, k={self.k}, beta={self.beta}, "
            f"cost={self.cost:.6g} (transmission {self.transmission_time:.6g} "
            f"+ setup {self.setup_time:.6g})"
        ]
        for i, step in enumerate(self.steps):
            parts = ", ".join(
                f"{t.left}->{t.right}:{t.amount:.6g}" for t in step.transfers
            )
            lines.append(f"  step {i}: duration {step.duration:.6g} [{parts}]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Schedule(steps={self.num_steps}, k={self.k}, beta={self.beta}, "
            f"cost={self.cost:.6g})"
        )
