"""Network topology description (paper §2.1, Figure 1).

Two clusters joined by a backbone.  All cluster-1 NICs run at ``t1``
Mbit/s, all cluster-2 NICs at ``t2``, the backbone at ``T``.  The
maximum congestion-free simultaneity is

    k = min( floor(T / t1), floor(T / t2), n1, n2 )

(paper constraints (a)–(d)), and each communication then proceeds at
``t = min(t1, t2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigError

#: Megabit per megabyte.
MBIT_PER_MB = 8.0


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of the two-cluster platform.

    Rates in Mbit/s, times in seconds.  ``step_setup`` is the paper's β:
    the time to synchronise a barrier and (re)open sockets for one
    communication step.
    """

    n1: int
    n2: int
    nic_rate1: float
    nic_rate2: float
    backbone_rate: float
    step_setup: float = 0.05

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ConfigError(f"cluster sizes must be >= 1, got {self.n1}, {self.n2}")
        if min(self.nic_rate1, self.nic_rate2, self.backbone_rate) <= 0:
            raise ConfigError("all rates must be positive")
        if self.step_setup < 0:
            raise ConfigError(f"step_setup must be >= 0, got {self.step_setup}")

    @property
    def k(self) -> int:
        """Maximum simultaneous communications without congestion.

        Each communication runs at the per-flow rate
        ``t = min(t1, t2)`` (the slower of the two NICs), and the 1-port
        constraint means no NIC ever carries more than one flow — so the
        only aggregation point is the backbone: ``k·t ≤ T``.  This
        matches the paper's §2.1 worked example (t1=10, t2=100, T=1000
        gives k=100), which overrides its misstated equation (b).

        A relative tolerance absorbs float artifacts: shaping NICs to
        ``100/3`` Mbit/s must yield ``k = 3``, not 2.
        """
        tol = 1e-9
        return max(
            1,
            min(
                int(self.backbone_rate / self.flow_rate * (1 + tol)),
                self.n1,
                self.n2,
            ),
        )

    @property
    def flow_rate(self) -> float:
        """Per-communication speed ``t = min(t1, t2)`` in Mbit/s."""
        return min(self.nic_rate1, self.nic_rate2)

    @classmethod
    def paper_testbed(cls, k: int, step_setup: float = 0.05) -> "NetworkSpec":
        """The paper's experimental platform for a given ``k`` (§5.2).

        Two clusters of 10 nodes, 100 Mbit Ethernet shaped with a
        token-bucket filter to ``100/k`` Mbit/s per NIC, interconnected
        by 100 Mbit switches (backbone 100 Mbit/s).
        """
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        rate = 100.0 / k
        return cls(
            n1=10,
            n2=10,
            nic_rate1=rate,
            nic_rate2=rate,
            backbone_rate=100.0,
            step_setup=step_setup,
        )
