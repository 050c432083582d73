"""Packet-level network simulation on the DES kernel.

The fluid TCP model (:mod:`repro.netsim.tcp`) is fast but coarse.  This
module builds the same brute-force scenario packet by packet — shaped
sender links, a drop-tail bottleneck switch, shaped receiver links,
per-segment ACKs and retransmission timers — so the fluid model's
headline behaviours can be *cross-validated* against a mechanistically
finer simulation:

- goodput efficiency below 1 under oversubscription,
- waste growing with the oversubscription factor,
- straggling completion times.

The transport is deliberately a simplified reliable window protocol
(TCP-like, not bit-exact TCP): per-segment ACKs, slow start + additive
increase, multiplicative decrease on loss (at most once per RTT),
retransmission after loss detection, exponential backoff when a minimal
window keeps losing.

Everything runs on :mod:`repro.des` — this module is also the kernel's
heaviest consumer and doubles as its integration test bed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.des import Environment, Event, Store
from repro.netsim.topology import NetworkSpec
from repro.util.errors import ConfigError, SimulationError
from repro.util.rng import RngStream, derive_rng


@dataclass(frozen=True)
class PacketSimParams:
    """Tunables of the packet-level simulation.

    ``segment_bits`` — payload per segment (coarse 64 KiB segments keep
    event counts manageable); ``switch_buffer`` / ``recv_buffer`` —
    drop-tail queue limits in segments; ``prop_delay`` — one-way
    propagation delay in seconds; ``rto`` — retransmission timeout;
    ``max_time`` — simulation horizon guard.
    """

    segment_bits: float = 64 * 1024 * 8.0
    switch_buffer: int = 50
    recv_buffer: int = 16
    prop_delay: float = 0.0005
    rto: float = 1.0
    initial_cwnd: float = 2.0
    max_time: float = 10_000.0

    def __post_init__(self) -> None:
        if self.segment_bits <= 0:
            raise ConfigError("segment_bits must be positive")
        if self.switch_buffer < 1 or self.recv_buffer < 1:
            raise ConfigError("buffers must hold at least one segment")
        if self.rto <= 0 or self.prop_delay < 0:
            raise ConfigError("rto must be positive, prop_delay >= 0")


@dataclass(eq=False)
class _Segment:
    """One in-flight payload unit.  ``epoch`` invalidates stale timers."""

    flow: "_Flow"
    seq: int
    epoch: int = 0
    acked: bool = False
    lost: bool = False


@dataclass(eq=False)
class _Flow:
    index: int
    src: int
    dst: int
    total_segments: int
    cwnd: float
    ssthresh: float = float("inf")
    next_seq: int = 0
    acked_segments: int = 0
    inflight: int = 0
    last_decrease: float = -1e18
    backoff: int = 0
    paused_until: float = 0.0
    done_at: float | None = None
    window_event: Event | None = None
    sent_segments: int = 0


@dataclass(frozen=True)
class PacketSimResult:
    """Outcome of a packet-level brute-force run."""

    total_time: float
    completion_times: np.ndarray
    sent_segments: int
    delivered_segments: int
    dropped_segments: int
    goodput_efficiency: float


class _DropTailLink:
    """A shaped link: FIFO service at ``rate`` with a drop-tail buffer."""

    def __init__(
        self,
        env: Environment,
        rate_bits: float,
        buffer_segments: int,
        segment_bits: float,
        on_deliver,
        on_drop,
    ) -> None:
        self.env = env
        self.rate = rate_bits
        self.limit = buffer_segments
        self.segment_bits = segment_bits
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        self.queue: Store = Store(env)
        self.depth = 0
        env.process(self._serve())

    def enqueue(self, segment: _Segment) -> None:
        """Accept or drop a segment (drop-tail)."""
        if self.depth >= self.limit:
            self.on_drop(segment)
            return
        self.depth += 1
        self.queue.put(segment)

    def _serve(self):
        while True:
            segment = yield self.queue.get()
            yield self.env.timeout(self.segment_bits / self.rate)
            self.depth -= 1
            self.on_deliver(segment)


def simulate_packet_bruteforce(
    spec: NetworkSpec,
    traffic_mbit: np.ndarray,
    rng: RngStream | int | None = None,
    params: PacketSimParams = PacketSimParams(),
) -> PacketSimResult:
    """Packet-level all-at-once redistribution of ``traffic_mbit``.

    Mirrors :func:`repro.netsim.tcp.simulate_bruteforce` at segment
    granularity.  ``rng`` jitters the connection start offsets
    (desynchronising flows the way real connection setup does).
    """
    rng = derive_rng(rng)
    traffic = np.asarray(traffic_mbit, dtype=float)
    if traffic.shape != (spec.n1, spec.n2):
        raise SimulationError(
            f"traffic shape {traffic.shape} != clusters ({spec.n1}, {spec.n2})"
        )
    src_idx, dst_idx = np.nonzero(traffic > 0)
    if len(src_idx) == 0:
        return PacketSimResult(0.0, np.zeros(0), 0, 0, 0, 1.0)

    env = Environment()
    seg_mbit = params.segment_bits / 1e6

    flows = [
        _Flow(
            index=i,
            src=int(s),
            dst=int(d),
            total_segments=max(1, int(np.ceil(traffic[s, d] / seg_mbit))),
            cwnd=params.initial_cwnd,
        )
        for i, (s, d) in enumerate(zip(src_idx, dst_idx))
    ]
    stats = {"sent": 0, "delivered": 0, "dropped": 0}
    retransmit_queue: dict[int, list[_Segment]] = {f.index: [] for f in flows}

    def wake(flow: _Flow) -> None:
        ev = flow.window_event
        if ev is not None and not ev.triggered:
            ev.succeed(None)

    def on_ack(segment: _Segment) -> None:
        flow = segment.flow
        if segment.acked or segment.lost:
            # Duplicate ACK, or a late copy of a segment already
            # declared lost — the retransmission owns its accounting.
            return
        segment.acked = True
        stats["delivered"] += 1
        flow.inflight -= 1
        flow.acked_segments += 1
        flow.backoff = 0
        if flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0  # slow start
        else:
            flow.cwnd += 1.0 / flow.cwnd  # congestion avoidance
        if flow.acked_segments >= flow.total_segments and flow.done_at is None:
            flow.done_at = env.now
        wake(flow)

    def on_loss(segment: _Segment) -> None:
        flow = segment.flow
        if segment.acked or segment.lost:
            return
        segment.lost = True
        stats["dropped"] += 1
        flow.inflight -= 1
        retransmit_queue[flow.index].append(segment)
        now = env.now
        if now - flow.last_decrease > 2 * params.prop_delay + 1e-9:
            flow.last_decrease = now
            if flow.cwnd <= 2.0:
                # Minimal window keeps losing: back off exponentially.
                flow.paused_until = now + params.rto * (2 ** min(flow.backoff, 5))
                flow.backoff += 1
                flow.cwnd = 1.0
                flow.ssthresh = 2.0
            else:
                flow.cwnd = max(1.0, flow.cwnd / 2.0)
                flow.ssthresh = max(2.0, flow.cwnd)
        wake(flow)

    # Topology: sender shapers -> switch -> receiver shapers -> ACKs.
    def recv_deliver(segment: _Segment) -> None:
        env.timeout(params.prop_delay).add_callback(
            lambda _ev, s=segment: on_ack(s)
        )

    recv_links = [
        _DropTailLink(env, spec.nic_rate2 * 1e6, params.recv_buffer,
                      params.segment_bits, recv_deliver, on_loss)
        for _ in range(spec.n2)
    ]
    switch = _DropTailLink(
        env, spec.backbone_rate * 1e6, params.switch_buffer,
        params.segment_bits,
        lambda seg: recv_links[seg.flow.dst].enqueue(seg),
        on_loss,
    )
    # A host never drops its own socket buffer — the window limits what
    # is in flight, so the sender link queue is effectively unbounded.
    send_links = [
        _DropTailLink(env, spec.nic_rate1 * 1e6, 1_000_000,
                      params.segment_bits,
                      lambda seg: switch.enqueue(seg), on_loss)
        for _ in range(spec.n1)
    ]

    def transmit(flow: _Flow, segment: _Segment) -> None:
        segment.lost = False
        segment.epoch += 1
        epoch = segment.epoch
        flow.inflight += 1
        flow.sent_segments += 1
        stats["sent"] += 1
        send_links[flow.src].enqueue(segment)

        def timer_fired(_ev, s=segment, e=epoch) -> None:
            if not s.acked and not s.lost and s.epoch == e:
                on_loss(s)

        env.timeout(params.rto).add_callback(timer_fired)

    def sender(flow: _Flow):
        yield env.timeout(float(rng.uniform(0.0, 2 * params.prop_delay)))
        while flow.acked_segments < flow.total_segments:
            if env.now < flow.paused_until:
                yield env.timeout(flow.paused_until - env.now)
            queue = retransmit_queue[flow.index]
            while flow.inflight < int(flow.cwnd) and (
                queue or flow.next_seq < flow.total_segments
            ):
                if queue:
                    segment = queue.pop(0)
                else:
                    segment = _Segment(flow, flow.next_seq)
                    flow.next_seq += 1
                transmit(flow, segment)
            if flow.acked_segments >= flow.total_segments:
                break
            wait = env.event()
            flow.window_event = wait
            yield env.any_of([wait, env.timeout(params.rto)])
            flow.window_event = None
        return flow.done_at

    procs = [env.process(sender(f)) for f in flows]
    done = env.all_of(procs)

    while not done.processed:
        if env.now > params.max_time:
            raise SimulationError(
                f"packet simulation exceeded max_time={params.max_time}s"
            )
        env.step()

    completion = np.array([f.done_at for f in flows], dtype=float)
    total = float(np.max(completion))
    volume = float(traffic[src_idx, dst_idx].sum())
    ideal = volume / spec.backbone_rate
    return PacketSimResult(
        total_time=total,
        completion_times=completion,
        sent_segments=stats["sent"],
        delivered_segments=stats["delivered"],
        dropped_segments=stats["dropped"],
        goodput_efficiency=float(min(1.0, ideal / total)) if total else 1.0,
    )
