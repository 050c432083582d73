"""Discrete-event simulation kernel.

A small, dependency-free process-based DES (in the style of SimPy,
implemented from scratch): generator *processes* yield *events*; the
:class:`Environment` advances a virtual clock through a priority queue
of scheduled events.

Used by :mod:`repro.netsim`'s packet-level simulator
(:mod:`~repro.netsim.packetsim`) and its barrier-free asynchronous
executor (:mod:`~repro.netsim.async_exec`).
"""

from repro.des.core import Environment, Event, Timeout, Process, AllOf, AnyOf
from repro.des.resources import Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
]
