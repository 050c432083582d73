"""In-process message-passing runtime (MPI substitute).

The paper implements its redistribution engines with MPICH on two
physical clusters.  mpi4py is not available in this environment, so this
package provides a rank-based runtime over Python threads that exposes
the same primitives an MPI backend would — synchronous point-to-point
sends, barriers — plus token-bucket NIC shaping (the paper used the
*rshaper* kernel module for the same purpose).  Real bytes move through
bounded channels; timings are wall clock.

Use :mod:`repro.netsim` for quantitative experiments; this runtime
exists to exercise the scheduling/executor code path end to end and to
demonstrate what an MPI deployment looks like (see
``examples/inprocess_cluster.py``).
"""

from repro.runtime.tokenbucket import TokenBucket
from repro.runtime.local import LocalCluster, Endpoint
from repro.runtime.executor import (
    TransferPlanError,
    run_scheduled,
    run_bruteforce,
    schedule_and_run,
    schedule_and_run_resilient,
    resume_and_run_resilient,
    ResilientRunReport,
    RuntimeFailure,
    RuntimeReport,
)
from repro.runtime.churn import ChurnRunReport, run_resilient_churn
from repro.runtime.seeded import (
    delivered_digest,
    transfer_case,
    transfer_cluster,
)

__all__ = [
    "delivered_digest",
    "transfer_case",
    "transfer_cluster",
    "TokenBucket",
    "LocalCluster",
    "Endpoint",
    "TransferPlanError",
    "run_scheduled",
    "run_bruteforce",
    "schedule_and_run",
    "schedule_and_run_resilient",
    "resume_and_run_resilient",
    "ResilientRunReport",
    "RuntimeFailure",
    "RuntimeReport",
    "ChurnRunReport",
    "run_resilient_churn",
]
