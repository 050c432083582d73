"""Regenerate the schedules corpus after an intentional behaviour change.

The corpus pins what the peeling engines produce: oggp,
``ggp(matching='arbitrary')`` and wrgp with bottleneck and arbitrary
matching, each under the exact engines ``fast``, ``vector`` and
``reference``.  Inputs are small random multigraphs with parallel edges
(U{1..5} ties, float weights, integers up to 10^6, mixed int/float;
β ∈ {0, 0.5, 1, 3}), small weight-regular graphs, one 20×20 draw per
:mod:`repro.patterns` family and kpbs-random's seed-3 instances.  Per
schedule it records the SHA-256 of ``to_dict()`` as sorted JSON, or the
error as ``"<ExceptionType>: <message>"``.  The kpbs-random instances,
too slow for every engine, run oggp under ``fast`` and also record its
work counters.

Run:  PYTHONPATH=src python tests/regression/regen_schedules.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_schedules.json")

ENGINES = ("fast", "vector", "reference")
BETAS = (0.0, 0.5, 1.0, 3.0)

#: Work counters recorded for the kpbs-random instances.
COUNTERS = (
    "wrgp.peels",
    "matching.bottleneck.calls",
    "matching.bottleneck.threshold_probes",
    "matching.hk.bfs_phases",
    "matching.hk.augmenting_paths",
)

#: Weight draws of the random multigraphs, by name.
WEIGHTS = {
    "ties": lambda rng, m: [int(w) for w in rng.integers(1, 6, size=m)],
    "float": lambda rng, m: [float(w) for w in rng.uniform(0.05, 20.0, size=m)],
    "int6": lambda rng, m: [int(w) for w in rng.integers(1, 10**6 + 1, size=m)],
    "mixed": lambda rng, m: [
        int(w) if i % 2 else float(w) / 4
        for i, w in enumerate(rng.integers(1, 41, size=m))
    ],
}
RANDOM_DRAWS = 12
REGULAR_DRAWS = 24


def _outcome(fn) -> str:
    try:
        schedule = fn()
    except Exception as exc:  # the error string is the pinned outcome
        return f"{type(exc).__name__}: {exc}"
    text = json.dumps(schedule.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _schedules(graph, k: int, betas, wrgp_too: bool) -> dict[str, str]:
    from repro.core.ggp import ggp
    from repro.core.oggp import oggp
    from repro.core.wrgp import wrgp

    out = {}
    for engine in ENGINES:
        for beta in betas:
            out[f"oggp/{engine}/b{beta}"] = _outcome(
                lambda: oggp(graph, k, beta, engine=engine)
            )
            out[f"ggp-arbitrary/{engine}/b{beta}"] = _outcome(
                lambda: ggp(graph, k, beta, matching="arbitrary", engine=engine)
            )
        if wrgp_too:
            for matching in ("bottleneck", "arbitrary"):
                out[f"wrgp-{matching}/{engine}"] = _outcome(
                    lambda: wrgp(graph, 1.0, matching=matching, engine=engine)
                )
    return out


def _random_graph(kind: str, draw: int):
    from repro.graph.bipartite import BipartiteGraph

    rng = np.random.default_rng([draw, sorted(WEIGHTS).index(kind), 0x5C4D])
    n1 = int(rng.integers(1, 9))
    n2 = int(rng.integers(1, 9))
    m = int(rng.integers(1, 25))
    # Pairs drawn with replacement: parallel edges are common.
    lefts = rng.integers(0, n1, size=m)
    rights = rng.integers(0, n2, size=m)
    weights = WEIGHTS[kind](rng, m)
    k = int(rng.integers(1, 5))
    graph = BipartiteGraph.from_edges(
        (int(u), int(v), w) for u, v, w in zip(lefts, rights, weights)
    )
    return graph, k


def _regular_graph(draw: int):
    from repro.graph.bipartite import BipartiteGraph
    from repro.graph.generators import random_weight_regular

    rng = np.random.default_rng([draw, 0x4E47])
    base = random_weight_regular(
        int(rng.integers(0, 10**6)),
        n=int(rng.integers(2, 8)),
        layers=int(rng.integers(2, 5)),
        weight_high=int(rng.choice([3, 10, 1000])),
        merge_parallel=bool(draw % 2),
    )
    if draw % 3 == 0:
        return base
    # Scaling every weight by one factor keeps the graph weight-regular.
    factor = 0.25 if draw % 3 == 1 else 0.1
    return BipartiteGraph.from_edges(
        (e.left, e.right, e.weight * factor) for e in base.edges_sorted()
    )


def _pattern_matrices() -> dict[str, np.ndarray]:
    from repro import patterns as p

    return {
        "uniform": p.uniform_matrix(1, 20, 20, 1.0, 20.0),
        "zipf": p.zipf_matrix(2, 20, 20, 4000.0),
        "sparse": p.sparse_matrix(3, 20, 20, 0.2, 1.0, 20.0),
        "permutation": p.permutation_matrix(4, 20, 7.0),
        "hotspot": p.hotspot_matrix(5, 20, 20, 2.0, 40.0, num_hot=2),
        "block_cyclic": p.block_cyclic_matrix(400, 20, 3, 20, 5),
        "alltoall": p.alltoall_matrix(20, 20, 3.0),
        "alltoallv": p.alltoallv_matrix((np.arange(400).reshape(20, 20) % 7) * 2.0),
        "gather": p.gather_matrix(20, 20, 3, 5.0),
        "scatter": p.scatter_matrix(20, 20, 4, 5.0),
        "transpose": p.transpose_matrix(4, 5, 2.0),
    }


#: kpbs-random's instance shapes (perfbench/kpbs_random.py), drawn for
#: seed 3 the way that workload draws them.
KPBS_RANDOM_SHAPES = (
    (12, 18), (18, 40), (25, 76), (35, 30),
    (45, 22), (52, 48), (64, 16), (78, 12),
)


def _kpbs_random(index: int) -> dict:
    from repro import obs
    from repro.core.oggp import oggp
    from repro.graph.generators import from_traffic_matrix

    rng = np.random.default_rng([3, 0x4B504253])
    for n1, n2 in KPBS_RANDOM_SHAPES[: index + 1]:
        weights = rng.integers(1, 21, size=(n1, n2))
    graph = from_traffic_matrix(weights)
    with obs.observed() as (registry, _):
        digest = _outcome(lambda: oggp(graph, 10, 1.0))
    counters = {name: registry.counter(name).value for name in COUNTERS}
    return {"oggp/fast": digest, "counters": counters}


def _case_fns() -> dict:
    cases = {}
    for kind in sorted(WEIGHTS):
        for draw in range(RANDOM_DRAWS):
            def random_case(kind=kind, draw=draw):
                graph, k = _random_graph(kind, draw)
                return _schedules(graph, k, BETAS, wrgp_too=False)

            cases[f"random-{kind}-{draw}"] = random_case
    for draw in range(REGULAR_DRAWS):
        def regular_case(draw=draw):
            graph = _regular_graph(draw)
            return _schedules(graph, 1 + draw % 4, (0.5,), wrgp_too=True)

        cases[f"regular-{draw}"] = regular_case
    for name in _pattern_matrices():
        def pattern_case(name=name):
            from repro.graph.generators import from_traffic_matrix

            graph = from_traffic_matrix(_pattern_matrices()[name])
            return _schedules(graph, 10, (1.0,), wrgp_too=True)

        cases[f"pattern-{name}"] = pattern_case
    for index in range(len(KPBS_RANDOM_SHAPES)):
        cases[f"kpbs-random-3-{index}"] = lambda index=index: _kpbs_random(index)
    return cases


CASES = _case_fns()


def run_case(name: str) -> dict:
    return CASES[name]()


def main() -> None:
    corpus = {name: run_case(name) for name in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    schedules = sum(len(v) - ("counters" in v) for v in corpus.values())
    print(f"wrote {len(corpus)} cases ({schedules} schedules) to {GOLDEN}")


if __name__ == "__main__":
    main()
