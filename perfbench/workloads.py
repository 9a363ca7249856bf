"""The benchmark's inputs, built from one seed.

Every scenario is a :class:`repro.lab.spec.ScenarioSpec` built here from
the spec fields, or drawn from :func:`repro.lab.generate.generate_scenarios`;
none comes from a registered lab suite, and the ``kernels`` field keeps
its default.  The same seed always gives the same specs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.lab.generate import generate_scenarios
from repro.lab.spec import ScenarioSpec

#: The fast plane: compiled protocol engine, compiled solver, columnar
#: factors.
FAST = dict(engine="compiled", solver="compiled", backend="columnar")

#: Fuzz identities per pass; each runs on every plane of PLANES.
FUZZ_IDENTITIES = 200

#: The generator seed that fixes the fuzz and serving *shapes* (query
#: family and parameters, topology, sizes, semiring, placement).  The
#: run's own seed then draws each shape's scenario seed, which picks the
#: random structure and data.  With shapes drawn from the run's seed the
#: mix of cheap and expensive identities changed from seed to seed, and
#: the spread of throughput and bits across seeds was 15-45%.
SHAPE_SEED = 2019

#: Engine x solver x backend planes a fuzz identity runs on: all eight
#: but the compiled engine on dict factors.  That pair raises an
#: IndexError now and then (it depends on the string hash seed and on
#: what the process ran before), so it cannot be counted the same way in
#: every run; see the FOUND line in CHANGES.md.
PLANES: Tuple[Tuple[str, str, str], ...] = tuple(
    (engine, solver, backend)
    for engine in ("generator", "compiled")
    for solver in ("operator", "compiled")
    for backend in ("dict", "columnar")
    if (engine, backend) != ("compiled", "dict")
)

#: Sessions registered on the serving workload: generated fuzz-sized
#: ones plus the hand-built large ones below.
SERVE_GENERATED = 12

#: Queries in one serving pass, and the closed-loop client count.
SERVE_QUERIES_PER_PASS = 1000
SERVE_CLIENTS = 4


def _child_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**30) for _ in range(count)]


def scale_scenarios(seed: int) -> List[ScenarioSpec]:
    """Large certified scenarios, one for each layer that leads it (the
    family name says which).

    Every query shape here is fixed up to isomorphism (two-edge paths,
    stars, paths), so the seed draws the data but not the structure:
    rounds and bits repeat exactly across seeds, and the time of a pass
    moves by a few percent.  Random tree, forest and acyclic shapes with
    more edges moved rounds by up to 35% from seed to seed.
    """
    s = _child_seeds(seed, 5)
    return [
        # random_relation draws every value from a fresh list(domain),
        # so a 16384-value domain makes materialization the biggest layer.
        ScenarioSpec(
            family="scale-materialize", query="acyclic",
            query_params={"edges": 2, "arity": 2},
            topology="hypercube", topology_params={"dim": 4},
            n=2**13, domain_size=16384, semiring="counting", seed=s[0], **FAST,
        ),
        # Two two-edge paths, 2**13 rows each: a long pipelined forest,
        # tens of thousands of rounds on the compiled engine.
        ScenarioSpec(
            family="scale-engine", query="forest",
            query_params={"trees": 2, "edges": 2},
            topology="hypercube", topology_params={"dim": 4},
            n=2**13, domain_size=256, semiring="max-plus", seed=s[1], **FAST,
        ),
        # TRIBES hard star across the min cut of a 64-node expander:
        # cheap to execute, priced round by round by the cost model.
        ScenarioSpec(
            family="scale-costmodel", query="hard-star",
            query_params={"arms": 4},
            topology="expander",
            topology_params={"n": 64, "degree": 4, "seed": 3},
            n=2**15, assignment="worst-case", seed=s[2], **FAST,
        ),
        # Steiner packings for six players on a 64-node hypercube.
        ScenarioSpec(
            family="scale-compile", query="hard-star",
            query_params={"arms": 6},
            topology="hypercube", topology_params={"dim": 6},
            n=2**13, seed=s[3], **FAST,
        ),
        # The paper's TRIBES path instance, formula-certified.
        ScenarioSpec(
            family="scale-hard-path", query="hard-path",
            query_params={"length": 6},
            topology="hypercube", topology_params={"dim": 5},
            n=2**14, assignment="worst-case", seed=s[4], **FAST,
        ),
    ]


def reseeded(shapes, seed: int) -> List[ScenarioSpec]:
    """The shapes with scenario seeds drawn from ``seed``."""
    return [
        shape.with_(seed=child)
        for shape, child in zip(shapes, _child_seeds(seed, len(shapes)))
    ]


def fuzz_identities(seed: int) -> List[ScenarioSpec]:
    return reseeded(generate_scenarios(SHAPE_SEED, FUZZ_IDENTITIES), seed)


def planes_of(identity: ScenarioSpec) -> List[ScenarioSpec]:
    return [
        identity.with_(engine=engine, solver=solver, backend=backend)
        for engine, solver, backend in PLANES
    ]


def serve_sessions(seed: int) -> List[ScenarioSpec]:
    """Fuzz-sized generated sessions plus four with N = 2**14.

    The large sessions make the solver thread the busy part of the loop
    (about two thirds of a pass), so the measured rate follows the
    machine's speed, which the probe corrects for.  With N = 2**12 the
    2 ms batch window and the hand-offs between the event loop and the
    solver thread made up most of it, and the rate moved by up to 13%
    between sets of runs of the same code.
    """
    generated, large = _child_seeds(seed, 2)
    shapes = generate_scenarios(SHAPE_SEED + 1, SERVE_GENERATED)
    sessions = [
        spec.with_(solver="compiled", backend="columnar")
        for spec in reseeded(shapes, generated)
    ]
    s = _child_seeds(large, 4)
    # Fixed shapes, as on `scale`, so the seed draws data only.
    sessions += [
        ScenarioSpec(
            family="serve-large", query="acyclic",
            query_params={"edges": 2, "arity": 2},
            topology="hypercube", topology_params={"dim": 4},
            n=2**14, domain_size=512, semiring="counting", seed=s[0], **FAST,
        ),
        ScenarioSpec(
            family="serve-large", query="tree", query_params={"edges": 2},
            topology="expander",
            topology_params={"n": 16, "degree": 3, "seed": 1},
            n=2**14, domain_size=512, semiring="real", seed=s[1], **FAST,
        ),
        ScenarioSpec(
            family="serve-large", query="forest",
            query_params={"trees": 2, "edges": 2},
            topology="hypercube", topology_params={"dim": 4},
            n=2**14, domain_size=512, semiring="min-plus", seed=s[2], **FAST,
        ),
        ScenarioSpec(
            family="serve-large", query="hard-star", query_params={"arms": 4},
            topology="hypercube", topology_params={"dim": 4},
            n=2**14, assignment="worst-case", seed=s[3], **FAST,
        ),
    ]
    return sessions


def serve_sequence(seed: int, count: int) -> List[int]:
    """Indices into :func:`serve_sessions`, drawn uniformly, so that
    concurrent clients sometimes ask for the same session at once and
    the service can coalesce them."""
    rng = random.Random(seed ^ 0x5E55)
    total = SERVE_GENERATED + 4
    return [rng.randrange(total) for _ in range(count)]


def oracle_factors(query) -> List[Tuple[Tuple[str, ...], Dict]]:
    """A materialized query's factors as plain ``(schema, rows)`` pairs."""
    return [
        (tuple(factor.schema), dict(factor.rows))
        for factor in query.factors.values()
    ]
