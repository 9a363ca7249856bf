"""An answer oracle that shares no algebra with the program under test.

It evaluates a scalar FAQ (every variable bound, one aggregate) from the
materialized factors' rows alone: each factor is a ``(schema, rows)``
pair, ``rows`` mapping value tuples to annotations.  The six semirings
the fuzz plane samples are re-implemented here as plain Python
operators, so a fault in the program's factor algebra cannot cancel out
of the comparison.

The evaluator is variable elimination with the GYO moves first:

1. a variable held by exactly one factor is summed out of it;
2. a factor whose schema lies inside another's is multiplied into it;
3. otherwise the variable whose factors are smallest to join is
   eliminated by joining them.

On an acyclic query moves 1 and 2 always apply, so the pass is a
join-tree pass, linear in the rows.  Move 3 only runs on cyclic
queries, whose joins can grow; the benchmark keeps those at fuzz sizes.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

Rows = Dict[Tuple[Any, ...], Any]
FactorRows = Tuple[Tuple[str, ...], Rows]


class Semiring(NamedTuple):
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any


SEMIRINGS: Dict[str, Semiring] = {
    "boolean": Semiring(operator.or_, operator.and_, False, True),
    "counting": Semiring(operator.add, operator.mul, 0, 1),
    "real": Semiring(operator.add, operator.mul, 0.0, 1.0),
    "min-plus": Semiring(min, operator.add, math.inf, 0.0),
    "max-plus": Semiring(max, operator.add, -math.inf, 0.0),
    "max-times": Semiring(max, operator.mul, 0.0, 1.0),
}


def _normalize(name: str, value: Any) -> Any:
    """A program annotation as a plain Python number of the semiring."""
    if name == "boolean":
        return bool(value)
    if name == "counting":
        return int(value)
    return float(value)


def evaluate(factors: Sequence[FactorRows], semiring: str) -> Any:
    """The scalar answer ``⊕ over all assignments of ⊗ of the factors``."""
    ring = SEMIRINGS[semiring]
    work: List[FactorRows] = [
        (tuple(schema), {tuple(k): _normalize(semiring, v) for k, v in rows.items()})
        for schema, rows in factors
    ]
    scalar = ring.one
    while work:
        empty = [f for f in work if not f[0]]
        if empty:
            for _schema, rows in empty:
                scalar = ring.mul(scalar, rows.get((), ring.zero))
            work = [f for f in work if f[0]]
            continue
        if _sum_out_private_variable(work, ring) or _absorb_subset(work, ring):
            continue
        _eliminate_cheapest(work, ring)
    return scalar


def _holders(work: Sequence[FactorRows]) -> Dict[str, List[int]]:
    held: Dict[str, List[int]] = {}
    for index, (schema, _rows) in enumerate(work):
        for var in schema:
            held.setdefault(var, []).append(index)
    return held


def _sum_out_private_variable(work: List[FactorRows], ring: Semiring) -> bool:
    for var, indices in _holders(work).items():
        if len(indices) == 1:
            index = indices[0]
            work[index] = marginalize(work[index], var, ring)
            return True
    return False


def _absorb_subset(work: List[FactorRows], ring: Semiring) -> bool:
    for i, (small_schema, _rows) in enumerate(work):
        for j, (big_schema, _big) in enumerate(work):
            if i != j and set(small_schema) <= set(big_schema):
                work[j] = absorb(work[j], work[i], ring)
                del work[i]
                return True
    return False


def _eliminate_cheapest(work: List[FactorRows], ring: Semiring) -> None:
    held = _holders(work)

    def cost(var: str) -> int:
        return math.prod(len(work[i][1]) for i in held[var])

    var = min(sorted(held), key=cost)
    indices = set(held[var])
    joined = join([work[i] for i in sorted(indices)], ring)
    work[:] = [f for i, f in enumerate(work) if i not in indices]
    work.append(marginalize(joined, var, ring))


def marginalize(factor: FactorRows, var: str, ring: Semiring) -> FactorRows:
    """Sum ``var`` out of one factor."""
    schema, rows = factor
    keep = [i for i, v in enumerate(schema) if v != var]
    out: Rows = {}
    for key, value in rows.items():
        sub = tuple(key[i] for i in keep)
        out[sub] = ring.add(out[sub], value) if sub in out else value
    return tuple(schema[i] for i in keep), _drop_zeros(out, ring)


def absorb(big: FactorRows, small: FactorRows, ring: Semiring) -> FactorRows:
    """Multiply a factor into one whose schema contains its own."""
    big_schema, big_rows = big
    small_schema, small_rows = small
    positions = [big_schema.index(v) for v in small_schema]
    out: Rows = {}
    for key, value in big_rows.items():
        other = small_rows.get(tuple(key[i] for i in positions), ring.zero)
        out[key] = ring.mul(value, other)
    return big_schema, _drop_zeros(out, ring)


def join(factors: Sequence[FactorRows], ring: Semiring) -> FactorRows:
    """The product of several factors over the union of their schemas."""
    schema: Tuple[str, ...] = ()
    rows: Rows = {(): ring.one}
    for other_schema, other_rows in factors:
        shared = [v for v in other_schema if v in schema]
        fresh = [v for v in other_schema if v not in schema]
        index: Dict[Tuple[Any, ...], List[Tuple[Tuple[Any, ...], Any]]] = {}
        for key, value in other_rows.items():
            row = dict(zip(other_schema, key))
            index.setdefault(tuple(row[v] for v in shared), []).append(
                (tuple(row[v] for v in fresh), value)
            )
        positions = [schema.index(v) for v in shared]
        joined: Rows = {}
        for key, value in rows.items():
            for extra, other in index.get(tuple(key[i] for i in positions), ()):
                joined[key + extra] = ring.mul(value, other)
        schema, rows = schema + tuple(fresh), _drop_zeros(joined, ring)
    return schema, rows


def _drop_zeros(rows: Rows, ring: Semiring) -> Rows:
    return {k: v for k, v in rows.items() if v != ring.zero}


def same_value(semiring: str, expected: Any, got: Any) -> bool:
    """Whether a program answer equals the oracle's, by value."""
    got = _normalize(semiring, got)
    if semiring in ("boolean", "counting"):
        return got == expected
    if math.isinf(expected) or math.isinf(got):
        return got == expected
    return math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)


def scalar_of(rows: Mapping[Tuple[Any, ...], Any], semiring: str) -> Any:
    """The value of a scalar answer's rows (an absent row is the zero)."""
    if len(rows) > 1 or any(key != () for key in rows):
        raise ValueError(f"not a scalar answer: {len(rows)} rows")
    return rows.get((), SEMIRINGS[semiring].zero)
