"""Fast checks of the benchmark's own arithmetic: the answer oracle on
hand-computed cases, and span self times on a hand-built tree."""

import math
import types

import pytest

from oracle import evaluate, same_value, scalar_of
from spans import Span, SpanRecorder, covered, self_times

# R(a, b) ⋈ S(b, c) joins on b = 0 (2 ⊗ 4) and b = 1 (3 ⊗ 5).
PATH = [
    (("a", "b"), {(0, 0): 2, (0, 1): 3}),
    (("b", "c"), {(0, 5): 4, (1, 5): 5, (2, 5): 9}),
]


@pytest.mark.parametrize("semiring, expected", [
    ("counting", 2 * 4 + 3 * 5),
    ("real", 2.0 * 4.0 + 3.0 * 5.0),
    ("min-plus", min(2 + 4, 3 + 5)),
    ("max-plus", max(2 + 4, 3 + 5)),
    ("max-times", max(2 * 4, 3 * 5)),
])
def test_path_join_in_each_weighted_semiring(semiring, expected):
    assert evaluate(PATH, semiring) == expected


def test_boolean_path_is_true_iff_some_join_row_exists():
    rows = [(schema, {k: True for k in r}) for schema, r in PATH]
    assert evaluate(rows, "boolean") is True
    disjoint = [rows[0], (("b", "c"), {(7, 5): True})]
    assert evaluate(disjoint, "boolean") is False


def test_cyclic_triangle_count():
    # Triangles (a, b, c) with R(a, b), S(b, c), T(a, c): (0, 1, 2) and (1, 2, 0).
    triangle = [
        (("a", "b"), {(0, 1): 1, (1, 2): 1, (2, 2): 1}),
        (("b", "c"), {(1, 2): 1, (2, 0): 1}),
        (("a", "c"), {(0, 2): 1, (1, 0): 1}),
    ]
    assert evaluate(triangle, "counting") == 2


def test_disconnected_components_multiply():
    parts = [(("a",), {(0,): 2, (1,): 3}), (("b",), {(7,): 4})]
    assert evaluate(parts, "counting") == (2 + 3) * 4
    assert evaluate(parts, "max-plus") == 3 + 4


def test_empty_join_is_the_semiring_zero():
    empty = [PATH[0], (("b", "c"), {(9, 9): 1.0})]
    assert evaluate(empty, "min-plus") == math.inf
    assert evaluate(empty, "max-plus") == -math.inf
    assert evaluate(empty, "real") == 0.0


def test_same_value_and_scalar_of():
    assert same_value("real", 23.0, 23.0 + 1e-12)
    assert not same_value("real", 23.0, 23.5)
    assert same_value("min-plus", math.inf, float("inf"))
    assert same_value("counting", 5, 5.0)
    assert scalar_of({}, "min-plus") == math.inf
    assert scalar_of({(): 4}, "counting") == 4
    with pytest.raises(ValueError):
        scalar_of({(1,): 4}, "counting")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: together they cover 1..6
        Span("leaf", 2.0, 3.0, 1),
        Span("late", 9.0, 12.0, 0),  # clipped to the root's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_covered_merges_overlaps():
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_recorder_nests_spans_and_restores_what_it_wrapped():
    module = types.SimpleNamespace()

    class Layer:
        def work(self, x):
            return module.inner(x) + 1

    module.inner = lambda x: x * 2
    original_inner, original_work = module.inner, Layer.work
    recorder = SpanRecorder()
    seen = []
    recorder.wrap(module, "inner", "inner", lambda r, a, k: seen.append(r))
    recorder.wrap(Layer, "work", "outer")
    assert Layer().work(3) == 7
    assert seen == [6]
    outer, inner = sorted(recorder.spans, key=lambda s: s.start)
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent) == ("inner", recorder.spans.index(outer))
    recorder.uninstall()
    assert module.inner is original_inner
    assert Layer.work is original_work
