"""Decision spaces and the seeded stream discipline."""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gapcert
from gapcert import _rng
from gapcert.spaces import BoxSpace, PermutationSpace, SpaceError


def test_box_validation():
    with pytest.raises(SpaceError):
        BoxSpace([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(SpaceError):
        BoxSpace([0.0], [np.inf])
    with pytest.raises(SpaceError):
        BoxSpace([[0.0]], [1.0])


def test_box_samples_inside_and_deterministic():
    space = BoxSpace([-2.0, 0.0, 10.0], [-1.0, 5.0, 11.0])
    a = space.sample(42, 500)
    b = space.sample(42, 500)
    assert np.array_equal(a, b)
    assert (a >= space.lower).all() and (a <= space.upper).all()
    assert a.shape == (500, 3)


def test_box_prefix_property():
    space = BoxSpace([0.0, 0.0], [1.0, 1.0])
    small = space.sample(7, 100)
    large = space.sample(7, 1000)
    assert np.array_equal(small, large[:100])


def test_box_rows_equal_single_points():
    space = BoxSpace([-2.0, 0.0, 10.0], [-1.0, 5.0, 11.0])
    rng = np.random.default_rng(4)
    pts = np.concatenate([rng.uniform(-3.0, 12.0, (200, 3)),
                          [space.lower, space.upper, [-2.0, 5.0, 11.0 + 1e-12],
                           [math.nan, 1.0, 10.5], [-math.inf, 1.0, 10.5]]])
    proj = space.project(pts)
    assert np.array_equal(proj, np.array([space.project(p) for p in pts]),
                          equal_nan=True)
    for rows in (pts, proj):
        inside = space.contains(rows)
        assert inside.dtype == bool
        assert inside.tolist() == [space.contains(p) for p in rows]
    assert space.contains(proj[:-2]).all() and not space.contains(pts[-3:]).any()
    assert isinstance(space.contains(pts[0]), bool)
    assert not space.contains([-1.5, 1.0])              # wrong length
    assert not space.contains(np.zeros((4, 2))).any()   # rows of wrong length


def test_distinct_tags_give_distinct_streams():
    space = BoxSpace([0.0], [1.0])
    a = space.sample(7, 50, path=(_rng.SOLVE,))
    b = space.sample(7, 50, path=(_rng.CERTIFY,))
    assert not np.array_equal(a, b)


def test_child_seed_stable():
    assert _rng.child_seed(3, 1, 4) == _rng.child_seed(3, 1, 4)
    assert _rng.child_seed(3, 1, 4) != _rng.child_seed(3, 1, 5)
    assert _rng.child_seed(3, 1, 4) != _rng.child_seed(4, 1, 4)


def test_stream_tags_are_distinct():
    tags = {name: value for name, value in vars(_rng).items()
            if name.isupper() and isinstance(value, int)}
    assert "SUBSAMPLE" in tags and "MPC_FIG4_BASE" in tags
    assert len(set(tags.values())) == len(tags), tags


def _seed_calls(tree):
    """(name, line, tag arguments) of every child_seed/stream call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in ("child_seed", "stream"):
                yield name, node.lineno, node.args[1:]


def test_no_literal_stream_tags_in_the_package():
    """Tags are named _rng constants, and only certifier derives the
    SUBSAMPLE and CERTIFY children of a solve seed."""
    literals, pipeline = [], []
    for path in sorted(Path(gapcert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line, tags in _seed_calls(tree):
            literals += [f"{path.name}:{line}" for t in tags
                         if isinstance(t, ast.Constant) and isinstance(t.value, int)]
            if name == "child_seed" and any(
                    isinstance(t, ast.Attribute) and t.attr in ("SUBSAMPLE", "CERTIFY")
                    for t in tags):
                pipeline.append(path.name)
    assert literals == []
    assert pipeline == ["certifier.py"] * 2  # its model and certify steps

def test_permutations_are_valid_and_deterministic():
    space = PermutationSpace(7)
    perms = space.sample(11, 300)
    assert perms.shape == (300, 7)
    expected = np.arange(7)
    for row in perms:
        assert np.array_equal(np.sort(row), expected)
    assert np.array_equal(perms, space.sample(11, 300))
    assert np.array_equal(perms[:40], space.sample(11, 40))


def test_permutation_uniformity():
    # all 3! = 6 orderings should appear near-equally often
    space = PermutationSpace(3)
    perms = space.sample(5, 60000)
    counts = {}
    for row in perms:
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c - 10000) < 400  # ~4 sigma of Binomial(60000, 1/6)


BLOCK_ROWS = math.factorial(7)


def test_permutation_enumeration_is_lexicographic_and_complete():
    assert PermutationSpace(4).cardinality == 24
    for n in range(2, 9):
        expected = np.asarray(list(itertools.permutations(range(n))))
        blocks = list(PermutationSpace(n).enumerate())
        assert max(len(b) for b in blocks) <= BLOCK_ROWS
        assert np.array_equal(blocks[0], expected[:BLOCK_ROWS])
        assert np.array_equal(np.concatenate(blocks), expected)


def test_permutation_enumeration_is_lazy_beyond_one_table():
    # 10! rows would take 290 MB; the first block must not wait for them
    tracemalloc.start()
    try:
        first = next(PermutationSpace(10).enumerate())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = np.asarray(list(itertools.islice(
        itertools.permutations(range(10)), BLOCK_ROWS)))
    assert np.array_equal(first, expected)
    assert peak < 16 * 2**20


def test_permutation_space_rejects_trivial():
    with pytest.raises(SpaceError):
        PermutationSpace(1)


def test_permutation_contains():
    space = PermutationSpace(4)
    assert space.contains([2, 0, 3, 1])
    assert not space.contains([0, 0, 3, 1])
    assert not space.contains([0, 1, 2])
