"""Decision spaces and the seeded stream discipline."""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gapcert
from gapcert import _rng, spaces
from gapcert.problems import make_tsp_problem, random_tsp_instance
from gapcert.spaces import BoxSpace, PermutationSpace, SpaceError, TourSpace


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


def test_stream_matches_an_explicit_philox_key():
    # Philox(seed_sequence) keys itself with generate_state(2, uint64), so
    # stream(seed, *path) draws what the explicit-key construction draws
    def explicit(seed, *path):
        ss = np.random.SeedSequence(
            entropy=seed & _rng._SEED_MASK,
            spawn_key=tuple(p & _rng._SEED_MASK for p in path))
        key = ss.generate_state(2, np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    cases = [(s, p) for s in edges for p in [(), (0,), (2**64 - 1,), (3, 2**32)]]
    rng = np.random.default_rng(20)
    cases += [(int(rng.integers(2**63)),
               tuple(int(v) for v in rng.integers(2**40, size=k)))
              for k in rng.integers(0, 4, size=200)]
    for seed, path in cases:
        got, want = _rng.stream(seed, *path), explicit(seed, *path)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert np.array_equal(got.random(5), want.random(5))
        assert np.array_equal(got.integers(2**63, size=3),
                              want.integers(2**63, size=3))


def test_child_seed_is_the_first_seed_sequence_word():
    # the contract: child_seed(seed, *path) is the first uint64 numpy's
    # SeedSequence gives for (seed, path), each value taken mod 2^64
    def want(seed, *path):
        ss = np.random.SeedSequence(
            entropy=seed & _rng._SEED_MASK,
            spawn_key=tuple(p & _rng._SEED_MASK for p in path))
        return int(ss.generate_state(1, np.uint64)[0])

    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -2**40]
    # one- and two-word seeds with one- and two-word path elements, mixed
    paths = [(), (0,), (5,), (2**32 - 1,), (2**32,), (2**64 - 1,), (-3,),
             (7, 2**32), (2**40, 7), (0, 0, 0), (2**63, 1, 2**32 - 1, 9)]
    cases = [(s, p) for s in edges for p in paths]
    rng = np.random.default_rng(22)
    for k in rng.integers(0, 5, size=400):
        bits = rng.integers(1, 65, size=k + 1)
        words = [int(v) >> (64 - int(b)) for v, b in
                 zip(rng.integers(2**64, size=k + 1, dtype=np.uint64), bits)]
        cases.append((words[0], tuple(words[1:])))
    for seed, path in cases:
        assert _rng.child_seed(seed, *path) == want(seed, *path), (seed, path)
    assert _rng.child_seed(np.uint64(2**64 - 1), np.int64(3)) == want(2**64 - 1, 3)


def test_philox_key_stub_serves_only_the_philox_call():
    key = _rng._PhiloxKey((1, 2**64 - 1))
    assert key.generate_state(2, np.uint64).tolist() == [1, 2**64 - 1]
    for n_words, dtype in [(2, np.uint32), (1, np.uint64), (4, np.uint64), (2, None)]:
        with pytest.raises(ValueError):
            key.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        key.generate_state(2)


def test_stream_tags_are_distinct():
    tags = {name: value for name, value in vars(_rng).items()
            if name.isupper() and not name.startswith("_")
            and isinstance(value, int)}
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


# -- the flat-index shuffle and the shared tour tables against their first
# implementations, kept verbatim as references ------------------------------

def reference_sample(space, seed, n, path=()):
    """PermutationSpace.sample as first written: row-index swaps."""
    k = space.n_items
    u = _rng.uniform_block(seed, path, n, k - 1)
    perms = np.tile(np.arange(k), (int(n), 1))
    rows = np.arange(int(n))
    for j in range(k - 1, 0, -1):
        r = (u[:, k - 1 - j] * (j + 1)).astype(np.intp)  # uniform on 0..j
        pj = perms[rows, j].copy()
        perms[rows, j] = perms[rows, r]
        perms[rows, r] = pj
    return perms


def reference_canonical(space):
    """TourSpace.enumerate_canonical as first written: rebuilt per call."""
    n = space.n_items
    if n < 3:
        yield from space.enumerate()
        return
    for rest in PermutationSpace(n - 1).enumerate():
        rest = rest[rest[:, 0] < rest[:, -1]]
        if not len(rest):
            continue
        tours = np.zeros((len(rest), n), dtype=np.intp)
        tours[:, 1:] = rest + 1
        yield tours


@pytest.mark.parametrize("k", range(2, 13))
def test_sample_bitwise_equal_to_reference(k):
    space = PermutationSpace(k)
    for n in (0, 1, 2, 7, 4097, 60000):
        for seed, path in ((0, ()), (11, (_rng.SOLVE,)), (2**63 + 5, (3, 9))):
            got = space.sample(seed, n, path=path)
            want = reference_sample(space, seed, n, path)
            assert got.dtype == want.dtype and got.shape == want.shape == (n, k)
            assert got.flags.c_contiguous and got.flags.writeable
            assert np.array_equal(got, want), (k, n, seed, path)


@pytest.mark.parametrize("m", range(2, 10))
def test_shuffle_table_is_every_shuffle(m):
    table = spaces._shuffles(m)
    assert table.dtype == np.uint8 and table.shape == (math.factorial(m), m)
    assert not table.flags.writeable and spaces._shuffles(m) is table
    # each row an ordering, no two rows alike: the code-to-ordering map is a
    # bijection, so a uniform code gives a uniform ordering
    assert (np.sort(table, axis=1) == np.arange(m)).all()
    keys = table.astype(np.int64) @ (m ** np.arange(m, dtype=np.int64))
    assert len(np.unique(keys)) == len(table)
    # a sample of codes, folded from the swap indices, decodes to the swaps
    n = 5000
    u = _rng.uniform_block(7, (), n, m - 1)
    code = np.zeros(n, dtype=np.intp)
    for j in range(m - 1, 0, -1):
        code = code * (j + 1) + (u[:, m - 1 - j] * (j + 1)).astype(np.intp)
    want = reference_sample(PermutationSpace(m), 7, n)
    assert np.array_equal(table[code], want)


def test_tour_sample_working_memory():
    space = TourSpace(9)
    space.sample(0, 1)  # builds the shuffle table
    tracemalloc.start()
    try:
        out = space.sample(0, 139_257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * out.nbytes, peak / out.nbytes


def test_tour_class_table_working_memory():
    # the shuffle and canonical tour tables are cached for sampling and
    # enumeration anyway; an unblocked build would hold (9!, 9) index arrays
    spaces._shuffles(9), spaces._canonical_tours(9)
    tracemalloc.start()
    try:
        table = spaces._tour_classes.__wrapped__(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table, spaces._tour_classes(9))
    assert peak < 4 * table.nbytes, peak / table.nbytes


def test_enumerated_tour_certificate_working_memory():
    # the draws' costs are read from the enumeration, so certify_gap holds
    # less than the (n_v, 9) tours the sample path would build
    problem = make_tsp_problem(random_tsp_instance(9, 3))
    gapcert.exhaustive_min(problem)
    model = gapcert.subsample_info(gapcert.percentile_solve(problem, 1000, 3).info,
                                   0.1, 1, problem=problem)
    gapcert.certify_gap(model, 1000, 0.01, 4)  # builds the class table
    n_v = 139_257
    tracemalloc.start()
    try:
        gapcert.certify_gap(model, n_v, 18 / math.factorial(9), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_v * 9 * np.dtype(np.intp).itemsize, peak


@pytest.mark.parametrize("n", range(2, 11))
def test_canonical_tours_equal_reference_block_for_block(n):
    got = list(TourSpace(n).enumerate_canonical())
    want = list(reference_canonical(TourSpace(n)))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.intp and np.array_equal(a, b)
    assert sum(map(len, got)) == (2 if n == 2 else math.factorial(n - 1) // 2)


def test_canonical_tours_are_shared_and_read_only(monkeypatch):
    first = list(TourSpace(7).enumerate_canonical())

    def never(*args, **kwargs):
        raise AssertionError("canonical tours enumerated twice")

    monkeypatch.setattr(PermutationSpace, "enumerate", never)
    again = list(TourSpace(7).enumerate_canonical())
    problems = [make_tsp_problem(random_tsp_instance(7, s)) for s in (1, 2)]
    for blocks in [again] + [list(p.space.enumerate_canonical())
                             for p in problems]:
        assert len(blocks) == len(first)
        assert all(a is b for a, b in zip(blocks, first))
    for block in first:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1
    assert problems[0].enumeration[0].shape == (math.factorial(6) // 2,)


def test_canonical_tours_beyond_the_limit_are_refused(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumeration started beyond the limit")

    monkeypatch.setattr(PermutationSpace, "enumerate", never)
    before = spaces._canonical_tours.cache_info()
    for _ in range(2):
        with pytest.raises(SpaceError, match="enumeration limit"):
            TourSpace(11).enumerate_canonical()
    after = spaces._canonical_tours.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


# -- tour classes read from shuffle codes ------------------------------------

def canonical_form(tours):
    """Each tour rotated to start at 0, then reversed after the 0 when its
    second stop exceeds its last, one row at a time."""
    out = np.empty_like(tours)
    for row, tour in zip(out, tours):
        tour = np.roll(tour, -int(np.flatnonzero(tour == 0)[0]))
        row[:] = tour if tour[1] < tour[-1] else np.r_[tour[:1], tour[:0:-1]]
    return out


def test_uniform_blocks_are_the_uniform_block_in_pieces():
    for n, rows in ((0, 3), (1, 3), (12, 5), (15, 5), (15, 100)):
        blocks = list(_rng.uniform_blocks(9, (2,), n, 4, rows))
        assert [len(b) for b in blocks] == [min(rows, n - s)
                                            for s in range(0, n, rows)]
        got = np.concatenate(blocks) if blocks else np.empty((0, 4))
        assert np.array_equal(got, _rng.uniform_block(9, (2,), n, 4))


def test_tour_class_table_is_cached_read_only_uint16():
    table = spaces._tour_classes(9)
    assert table.dtype == np.uint16 and table.shape == (math.factorial(9),)
    assert not table.flags.writeable and spaces._tour_classes(9) is table
    with pytest.raises(ValueError):
        table[0] = 1


@pytest.mark.parametrize("k", range(3, 10))
def test_each_tour_class_holds_2k_shuffle_codes(k):
    # so a uniform code gives a uniform class
    counts = np.bincount(spaces._tour_classes(k))
    assert len(counts) == math.factorial(k - 1) // 2
    assert (counts == 2 * k).all()


@pytest.mark.parametrize("k", range(3, 10))
def test_sampled_classes_index_the_canonical_form_of_the_samples(k):
    space = TourSpace(k)
    canonical = np.concatenate(list(space.enumerate_canonical()))
    for seed, path, n in ((0, (), 0), (0, (), 1), (11, (_rng.CERTIFY,), 700),
                          (2**63 + 5, (3, 9), spaces._CLASS_BLOCK + 1)):
        classes = space.sample_classes(seed, n, path)
        assert classes.dtype == np.uint16 and classes.shape == (n,)
        assert np.array_equal(canonical[classes],
                              canonical_form(space.sample(seed, n, path)))


@pytest.mark.parametrize("k", (2, 10, 11))
def test_sample_classes_needs_3_to_9_waypoints(k):
    space = TourSpace(k)
    assert not space.class_sampling
    with pytest.raises(SpaceError, match="3 to 9"):
        space.sample_classes(0, 5)
