"""Exact cover solver against exhaustive subset search."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import grpinv.cover
import grpinv.invariants
from grpinv.cli import parse_spec
from grpinv.corpus import corpus
from grpinv.cover import CoverSolution, make_instance, min_cover, validate_cover
from grpinv.errors import BudgetExceeded, CheckFailed
from grpinv.groups import INFINITE, Cyclic, Product, build, finite
from grpinv.invariants import ic, sigma, sigma_c


def point_masks(sets):
    """Each set of points as the bitmask `make_instance` takes."""
    return [sum(1 << p for p in s) for s in sets]


def exhaustive_min_cover(inst):
    """First covering combination by size then lex order; None if infeasible."""
    n = len(inst.masks)
    full = (1 << inst.universe_size) - 1
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            union = 0
            for c in combo:
                union |= inst.masks[c]
            if union == full:
                return combo
    return None


def reference_make_instance(universe_size, candidate_sets):
    """The earlier quadratic dominance filter: each set is checked against
    the sets kept so far, and evicts the kept sets it contains."""
    masks = [sum(1 << p for p in s) for s in candidate_sets]
    kept = []
    for i, m in enumerate(masks):
        if m == 0:
            continue
        if any(masks[j] | m == masks[j] for j in kept):
            continue  # duplicate or dominated by an already-kept set
        kept = [j for j in kept if masks[j] | m != m]
        kept.append(i)
    kept.sort()
    union = 0
    for j in kept:
        union |= masks[j]
    return tuple(kept), tuple(masks[j] for j in kept), union == (1 << universe_size) - 1


def reference_min_cover(inst):
    """The earlier two-phase solver, unbudgeted: branch and bound for the
    value, then a lexicographic DFS for the certificate."""
    if not inst.feasible:
        return CoverSolution(INFINITE, None)
    masks = inst.masks
    n = len(masks)
    full = (1 << inst.universe_size) - 1
    max_size = max(m.bit_count() for m in masks)
    covered = 0
    greedy = []
    while covered != full:
        best = max(range(n), key=lambda i: ((masks[i] & ~covered).bit_count(), -i))
        greedy.append(best)
        covered |= masks[best]
    best_size = len(greedy)
    point_cands = [
        tuple(i for i in range(n) if masks[i] >> p & 1) for p in range(inst.universe_size)
    ]

    def branch(covered, chosen):
        nonlocal best_size
        if covered == full:
            best_size = min(best_size, chosen)
            return
        uncovered = full & ~covered
        if chosen + (uncovered.bit_count() + max_size - 1) // max_size >= best_size:
            return
        p = min(
            (q for q in range(inst.universe_size) if uncovered >> q & 1),
            key=lambda q: (len(point_cands[q]), q),
        )
        for c in point_cands[p]:
            branch(covered | masks[c], chosen + 1)

    branch(0, 0)
    suffix_or = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]

    def lex_least(start, covered, remaining):
        if covered == full:
            return []
        if remaining == 0:
            return None
        uncovered = full & ~covered
        if uncovered & ~suffix_or[start]:
            return None
        if (uncovered.bit_count() + max_size - 1) // max_size > remaining:
            return None
        for c in range(start, n):
            if masks[c] & uncovered:
                rest = lex_least(c + 1, covered | masks[c], remaining - 1)
                if rest is not None:
                    return [c, *rest]
        return None

    return CoverSolution(finite(best_size), tuple(lex_least(0, 0, best_size)))


def random_instance(rng, max_universe=16, max_candidates=20, max_size=None):
    universe = rng.randint(1, max_universe)
    ncand = rng.randint(1, max_candidates)
    sets = []
    for _ in range(ncand):
        size = rng.randint(1, min(universe, max_size or universe))
        sets.append(frozenset(rng.sample(range(universe), size)))
    return make_instance(universe, point_masks(sets))


def test_worked_example():
    inst = make_instance(3, point_masks([{0, 1}, {1, 2}, {0, 2}]))
    sol = min_cover(inst)
    assert sol.value == finite(2)
    assert [inst.masks[i] for i in sol.certificate] == [0b011, 0b110]


def test_singleton_and_infeasible():
    assert min_cover(make_instance(1, point_masks([{0}]))).value == finite(1)
    sol = min_cover(make_instance(2, point_masks([{0}])))
    assert sol.value == INFINITE and sol.certificate is None


def test_validate_cover_rejects_doctored_solutions():
    inst = make_instance(3, point_masks([{0, 1}, {1, 2}, {0, 2}]))
    sol = min_cover(inst)
    assert validate_cover(inst, sol)
    short = CoverSolution(finite(1), sol.certificate[:1])
    assert not validate_cover(inst, short)
    padded = CoverSolution(finite(3), tuple(range(3)))
    assert not validate_cover(inst, padded)  # any member is redundant
    mislabeled = CoverSolution(finite(3), sol.certificate)
    assert not validate_cover(inst, mislabeled)


def test_duplicate_and_dominated_candidates_removed():
    inst = make_instance(3, point_masks([{0}, {0, 1}, {0, 1}, {2}, set()]))
    assert inst.masks == (0b011, 0b100)
    assert inst.kept == (1, 3)
    sol = min_cover(inst)
    assert sol.value == finite(2)


def test_matches_exhaustive_on_random_instances():
    rng = random.Random(0xC0FFEE)
    for _ in range(120):
        inst = random_instance(rng)
        sol = min_cover(inst)
        oracle = exhaustive_min_cover(inst)
        if oracle is None:
            assert sol.value == INFINITE
        else:
            assert sol.value == finite(len(oracle))
            assert sol.certificate == oracle
            assert validate_cover(inst, sol)


def test_value_invariant_under_candidate_permutation():
    rng = random.Random(1234)
    for _ in range(60):
        inst = random_instance(rng)
        shuffled = list(inst.masks)
        rng.shuffle(shuffled)
        permuted = make_instance(inst.universe_size, shuffled)
        a, b = min_cover(inst), min_cover(permuted)
        assert a.value == b.value
        if a.value.is_finite:
            assert validate_cover(permuted, b)


def test_deterministic():
    rng = random.Random(99)
    for _ in range(20):
        inst = random_instance(rng)
        assert min_cover(inst) == min_cover(inst)


def test_matches_reference_solver_on_larger_instances():
    rng = random.Random(0xB17CA7)
    for i in range(1000):
        # small sets make the counting bound tight and exact partitions common
        max_size = 4 if i % 2 else None
        inst = random_instance(rng, max_universe=24, max_candidates=40, max_size=max_size)
        assert min_cover(inst) == reference_min_cover(inst)


def planted_instance(rng):
    """A partition of the universe into blocks of `size` points, shuffled
    among random sets of at most `size` points.  The universe exceeds three
    blocks, so the optimum is at least 4 and most nodes search for 3 or more
    members; the partition makes the r largest coverages sum to exactly
    what is uncovered."""
    size = rng.choice((2, 3, 4))
    universe = rng.randint(3 * size + 1, 5 * size)
    points = list(range(universe))
    rng.shuffle(points)
    sets = [frozenset(points[i : i + size]) for i in range(0, universe, size)]
    for _ in range(rng.randint(5, 30)):
        sets.append(frozenset(rng.sample(range(universe), rng.randint(1, size))))
    rng.shuffle(sets)
    return make_instance(universe, point_masks(sets))


def test_matches_reference_solver_when_the_optimum_is_at_least_4():
    rng = random.Random(0x4C0FE2)
    for _ in range(400):
        inst = planted_instance(rng)
        sol = min_cover(inst)
        assert sol.value.value >= 4
        assert sol == reference_min_cover(inst)


def test_dominance_filter_matches_quadratic_reference():
    rng = random.Random(0xD0E5)
    for _ in range(1500):
        universe = rng.randint(1, 12)
        sets = []
        for _ in range(rng.randint(0, 30)):
            kind = rng.random() if sets else 0.0
            if kind < 0.1:
                s = set()
            elif kind < 0.4:
                s = set(rng.sample(range(universe), rng.randint(1, universe)))
            elif kind < 0.6:
                s = set(rng.choice(sets))  # duplicate
            elif kind < 0.8:
                base = sorted(rng.choice(sets))  # nested inside an earlier set
                s = set(rng.sample(base, rng.randint(0, len(base))))
            else:
                s = set(rng.choice(sets)) | {rng.randrange(universe)}  # nesting one
            sets.append(frozenset(s))
        inst = make_instance(universe, point_masks(sets))
        assert (inst.kept, inst.masks, inst.feasible) == reference_make_instance(universe, sets)


class _Captured(Exception):
    pass


def _c2_6_into_c2_4(monkeypatch):
    """The cover instance that ic(C2^6, C2^4) hands to min_cover."""
    captured = []

    def capture(inst, node_budget):
        captured.append(inst)
        raise _Captured

    monkeypatch.setattr(grpinv.invariants, "min_cover", capture)
    with pytest.raises(_Captured):
        ic(build(Product((Cyclic(2),) * 6)), build(Product((Cyclic(2),) * 4)))
    (inst,) = captured
    assert (inst.universe_size, len(inst.masks)) == (63, 651)
    return inst


def test_ic_c2_6_into_c2_4_is_pinned(monkeypatch):
    sol = min_cover(_c2_6_into_c2_4(monkeypatch), node_budget=100_000)
    assert sol.value == finite(5)
    assert sol.certificate == (0, 61, 115, 217, 645)


def test_ic_c2_6_into_c2_4_fits_a_small_budget(monkeypatch):
    # with two 4-dimensional subspaces fixed, no subspace left covers more
    # than 12 of the 36 or more lines left, so 3 more cannot finish: the
    # coverage bound rejects each such try at its first node, where the
    # counting bound alone spent 10,259 nodes
    sol = min_cover(_c2_6_into_c2_4(monkeypatch), node_budget=1_000)
    assert sol.value == finite(5)
    assert sol.certificate == (0, 61, 115, 217, 645)


def test_budget_exhaustion_raises():
    inst = make_instance(6, point_masks({i, (i + 1) % 6} for i in range(6)))
    with pytest.raises(BudgetExceeded) as exc:
        min_cover(inst, node_budget=2)
    assert "node budget: optimum is 3, certificate unfinished" in str(exc.value)
    # greedy takes the 4-set first and needs 3; the optimum is the other two
    greedy_misses = make_instance(6, point_masks([{0, 1, 2, 3}, {0, 2, 4}, {1, 3, 5}]))
    with pytest.raises(BudgetExceeded, match=r"budget: optimum in \[2, 3\]"):
        min_cover(greedy_misses, node_budget=1)


def test_failed_counting_probe_raises_the_floor():
    # counting bound 2, greedy 4: the probe rules out a 2-cover in two nodes,
    # so a budget spent in the descent reports the optimum from 3 up
    inst = make_instance(6, point_masks([{0, 1, 2}, {3}, {4}, {5}]))
    with pytest.raises(BudgetExceeded, match=r"budget: optimum in \[2, 4\]"):
        min_cover(inst, node_budget=1)
    with pytest.raises(BudgetExceeded, match=r"budget: optimum in \[3, 4\]"):
        min_cover(inst, node_budget=2)
    assert min_cover(inst) == CoverSolution(finite(4), (0, 1, 2, 3))


def test_points_are_masks_and_iterables_are_folded():
    sets = [{0, 2}, {1}, set(), {0, 1, 2}]
    assert make_instance(3, sets) == make_instance(3, point_masks(sets))
    for bad in ([-1], [0b1000], [{3}], [{-1}]):
        with pytest.raises(ValueError, match="outside universe"):
            make_instance(3, bad)


def shift_closed_instance(rng):
    """Random sets with all their images under the shift p -> p + step
    (mod the universe size), with the shift as the instance's symmetry: it
    permutes the points and the candidates.  Drawn until the sets cover the
    universe."""
    while True:
        universe = rng.randint(2, 18)
        step = rng.choice([d for d in range(1, universe + 1) if universe % d == 0])
        sets = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, min(universe, rng.choice((2, 3, 5))))
            base = rng.sample(range(universe), size)
            for k in range(0, universe, step):
                sets.append({(p + k) % universe for p in base})
        rng.shuffle(sets)
        shift = [(p + step) % universe for p in range(universe)]
        inst = make_instance(universe, point_masks(sets), [shift])
        if inst.feasible:
            return inst


def test_shift_symmetry_matches_the_plain_search_and_reference():
    rng = random.Random(0x0B17)
    for _ in range(600):
        inst = shift_closed_instance(rng)
        sol = min_cover(inst)
        assert sol == min_cover(inst._replace(symmetries=None)) == reference_min_cover(inst)


def dihedral_closed_instance(rng):
    """Random sets with all their images under the rotations and
    reflections of `rings` concentric polygons of `sides` vertices, with
    the rotation and one reflection as the instance's symmetries.  Half the
    sets are made symmetric under the reflection, so that a prefix of the
    certificate pass is often fixed by a reflection that moves later
    candidates.  Drawn until the sets cover the points."""
    while True:
        sides = rng.randint(3, 8)
        rings = rng.randint(1, 3)
        universe = sides * rings
        rotate = tuple(p - p % sides + (p + 1) % sides for p in range(universe))
        reflect = tuple(p - p % sides + -p % sides for p in range(universe))
        sets = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, min(universe, rng.choice((2, 3, 4, 6))))
            base = set(rng.sample(range(universe), size))
            if rng.random() < 0.5:
                base |= {reflect[p] for p in base}
            for image in (base, {reflect[p] for p in base}):
                for _ in range(sides):
                    sets.append(image)
                    image = {rotate[p] for p in image}
        rng.shuffle(sets)
        inst = make_instance(universe, point_masks(sets), [rotate, reflect])
        if inst.feasible:
            return inst


def test_prefix_symmetries_match_the_plain_pass_and_reference(monkeypatch):
    walks = []  # (prefix, limit, the tuples visited)
    orbit = grpinv.cover._Symmetries.orbit

    def recorded(self, start, limit):
        tuples = orbit(self, start, limit)
        walks.append((start[:-1], limit, tuples))
        return tuples

    monkeypatch.setattr(grpinv.cover._Symmetries, "orbit", recorded)
    rng = random.Random(0xD1ED)
    for _ in range(600):
        inst = dihedral_closed_instance(rng)
        sol = min_cover(inst)
        assert sol == min_cover(inst._replace(symmetries=None)) == reference_min_cover(inst)
    # a walk follows a probe that spent more than one node, and visits no
    # more tuples than that probe spent nodes
    assert walks and all(1 < limit and len(tuples) <= limit for _, limit, tuples in walks)
    # a nonempty prefix is fixed by a symmetry that moves the failed probe
    assert sum(
        any(t[:-1] == prefix and t[-1] != tuples[0][-1] for t in tuples)
        for prefix, _, tuples in walks
        if prefix
    ) >= 5


def test_a_symmetry_that_leaves_the_candidates_raises():
    # the chords {i, i+3} of an octagon, which the rotation permutes: the
    # probe through candidates 0 and 2 fails after two nodes, and so the
    # pass walks the orbit of (0, 2)
    chords = [{0, 3}, {0, 5}, {1, 4}, {1, 6}, {2, 5}, {2, 7}, {3, 6}, {4, 7}]
    rotate = [(p + 1) % 8 for p in range(8)]
    inst = make_instance(8, point_masks(chords), symmetries=[rotate])
    assert min_cover(inst) == reference_min_cover(inst)
    swap = (1, 0, *range(2, 8))  # {0, 3} -> {1, 3}, no candidate
    with pytest.raises(CheckFailed, match="onto no candidate"):
        min_cover(inst._replace(symmetries=(swap,)))
    with pytest.raises(CheckFailed, match="not a permutation"):
        min_cover(inst._replace(symmetries=((0,) * 8,)))


def test_symmetries_are_checked_before_the_weights_read_them():
    # counting bound 2, greedy 4: the weights read the symmetries before
    # any orbit walk does, so a bad one must be refused before them
    inst = make_instance(6, point_masks([{0, 1, 2}, {3}, {4}, {5}]), [(1, 2, 0, 4, 5, 3)])
    assert min_cover(inst) == CoverSolution(finite(4), (0, 1, 2, 3))
    for bad in ((0,) * 6, (1, 2, 0, 4, 5, 3, 6), (1, 2, 0, 4, 5)):
        with pytest.raises(CheckFailed, match="not a permutation"):
            min_cover(inst._replace(symmetries=(bad,)))


def counting_bound(inst):
    return -(-inst.universe_size // max(m.bit_count() for m in inst.masks))


def two_cycle_instance(rng):
    """Random sets with all their images under one shift that turns two
    cycles of points at once, of lengths a and b, with the shift as the
    instance's symmetry: the two cycles are its point orbits.  Drawn until
    the sets cover the points and the counting bound is below the
    optimum."""
    while True:
        a, b = rng.randint(1, 6), rng.randint(2, 6)
        universe = a + b
        shift = [(p + 1) % a for p in range(a)] + [a + (p + 1) % b for p in range(b)]
        sets = []
        for _ in range(rng.randint(1, 4)):
            image = set(rng.sample(range(universe), rng.randint(1, min(universe, 3))))
            for _ in range(math.lcm(a, b)):
                sets.append(image)
                image = {shift[p] for p in image}
        rng.shuffle(sets)
        inst = make_instance(universe, point_masks(sets), [shift])
        if inst.feasible and reference_min_cover(inst).value.value > counting_bound(inst):
            return inst


def test_orbit_weights_match_the_plain_search_and_reference(monkeypatch):
    above = []  # per solve, whether ceil(tau*) is above the counting bound
    real = grpinv.cover._orbit_weights

    def counted(inst):
        weights, scale = real(inst)
        tau = sum(w * o.bit_count() for o, w in weights)
        above.append(tau > counting_bound(inst) * scale)
        return weights, scale

    monkeypatch.setattr(grpinv.cover, "_orbit_weights", counted)
    rng = random.Random(0x2C1C)
    for _ in range(150):
        inst = two_cycle_instance(rng)
        sol = min_cover(inst)
        assert sol == min_cover(inst._replace(symmetries=None)) == reference_min_cover(inst)
    # every instance solves the LP, and on most the weights lift the bound
    assert len(above) == 150 and sum(above) > 100


def _fractional_dual_reference(sizes, profiles):
    """max sum(sizes[k] * y[k]) subject to y >= 0 and sum(cnt[k] * y[k]) <= 1
    for every profile, over the vertices: every choice of K tight
    constraints, solved in fractions."""
    k = len(sizes)
    rows = [(tuple(int(j == i) for j in range(k)), 0) for i in range(k)]  # y_i >= 0
    rows += [(cnt, 1) for cnt in profiles]
    best = None
    for tight in itertools.combinations(rows, k):
        a = [[Fraction(x) for x in cnt] + [Fraction(rhs)] for cnt, rhs in tight]
        for col in range(k):
            piv = next((i for i in range(col, k) if a[i][col]), None)
            if piv is None:
                break
            a[col], a[piv] = a[piv], a[col]
            for i in range(k):
                if i != col and a[i][col]:
                    f = a[i][col] / a[col][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[col])]
        else:
            y = [a[i][k] / a[i][i] for i in range(k)]
            if min(y) >= 0 and all(sum(c * v for c, v in zip(cnt, y)) <= 1 for cnt in profiles):
                value = sum(s * v for s, v in zip(sizes, y))
                best = value if best is None else max(best, value)
    return best


def test_fractional_dual_is_exact_and_optimal():
    rng = random.Random(0x7A05)
    for _ in range(300):
        k = rng.randint(1, 3)
        sizes = [rng.randint(1, 12) for _ in range(k)]
        profiles = [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(rng.randint(1, 6))]
        profiles += [tuple(int(j == i) for j in range(k)) for i in range(k)]  # bounded
        weights, scale = grpinv.cover._fractional_dual(sizes, profiles)
        assert scale >= 1 and min(weights) >= 0
        assert all(sum(map(int.__mul__, weights, cnt)) <= scale for cnt in profiles)
        value = Fraction(sum(map(int.__mul__, sizes, weights)), scale)
        assert value == _fractional_dual_reference(sizes, profiles)


def test_an_orbit_weight_one_unit_too_heavy_raises(monkeypatch):
    inst = make_instance(6, point_masks([{0, 1, 2}, {3}, {4}, {5}]), [(1, 2, 0, 4, 5, 3)])
    real = grpinv.cover._fractional_dual
    weights, scale = real([3, 3], [(3, 0), (0, 1)])
    assert (weights, scale) == ([1, 3], 3)  # tau* = 4, the optimum

    def heavy(sizes, profiles):
        weights, scale = real(sizes, profiles)
        weights[weights.index(max(weights))] += 1
        return weights, scale

    monkeypatch.setattr(grpinv.cover, "_fractional_dual", heavy)
    with pytest.raises(CheckFailed, match="above weight 1"):
        min_cover(inst)


def _captured_instances(monkeypatch, queries):
    """The cover instances that the invariant queries hand to min_cover."""
    captured = []
    real = grpinv.invariants.min_cover

    def capture(inst, node_budget):
        captured.append(inst)
        return real(inst, node_budget)

    monkeypatch.setattr(grpinv.invariants, "min_cover", capture)
    for query in queries:
        query()
    return captured


COVER_PAIRS = (
    ("C2^6", "C2^4"), ("C2^4xC4", "C2^2xC4"), ("C2^2xC4^2", "C4^2"), ("C2^5", "C2^3"),
    ("C3^4", "C3^2"), ("C2^3xC4", "C4xC2"), ("C5^3", "C5"),
)


@pytest.fixture(scope="module")
def automorphism_instances():
    """The instances of sigma, sigma_c and IC over corpus(12), and of the
    `cover` benchmark's pairs, with the automorphisms as symmetries (none
    for sigma_c, whose candidates are its points)."""
    groups = [e.group for e in corpus(12)]
    queries = [lambda g=g: sigma(g) for g in groups]
    queries += [lambda g=g: sigma_c(g) for g in groups]
    queries += [lambda g=g, h=h: ic(g, h) for g in groups for h in groups]
    queries += [
        lambda a=a, b=b: ic(build(parse_spec(a)), build(parse_spec(b))) for a, b in COVER_PAIRS
    ]
    with pytest.MonkeyPatch.context() as mp:
        captured = _captured_instances(mp, queries)
    assert len(captured) > 50
    return captured


def test_automorphisms_leave_every_solution_unchanged(automorphism_instances):
    for inst in automorphism_instances:
        assert inst.symmetries is not None
        sol = min_cover(inst)
        assert sol == min_cover(inst._replace(symmetries=None)) == reference_min_cover(inst)


def test_orbit_weights_pass_the_gate_and_bound_the_optimum(automorphism_instances):
    # rechecked here without the gate's code: no kept candidate weighs
    # more than D, so r members cover weight at most r * D, and so
    # ceil(tau*) <= the optimum
    several = 0
    for inst in automorphism_instances:
        if not inst.feasible:
            continue
        weights, scale = grpinv.cover._orbit_weights(inst)
        assert scale >= 1 and all(w > 0 for _, w in weights)
        for m in inst.masks:
            assert sum(w * (m & o).bit_count() for o, w in weights) <= scale
        tau = sum(w * o.bit_count() for o, w in weights)
        assert tau <= min_cover(inst).value.value * scale
        several += bool(weights)
    assert several > 20


@pytest.mark.parametrize(
    "g, h, nodes",
    [
        ("C2^2xC4^2", "C4^2", 2_000),
        ("C2^2xC4^2", "C4^2", 600),
        # the counting bound is 6 and the optimum 8; without the weights
        # every budget from 20 to 40 ends in "optimum in [7, 8]"
        ("C2^2xC4^2", "C4^2", 40),
        ("C2^3xC4", "C4xC2", 300),
    ],
)
def test_orbit_pruning_fits_ic_in_a_small_budget(g, h, nodes):
    # a failed probe ruling out its images under the automorphisms that fix
    # its prefix, at the root of the value searches and in the certificate
    # pass, the greedy cover as the certificate's first witness, and the
    # fractional-cover weights on the point orbits: 19 and 187 nodes
    # (test_symmetries_alone_prune_the_root)
    assert ic(build(parse_spec(g)), build(parse_spec(h)), node_budget=nodes).value.is_finite


@pytest.mark.parametrize(
    "g, h, nodes", [("C2^2xC4^2", "C4^2", 600), ("C2^3xC4", "C4xC2", 300)]
)
def test_symmetries_alone_prune_the_root(monkeypatch, g, h, nodes):
    # without the symmetries no failed probe rules out its images, at the
    # root of a value search or in the certificate pass, and there are no
    # point orbits to weigh: 3,481 and 1,426 nodes, against 19 and 187 with
    # them
    g, h = build(parse_spec(g)), build(parse_spec(h))
    (inst,) = _captured_instances(monkeypatch, [lambda: ic(g, h)])
    assert min_cover(inst, node_budget=nodes) == reference_min_cover(inst)
    with pytest.raises(BudgetExceeded):
        min_cover(inst._replace(symmetries=None), node_budget=nodes)


def test_greedy_witness_gives_way_to_a_smaller_first_member():
    # greedy takes 2 (5 points) and then 3, an optimal cover; but 0 and 1
    # also cover, so the lexicographic pass searches through 0, finds 1, and
    # takes it from that search's cover
    inst = make_instance(
        8, point_masks([{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 4, 5}, {3, 6, 7}])
    )
    sol = min_cover(inst)
    assert sol == reference_min_cover(inst) == CoverSolution(finite(2), (0, 1))
    # one node rules out a 1-cover, one searches through 0, and one takes 1
    assert min_cover(inst, node_budget=3) == sol
    with pytest.raises(BudgetExceeded, match="optimum is 2, certificate unfinished"):
        min_cover(inst, node_budget=2)
