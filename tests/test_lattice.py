"""Subgroup enumeration against brute-force subset filtering, closed-form
subgroup counts, and a naive closure."""

import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpinv import iso, lattice
from grpinv.corpus import corpus
from grpinv.errors import BudgetExceeded
from grpinv.groups import (
    INFINITE,
    Cyclic,
    Dihedral,
    HARD_MAX_ORDER,
    GeneralizedQuaternion,
    PermGroup,
    Product,
    SemidirectPQ,
    _bits,
    _finalize,
    build,
    finite,
)
from grpinv.lattice import (
    Subgroup,
    _hom_from_images,
    _join,
    _maximal_orbits,
    all_proper_subgroups_cyclic,
    all_subgroups,
    as_group,
    automorphisms,
    closure,
    cyclic_subgroups,
    make_subgroup,
    maximal_cyclic_subgroups,
    maximal_filter,
    split_generators,
    totient_cover_bound,
)
from test_store import _relabelled

S4 = PermGroup((((1, 2, 3, 4),), ((1, 2),)))
A5 = PermGroup((((1, 2, 3),), ((3, 4, 5),)))
S5 = PermGroup((((1, 2, 3, 4, 5),), ((1, 2),)))
A6 = PermGroup((((1, 2, 3),), ((2, 3, 4, 5, 6),)))
S6 = PermGroup((((1, 2, 3, 4, 5, 6),), ((1, 2),)))


def brute_force_subgroup_masks(g):
    """Every subset containing the identity that is operation-closed."""
    n = g.order
    table = g.table
    masks = set()
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:
        pool = [a for a in range(1, n) if d % g.elem_order[a] == 0]
        for comb in itertools.combinations(pool, d - 1):
            s = frozenset((0,) + comb)
            closed = True
            for a in s:
                row = table[a]
                for b in s:
                    if row[b] not in s:
                        closed = False
                        break
                if not closed:
                    break
            if closed:
                masks.add(sum(1 << e for e in s))
    return masks


def test_cyclic_subgroup_counts():
    assert len(cyclic_subgroups(build(Cyclic(4)))) == 3
    assert len(cyclic_subgroups(build(Product((Cyclic(2),) * 2)))) == 4
    q8 = cyclic_subgroups(build(GeneralizedQuaternion(8)))
    assert [s.order for s in q8] == [1, 2, 4, 4, 4]


def test_all_subgroups_counts():
    assert len(all_subgroups(build(Cyclic(12))).all) == 6
    assert len(all_subgroups(build(Product((Cyclic(2),) * 2))).all) == 5
    d5 = all_subgroups(build(Dihedral(5)))
    assert sorted(s.order for s in d5.all) == [1, 2, 2, 2, 2, 2, 5, 10]


@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(12),
        Product((Cyclic(2),) * 2),
        Dihedral(3),
        Dihedral(4),
        GeneralizedQuaternion(8),
        SemidirectPQ(7, 3),
        Product((Cyclic(2), Cyclic(8))),
        GeneralizedQuaternion(16),
        Product((Cyclic(2),) * 4),
    ],
)
def test_lattice_matches_brute_force(spec):
    g = build(spec)
    lat = all_subgroups(g)
    assert {s.mask for s in lat.all} == brute_force_subgroup_masks(g)


def naive_closure_members(table, seed):
    """Fixpoint closure: every popped element is multiplied (both ways) with
    everything present at pop time; later arrivals pick up the missing pairs
    when they pop."""
    elems = set(seed)
    elems.add(0)
    queue = list(elems)
    while queue:
        a = queue.pop()
        row = table[a]
        for b in list(elems):
            for c in (row[b], table[b][a]):
                if c not in elems:
                    elems.add(c)
                    queue.append(c)
    return elems


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def divisor_sum(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize(
    "spec,count",
    [
        (S4, 30),
        (A5, 59),
        (S5, 156),
        (A6, 501),
        (S6, 1455),
        # D_n has tau(n) rotation subgroups and sigma(n) others
        *((Dihedral(n), divisor_count(n) + divisor_sum(n)) for n in (12, 24, 48)),
    ],
    ids=["S4", "A5", "S5", "A6", "S6", "D12", "D24", "D48"],
)
def test_subgroup_counts_match_closed_forms(spec, count):
    assert len(all_subgroups(build(spec, max_order=HARD_MAX_ORDER)).all) == count


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "p,n,count",
    [(2, 5, 374), (2, 6, 2825), (3, 4, 212), (5, 3, 64), (2, 7, 29212)],
    ids=["C2^5", "C2^6", "C3^4", "C5^3", "C2^7"],
)
def test_elementary_abelian_subgroup_counts(p, n, count):
    # the subgroups of C_p^n are the subspaces of GF(p)^n
    assert sum(gaussian_binomial(n, k, p) for k in range(n + 1)) == count
    assert len(all_subgroups(build(Product((Cyclic(p),) * n))).all) == count


def reference_all_subgroups(g):
    """The join loop without the skips by prime index and by conjugate
    atoms, the automorphism orbits or the early exit of `_join`: every
    subgroup is joined with every cyclic atom it does not contain, and each
    join is closed in full.  Returns every subgroup and the maximal proper
    ones, and the masks of each subgroup's joins by its mask; the reference
    records no orbits."""
    cyclics = cyclic_subgroups(g)
    atoms = [
        (c.mask, next(a for a in c.members if g.elem_order[a] == c.order))
        for c in cyclics
        if c.order > 1
    ]
    known = {c.mask: c for c in cyclics}
    gens = {mask: [a] for mask, a in atoms}
    gens[1] = []
    joins = {}
    frontier = list(cyclics)
    while frontier:
        fresh = []
        for s in frontier:
            joins[s.mask] = set()
            for cmask, c in atoms:
                if cmask & ~s.mask == 0:
                    continue
                members, mask, jgens = _join(g.table, s.members, s.mask, gens[s.mask], c)
                joins[s.mask].add(mask)
                if mask not in known:
                    known[mask] = make_subgroup(g, members)
                    gens[mask] = jgens
                    fresh.append(known[mask])
        frontier = fresh
    ordered = sorted(known.values(), key=Subgroup.sort_key)
    proper = [s for s in ordered if s.is_proper]
    return tuple(ordered), tuple(maximal_filter(proper)), joins


@pytest.mark.parametrize(
    "spec",
    [
        S4,
        Dihedral(12),
        Product((GeneralizedQuaternion(8), Product((Cyclic(2),) * 2))),
        Product((Cyclic(2),) * 5),
        Product((Cyclic(3),) * 3),
        Product((Product((Cyclic(2),) * 2), Cyclic(4))),
        A5,
        S5,
        Dihedral(24),
        Dihedral(48),
        Product((SemidirectPQ(7, 3), Cyclic(3))),
        Product((Dihedral(5), Product((Cyclic(2),) * 2))),
        Product((Dihedral(3), Dihedral(3))),
        Product((S4, Cyclic(2))),
        Product((Product((Cyclic(2),) * 4), Cyclic(4))),
        # abelian groups, and groups with outer automorphisms
        Product((Cyclic(3),) * 4),
        Product((Cyclic(4),) * 3),
        Product((Cyclic(5),) * 3),
        Product((Product((Cyclic(2),) * 2), Product((Cyclic(4),) * 2))),
        Product((Product((Cyclic(3),) * 3), Cyclic(2))),
        Product((Dihedral(4), Dihedral(4))),
        Product((GeneralizedQuaternion(8), GeneralizedQuaternion(8))),
        Product((Cyclic(2),) * 6),
    ],
    ids=[
        "S4", "D12", "Q8xC2^2", "C2^5", "C3^3", "C2^2xC4", "A5", "S5", "D24", "D48",
        "SD(7,3)xC3", "D5xC2^2", "D3xD3", "S4xC2", "C2^4xC4",
        "C3^4", "C4^3", "C5^3", "C2^2xC4^2", "C3^3xC2", "D4xD4", "Q8xQ8", "C2^6",
    ],
)
def test_prime_index_skip_matches_unskipped_joins(spec):
    g = build(spec)
    lat = all_subgroups(g)
    *strata, joins = reference_all_subgroups(g)
    assert lat[:2] == tuple(strata)
    # the skipped atoms give joins found already: each representative
    # records the distinct joins with every atom outside it
    for rep, found in lat.joins.items():
        assert len(found) == len(joins[rep])
        assert set(found) == joins[rep]


@pytest.mark.parametrize("spec, calls", [(S5, 317), (S6, 3700)], ids=["S5", "S6"])
def test_conjugate_atoms_are_joined_once(spec, calls, monkeypatch):
    # S v <t c t^-1> = S v <c> for t in S, so a representative joins one atom
    # of each class under conjugation by S: 868 joins for S5 and 17,670 for
    # S6 without that rule; the count includes those of `split_generators`
    g = build(spec, max_order=HARD_MAX_ORDER)
    made = itertools.count()

    def counting(*args):
        next(made)
        return _join(*args)

    monkeypatch.setattr(lattice, "_join", counting)
    lat = all_subgroups.__wrapped__(g)
    assert next(made) == calls
    assert lat == all_subgroups(g)


@pytest.mark.parametrize(
    "spec",
    [
        S4,
        A5,
        Dihedral(12),
        Product((Cyclic(2),) * 5),
        Product((Cyclic(4),) * 3),
        Product((Product((Cyclic(3),) * 3), Cyclic(2))),
        Product((Product((Cyclic(2),) * 4), Cyclic(4))),
        Product((Dihedral(4), Dihedral(4))),
        Product((GeneralizedQuaternion(8), GeneralizedQuaternion(8))),
    ],
    ids=["S4", "A5", "D12", "C2^5", "C4^3", "C3^3xC2", "C2^4xC4", "D4xD4", "Q8xQ8"],
)
def test_automorphisms_pass_the_embedding_check(spec):
    g = build(spec)
    maps = automorphisms(g, split_generators(g))
    assert maps
    assert len({tuple(phi) for phi in maps}) == len(maps)
    for phi in maps:
        assert phi != list(range(g.order))
        assert iso.is_embedding(g, g, tuple(phi))


def reference_greedy_generators(g):
    """Repeatedly adjoin a highest-order element outside the span so far
    (ties by index), closing over the members gathered so far plus the new
    element: the generators that `split_generators` falls back to."""
    gens = []
    covered = closure(g, [0])
    while covered.order < g.order:
        best = min(
            (a for a in range(g.order) if not covered.mask >> a & 1),
            key=lambda a: (-g.elem_order[a], a),
        )
        gens.append(best)
        covered = closure(g, set(covered.members) | {best})
    return gens


def test_candidate_maps_that_are_not_homomorphisms_are_dropped():
    # D4 x D4's greedy generators all have order 4, and no shift, swap or
    # transvection of them extends to a homomorphism
    g = build(Product((Dihedral(4), Dihedral(4))))
    t, inverse = g.table, g.inverse
    gens = reference_greedy_generators(g)
    g0, g1, *rest = gens
    for images in (
        [*gens[1:], g0],
        [g1, g0, *rest],
        [t[g0][g1], g1, *rest],
        [g0, t[g1][g0], *rest],
    ):
        assert _hom_from_images(t, t, gens, images) is None
    # its split generators have orders 4, 4, 2, 2: b' -> b'*b is an outer
    # automorphism, which leaves b' -> b'*b^2, one of its powers, untried,
    # and the in-block maps and b -> b*b' are no homomorphisms; one
    # conjugation is the outer map's square, and is dropped as such
    b, b1, c, c1 = gens = split_generators(g)
    assert [g.elem_order[x] for x in gens] == [4, 4, 2, 2]
    conjugations = {tuple(t[t[inverse[s]][x]][s] for x in range(g.order)) for s in gens}
    outer = tuple(_hom_from_images(t, t, gens, [b, b1, t[c][b], c1]))
    assert outer not in conjugations
    square = tuple(outer[x] for x in outer)
    assert square in conjugations
    assert {tuple(phi) for phi in automorphisms(g, gens)} == conjugations - {square} | {outer}
    # a map that is a homomorphism but not injective is dropped too
    c4 = build(Cyclic(4))
    assert _hom_from_images(c4.table, c4.table, reference_greedy_generators(c4), [2]) is None


@pytest.mark.parametrize(
    "spec, maps, orbits",
    [
        (Product((Cyclic(2),) * 5), 2, 6),
        (Product((Product((Cyclic(2),) * 2), Product((Cyclic(4),) * 2))), 6, 18),
        (Product((Cyclic(2), Cyclic(4), Cyclic(8))), 4, 27),
        (Product((Dihedral(4), Dihedral(4))), 4, 141),
    ],
    ids=["C2^5", "C2^2xC4^2", "C2xC4xC8", "D4xD4"],
)
def test_split_generator_maps_merge_orbits(spec, maps, orbits):
    # on greedy generators C2^2 x C4^2 kept one map (149 orbits), C2 x C4 x
    # C8 none (81) and D4 x D4 only conjugations (214); C2^5 had four maps.
    # D4 x D4 kept a fifth map, the square of another, until squares of kept
    # maps were dropped
    g = build(spec)
    assert len(automorphisms(g, split_generators(g))) == maps
    assert len(set(all_subgroups(g).orbit.values())) == orbits


def test_split_generators_fall_back_to_greedy_ones():
    # a basis, orders descending, on abelian p-groups
    g = build(Product((Cyclic(2), Cyclic(4), Cyclic(8))))
    gens = split_generators(g)
    assert [g.elem_order[x] for x in gens] == [8, 4, 2]
    assert closure(g, gens).order == g.order
    # Q8: every cyclic subgroup meets <i> in {1, -1}
    q8 = build(GeneralizedQuaternion(8))
    assert split_generators(q8) == reference_greedy_generators(q8)


def test_automorphisms_of_c2_5_leave_one_orbit_per_order():
    # the maps generate GL(5, 2), which is transitive on the subspaces of
    # each dimension
    g = build(Product((Cyclic(2),) * 5))
    maps = automorphisms(g, split_generators(g))
    seen: set[int] = set()
    orbits = []
    for s in all_subgroups(g).all:
        if s.mask in seen:
            continue
        orbits.append(s.order)
        seen.add(s.mask)
        stack = [s.mask]
        while stack:
            elems = list(_bits(stack.pop()))
            for phi in maps:
                x = sum(1 << phi[a] for a in elems)
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
    assert orbits == [1, 2, 4, 8, 16, 32]


ORBIT_GROUPS = {
    "S4": S4,
    "D12": Dihedral(12),
    "Q8xC2^2": Product((GeneralizedQuaternion(8), Product((Cyclic(2),) * 2))),
    "C2^5": Product((Cyclic(2),) * 5),
    "C3^3": Product((Cyclic(3),) * 3),
    "C2^2xC4": Product((Product((Cyclic(2),) * 2), Cyclic(4))),
    "A5": A5,
    "S5": S5,
    "D24": Dihedral(24),
    "D48": Dihedral(48),
    "SD(7,3)xC3": Product((SemidirectPQ(7, 3), Cyclic(3))),
    "D5xC2^2": Product((Dihedral(5), Product((Cyclic(2),) * 2))),
    "D3xD3": Product((Dihedral(3), Dihedral(3))),
    "S4xC2": Product((S4, Cyclic(2))),
    "C2^4xC4": Product((Product((Cyclic(2),) * 4), Cyclic(4))),
    "C3^4": Product((Cyclic(3),) * 4),
    "C4^3": Product((Cyclic(4),) * 3),
    "C5^3": Product((Cyclic(5),) * 3),
    "C2^2xC4^2": Product((Product((Cyclic(2),) * 2), Product((Cyclic(4),) * 2))),
    "C3^3xC2": Product((Product((Cyclic(3),) * 3), Cyclic(2))),
    "D4xD4": Product((Dihedral(4), Dihedral(4))),
    "Q8xQ8": Product((GeneralizedQuaternion(8), GeneralizedQuaternion(8))),
    "C2xC4xC8": Product((Cyclic(2), Cyclic(4), Cyclic(8))),
    "C2^7": Product((Cyclic(2),) * 7),
    "S6": S6,
}


@pytest.mark.parametrize("spec", ORBIT_GROUPS.values(), ids=ORBIT_GROUPS.keys())
def test_dropping_squares_leaves_the_lattice(spec, monkeypatch):
    # a dropped map is a power of a kept one, so the maps generate the same
    # group and the orbits, and so the lattice record, are unchanged but for
    # the maps it keeps
    g = build(spec, max_order=HARD_MAX_ORDER)
    lat = all_subgroups(g)
    monkeypatch.setattr(lattice, "_drop_squares", lambda maps: list(maps.values()))
    undropped = all_subgroups.__wrapped__(g)
    assert undropped._replace(automorphisms=()) == lat._replace(automorphisms=())
    assert set(lat.automorphisms) <= set(undropped.automorphisms)


def test_dihedral_groups_keep_no_square():
    # conjugation by the rotation r is the square of s -> s*r: D48 keeps
    # s -> s*r and conjugation by s, and was keeping all three
    g = build(Dihedral(48))
    maps = automorphisms(g, split_generators(g))
    assert len(maps) == 2
    squares = {tuple(phi[x] for x in phi) for phi in maps}
    assert not squares & {tuple(phi) for phi in maps}


@pytest.mark.parametrize("spec", ORBIT_GROUPS.values(), ids=ORBIT_GROUPS.keys())
def test_every_subgroup_records_a_representative_of_its_orbit(spec):
    g = build(spec, max_order=HARD_MAX_ORDER)
    lat = all_subgroups(g)
    order = {s.mask: s.order for s in lat.all}
    assert lat.orbit.keys() == order.keys()
    for mask, rep in lat.orbit.items():
        assert lat.orbit[rep] == rep
        assert order[rep] == order[mask]
    # the orbits are closed under the maps that generated them
    for phi in automorphisms(g, split_generators(g)):
        for mask, rep in lat.orbit.items():
            assert lat.orbit[sum(1 << phi[a] for a in _bits(mask))] == rep
    if len(lat.all) <= 400:
        by_mask = {s.mask: s for s in lat.all}
        for s in lat.all:
            rep = by_mask[lat.orbit[s.mask]]
            assert iso.are_isomorphic(as_group(g, s), as_group(g, rep)) is not None


@pytest.mark.parametrize("spec", ORBIT_GROUPS.values(), ids=ORBIT_GROUPS.keys())
def test_recorded_joins_are_complete(spec):
    # every subgroup T strictly above a representative S holds one of S's
    # recorded joins, which `ic` and the strata rely on; and each recorded
    # join is a subgroup strictly above S
    g = build(spec, max_order=HARD_MAX_ORDER)
    lat = all_subgroups(g)
    assert lat.joins.keys() == set(lat.orbit.values())
    masks = {s.mask for s in lat.all}
    for rep, joins in lat.joins.items():
        assert all(j in masks and j & rep == rep != j for j in joins)
        for t in masks:
            if t & rep == rep != t:
                assert any(j & t == j for j in joins)


def test_strata_match_the_maximal_filter():
    # the maximal subgroups come from the recorded joins, one verdict per
    # orbit, and the maximal cyclic ones from the cyclic subgroups alone;
    # the filter over every subgroup is the reference
    checked = 0
    for name, spec in ORBIT_GROUPS.items():
        g = build(spec, max_order=HARD_MAX_ORDER)
        lat = all_subgroups(g)
        if len(lat.all) <= 400:
            checked += 1
            proper = maximal_filter(s for s in lat.all if s.is_proper)
            cyclic = maximal_filter(s for s in lat.all if s.is_cyclic)
            assert lat.maximal_subgroups == tuple(proper), name
            assert maximal_cyclic_subgroups(g) == cyclic, name
    assert checked == len(ORBIT_GROUPS) - 3  # all but C2^7, S6 and C2^4 x C4


def test_maximal_orbits_asks_each_orbit_once_and_matches_the_filter():
    # families the code does not use, each closed under subgroups and
    # automorphisms: order at most k, for every k, and abelian
    checked = 0
    for name, spec in ORBIT_GROUPS.items():
        g = build(spec, max_order=HARD_MAX_ORDER)
        lat = all_subgroups(g)
        if len(lat.all) > 400:
            continue
        checked += 1
        by_mask = {s.mask: s for s in lat.all}
        orders = {s.order for s in lat.all}
        families = {f"order <= {k}": (lambda s, k=k: s.order <= k) for k in orders}
        families["abelian"] = lambda s: as_group(g, s).is_abelian
        for family, admissible in families.items():
            asked = []

            def ask(s):
                asked.append(s.mask)
                return admissible(s)

            got = _maximal_orbits(lat.all, lat.orbit, lat.joins, ask)
            assert got == maximal_filter(s for s in lat.all if admissible(s)), (name, family)
            # asked once of each representative with no admissible join, and
            # of nothing else
            unshadowed = [
                r for r in lat.joins if not any(admissible(by_mask[j]) for j in lat.joins[r])
            ]
            assert sorted(asked) == sorted(unshadowed), (name, family)
    assert checked == len(ORBIT_GROUPS) - 3  # all but C2^7, S6 and C2^4 x C4


RELABEL_GROUPS = tuple(
    build(spec)
    for spec in (
        Product((Cyclic(2),) * 4),
        Product((Product((Cyclic(2),) * 2), Cyclic(4))),
        Product((GeneralizedQuaternion(8), Cyclic(2))),
        Dihedral(4),
        S4,
    )
)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_lattice_of_a_relabelled_table_is_the_relabelled_lattice(data):
    # the split generators, and so the automorphisms the lattice uses,
    # depend on the labels; the lattice itself must not
    g = data.draw(st.sampled_from(RELABEL_GROUPS))
    perm = (0, *data.draw(st.permutations(range(1, g.order))))
    k = _finalize(f"{g.label}'", _relabelled(g.table, perm))

    def image(subgroups):
        return {
            (sum(1 << perm[a] for a in _bits(s.mask)), s.order, s.is_cyclic)
            for s in subgroups
        }

    def own(subgroups):
        return {(s.mask, s.order, s.is_cyclic) for s in subgroups}

    # the orbit partition follows the split generators, and so the labels:
    # only the subgroups, the maximal ones and the maximal cyclic ones are
    # compared
    lat, relat = all_subgroups(g), all_subgroups(k)
    parts = (*lat[:2], maximal_cyclic_subgroups(g))
    reparts = (*relat[:2], maximal_cyclic_subgroups(k))
    for part, repart in zip(parts, reparts):
        assert own(repart) == image(part)
        assert len(repart) == len(part)


CLOSURE_GROUPS = tuple(
    build(spec)
    for spec in (Dihedral(6), GeneralizedQuaternion(16), S4, Product((Cyclic(2),) * 4))
)


@settings(deadline=None)
@given(st.data())
def test_closure_matches_naive_fixpoint(data):
    g = data.draw(st.sampled_from(CLOSURE_GROUPS))
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    expected = make_subgroup(g, naive_closure_members(g.table, seed))
    assert closure(g, seed) == expected


def test_every_subgroup_is_closed_independently():
    specs = (
        Dihedral(6),
        GeneralizedQuaternion(16),
        Product((Cyclic(3),) * 2),
        S4,
        Product((Dihedral(5), Product((Cyclic(2),) * 2))),
    )
    for spec in specs:
        g = build(spec)
        for s in all_subgroups(g).all:
            assert 0 in s.members
            for a in s.members:
                assert g.inverse[a] in s.members
                for b in s.members:
                    assert g.table[a][b] in s.members


def test_canonical_order_is_stable():
    g = build(Dihedral(6))
    lat = all_subgroups(g)
    keys = [(s.order, s.mask) for s in lat.all]
    assert keys == sorted(keys)


def test_closure_examples():
    c2c2 = build(Product((Cyclic(2),) * 2))
    assert closure(c2c2, {0}).order == 1
    assert closure(c2c2, {1, 2}).order == 4
    c12 = build(Cyclic(12))
    order4 = next(a for a in range(12) if c12.elem_order[a] == 4)
    order6 = next(a for a in range(12) if c12.elem_order[a] == 6)
    assert closure(c12, {order4, order6}).order == 12


def test_maximal_filter_chain():
    c8 = build(Cyclic(8))
    lat = all_subgroups(c8)
    chain = [s for s in lat.all if s.order in (1, 2, 4)]
    kept = maximal_filter(chain)
    assert [s.order for s in kept] == [4]


def test_maximal_filter_examples():
    c2c2 = build(Product((Cyclic(2),) * 2))
    proper = [s for s in all_subgroups(c2c2).all if s.is_proper]
    assert [s.order for s in maximal_filter(proper)] == [2, 2, 2]
    q8 = build(GeneralizedQuaternion(8))
    top = maximal_filter(cyclic_subgroups(q8))
    assert [s.order for s in top] == [4, 4, 4]


def pth_power_maximal_cyclic_masks(g):
    """The masks of the <x> that no generator of which is y^p for a prime p
    dividing ord(y): the maximal cyclic subgroups, since a proper subgroup
    of <y> of order m is generated by (y^k)^p for a prime p dividing
    ord(y)/m and k = ord(y)/(p*m), where p divides ord(y^k) = p*m."""
    table, order = g.table, g.elem_order
    powers = set()
    for y in range(g.order):
        for p in range(2, order[y] + 1):
            if order[y] % p == 0 and all(p % q for q in range(2, p)):
                x = y
                for _ in range(p - 1):
                    x = table[x][y]
                powers.add(x)
    masks = set()
    for s in cyclic_subgroups(g):
        gens = [x for x in _bits(s.mask) if order[x] == s.order]
        if powers.isdisjoint(gens):
            masks.add(s.mask)
    return masks


def test_maximal_cyclic_subgroups_match_the_pth_power_rule():
    groups = [e.group for e in corpus(64)]
    groups += [build(S6, max_order=HARD_MAX_ORDER), build(Product((Cyclic(2),) * 8), max_order=256)]
    for g in groups:
        got = maximal_cyclic_subgroups(g)
        assert got == sorted(got, key=Subgroup.sort_key), g.label
        assert {s.mask for s in got} == pth_power_maximal_cyclic_masks(g), g.label
        assert all(s.is_cyclic and s.parent_order == g.order for s in got), g.label
    assert len(maximal_cyclic_subgroups(groups[-1])) == 255


def test_census_matches_the_closure_of_each_element():
    """The census against `closure` of each element alone: the subgroups
    are in canonical order, x's subgroup has the mask of closure(g, [x]),
    each recorded generator is the least element with that closure, and
    the maximal indices are the filter's."""
    groups = [e.group for e in corpus(48)]
    groups += [build(S5), build(S6, max_order=HARD_MAX_ORDER)]
    groups += [build(Product((Cyclic(2),) * 7))]
    for g in groups:
        cyclics, generator, of, top = lattice._census(g)
        masks = [closure(g, [x]).mask for x in range(g.order)]
        assert list(cyclics) == sorted(cyclics, key=Subgroup.sort_key), g.label
        assert [cyclics[i].mask for i in of] == masks, g.label
        assert generator == tuple(masks.index(c.mask) for c in cyclics), g.label
        assert [cyclics[i] for i in top] == maximal_filter(cyclic_subgroups(g)), g.label
        first = cyclic_subgroups(g)
        assert type(first) is tuple and first == cyclics == cyclic_subgroups(g), g.label


def test_maximal_strata():
    c12 = all_subgroups(build(Cyclic(12)))
    assert sorted(s.order for s in c12.maximal_subgroups) == [4, 6]
    q8 = build(GeneralizedQuaternion(8))
    assert [s.order for s in maximal_cyclic_subgroups(q8)] == [4, 4, 4]


def test_all_proper_subgroups_cyclic():
    assert all_proper_subgroups_cyclic(build(GeneralizedQuaternion(8)))
    assert all_proper_subgroups_cyclic(build(SemidirectPQ(3, 2)))
    assert not all_proper_subgroups_cyclic(build(Product((Cyclic(2),) * 3)))
    # Q16 contains Q8, which is not cyclic
    assert not all_proper_subgroups_cyclic(build(GeneralizedQuaternion(16)))


def test_totient_cover_bound():
    assert totient_cover_bound(build(Product((Cyclic(2),) * 2))) == finite(3)
    assert totient_cover_bound(build(GeneralizedQuaternion(8))) == finite(4)
    assert totient_cover_bound(build(Product((Cyclic(3),) * 2))) == finite(4)
    assert totient_cover_bound(build(Cyclic(9))) == INFINITE


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_elementary_abelian_maximal_cyclic_count(p, n):
    g = build(Product((Cyclic(p),) * n))
    assert len(maximal_cyclic_subgroups(g)) == (p**n - 1) // (p - 1)


def test_totient_bound_dominates_maximal_cyclic_count():
    specs = [Product((Cyclic(2),) * 2), Dihedral(4), GeneralizedQuaternion(8),
             SemidirectPQ(5, 2), Product((Cyclic(2), Cyclic(4)))]
    for spec in specs:
        g = build(spec)
        bound = totient_cover_bound(g)
        count = len(maximal_cyclic_subgroups(g))
        assert finite(count) <= bound
    # strict for Q8: 4 > 3
    q8 = build(GeneralizedQuaternion(8))
    assert totient_cover_bound(q8) == finite(4)
    assert len(maximal_cyclic_subgroups(q8)) == 3


def test_subgroup_budget(monkeypatch):
    monkeypatch.setattr(lattice, "MAX_SUBGROUPS", 5)
    all_subgroups.cache_clear()
    with pytest.raises(BudgetExceeded):
        all_subgroups(build(Product((Cyclic(2),) * 3)))


def test_subgroup_budget_is_exact_and_checked_inside_an_orbit(monkeypatch):
    # C2^5 has 374 subgroups; its 155 subgroups of order 4 form one orbit,
    # which alone overruns a budget of 100
    g = build(Product((Cyclic(2),) * 5))
    for budget, fits in ((100, False), (373, False), (374, True)):
        monkeypatch.setattr(lattice, "MAX_SUBGROUPS", budget)
        all_subgroups.cache_clear()
        if fits:
            assert len(all_subgroups(g).all) == 374
        else:
            with pytest.raises(BudgetExceeded, match=f"exceeds {budget}"):
                all_subgroups(g)
    all_subgroups.cache_clear()


def test_as_group_reindexes_to_identity_zero():
    g = build(Dihedral(4))
    for s in all_subgroups(g).all:
        sub = as_group(g, s)
        elems = s.members
        assert sub.order == s.order
        assert elems[0] == 0
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                assert elems[sub.table[i][j]] == g.table[a][b]


def test_make_subgroup_records_cyclicity():
    g = build(GeneralizedQuaternion(8))
    whole = make_subgroup(g, range(8))
    assert not whole.is_cyclic
    assert whole.order == 8 and not whole.is_proper


def test_lattice_retains_under_a_megabyte_for_c2_6():
    # one bitmask per subgroup: C2^6's 2,825 subgroups retain about 0.34 MB,
    # against 2.16 MB with a frozenset of members stored next to each mask
    g = build(Product((Cyclic(2),) * 6))
    all_subgroups.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        lat = all_subgroups(g)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lat.all) == 2825
    assert retained < 1_000_000


@pytest.mark.parametrize(
    "spec",
    [
        S4,
        Dihedral(12),
        Product((GeneralizedQuaternion(8), Product((Cyclic(2),) * 2))),
        Product((Cyclic(2),) * 5),
    ],
    ids=["S4", "D12", "Q8xC2^2", "C2^5"],
)
def test_members_are_the_mask_bits_and_strata_share_records(spec):
    g = build(spec)
    lat = all_subgroups(g)
    for s in lat.all:
        members = s.members
        assert list(members) == sorted(members)
        assert members == tuple(a for a in range(g.order) if s.mask >> a & 1)
        assert s.order == s.mask.bit_count()
    records = {id(s) for s in lat.all}
    for s in lat.maximal_subgroups:
        assert id(s) in records
    # the maximal cyclic subgroups come without the lattice, as equal records
    by_mask = {s.mask: s for s in lat.all}
    for s in maximal_cyclic_subgroups(g):
        assert by_mask[s.mask] == s
    # a repeated element counts once
    pair = make_subgroup(g, [0, 0, 1])
    assert pair.order == 2 and pair.members == (0, 1)
