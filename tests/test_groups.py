"""Group construction: families, products, permutation closure, validation."""

import math
import random
import re
import sys

import pytest

from grpinv import groups
from grpinv.cli import parse_spec
from grpinv.corpus import corpus
from grpinv.errors import InvalidSpec, OrderLimitExceeded
from grpinv.groups import (
    INFINITE,
    Cyclic,
    Dihedral,
    ExtNat,
    GeneralizedQuaternion,
    PermGroup,
    Product,
    SemidirectPQ,
    _finalize,
    _maximal,
    _validate_table,
    build,
    cycles_to_perm,
    finite,
    spec_text,
)
from grpinv.invariants import ic, validate_optimal_ic_certificate


def naive_order(g, a):
    """Independent power iteration, not using elem_order."""
    x = a
    m = 1
    while x != 0:
        x = g.table[x][a]
        m += 1
    return m


def spectrum_by_iteration(g):
    counts = {}
    for a in range(g.order):
        o = naive_order(g, a)
        counts[o] = counts.get(o, 0) + 1
    return counts


def test_trivial_group():
    g = build(Cyclic(1))
    assert g.order == 1
    assert g.elem_order == (1,)


def test_dihedral5_order_spectrum():
    g = build(Dihedral(5))
    assert g.order == 10
    assert spectrum_by_iteration(g) == {1: 1, 2: 5, 5: 4}


def test_dihedral_presentation_relations():
    # r^n = 1, a^2 = 1, ara = r^-1 with r at index 1 and a at index n
    n = 7
    g = build(Dihedral(n))
    r, a = 1, n
    x = 0
    for _ in range(n):
        x = g.table[x][r]
    assert x == 0
    assert g.table[a][a] == 0
    assert g.table[g.table[a][r]][a] == g.inverse[r]


def test_semidirect_examples():
    from grpinv.iso import are_isomorphic

    g = build(SemidirectPQ(3, 2))
    assert are_isomorphic(g, build(Dihedral(3))) is not None
    assert are_isomorphic(build(SemidirectPQ(5, 2)), build(Dihedral(5))) is not None
    f21 = build(SemidirectPQ(7, 3))
    assert spectrum_by_iteration(f21) == {1: 1, 3: 14, 7: 6}
    assert not f21.is_abelian


def reference_dihedral_table(n):
    """The table of D_n entry by entry: r^i a^s indexed s*n + i."""
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for s in range(2):
        for i in range(n):
            for t in range(2):
                for j in range(n):
                    i2 = (i + (j if s == 0 else -j)) % n
                    table[s * n + i][t * n + j] = ((s + t) % 2) * n + i2
    return table


def reference_quaternion_table(m):
    """The table of Q_m entry by entry: x^i y^s indexed s*(m/2) + i."""
    h = m // 2
    table = [[0] * m for _ in range(m)]
    for s in range(2):
        for i in range(h):
            for t in range(2):
                for j in range(h):
                    i2 = i + (j if s == 0 else -j)
                    s2 = s + t
                    if s2 == 2:
                        i2 += h // 2
                        s2 = 0
                    table[s * h + i][t * h + j] = s2 * h + (i2 % h)
    return table


def reference_semidirect_table(q, p):
    """The table of C_q x| C_p entry by entry: (i, j) indexed i*p + j."""
    r = next(r for r in range(2, q) if pow(r, p, q) == 1)
    table = [[0] * (p * q) for _ in range(p * q)]
    for i in range(q):
        for j in range(p):
            rj = pow(r, j, q)
            for i2 in range(q):
                for j2 in range(p):
                    table[i * p + j][i2 * p + j2] = ((i + rj * i2) % q) * p + (j + j2) % p
    return table


def test_row_wise_tables_match_the_entry_loops():
    # one builder over (h, z): z = 0 gives D_h, z = h/2 gives Q_2h
    for n in range(3, 65):
        assert groups._inverting_table(n, 0) == reference_dihedral_table(n)
    for m in (8, 16, 32, 64):
        assert groups._inverting_table(m // 2, m // 4) == reference_quaternion_table(m)
    pairs = [
        (q, p)
        for q in range(3, 64)
        for p in range(2, q)
        if p * q <= 64 and groups._is_prime(q) and groups._is_prime(p) and (q - 1) % p == 0
    ]
    assert len(pairs) == 14
    for q, p in pairs:
        expected = tuple(map(tuple, reference_semidirect_table(q, p)))
        assert build(SemidirectPQ(q, p)).table == expected


def reference_product_table(g, h):
    """The table of G x H entry by entry: (a, b) indexed a*|H| + b."""
    n, m = g.order, h.order
    table = [[0] * (n * m) for _ in range(n * m)]
    for a in range(n):
        for b in range(m):
            for c in range(n):
                for d in range(m):
                    table[a * m + b][c * m + d] = g.table[a][c] * m + h.table[b][d]
    return table


def test_row_sliced_product_tables_match_the_entry_loop():
    c2, c2_5 = build(Cyclic(2)), build(Product((Cyclic(2),) * 5))
    pairs = [
        (c2, c2_5),
        (c2_5, c2),
        (build(Dihedral(4)), build(GeneralizedQuaternion(8))),
        (build(Dihedral(3)), build(Cyclic(4))),
        (build(SemidirectPQ(7, 3)), build(Cyclic(3))),
        (build(Cyclic(25)), build(Cyclic(5))),
    ]
    for g, h in pairs:
        expected = tuple(map(tuple, reference_product_table(g, h)))
        assert groups._product(g, h).table == expected, (g.label, h.label)


def test_semidirect_rejects_bad_parameters():
    with pytest.raises(InvalidSpec):
        build(SemidirectPQ(5, 3))  # 3 does not divide 4
    with pytest.raises(InvalidSpec):
        build(SemidirectPQ(7, 4))
    with pytest.raises(InvalidSpec):
        build(SemidirectPQ(3, 3))


def test_quaternion_has_unique_involution():
    for m in (8, 16, 32):
        g = build(GeneralizedQuaternion(m))
        assert g.order == m
        assert sum(1 for o in g.elem_order if o == 2) == 1


def test_invalid_family_parameters():
    for spec in (Dihedral(2), Dihedral(0), GeneralizedQuaternion(4),
                 GeneralizedQuaternion(12), Cyclic(0), Product(()),
                 # a Perm point must be >= 1 and appear once per generator
                 PermGroup((((0, 1),),)), PermGroup((((-1, 2),),)),
                 PermGroup((((1, 2, 1),),)), PermGroup((((1, 2),), ((2, 3, 2),)))):
        with pytest.raises(InvalidSpec):
            build(spec)


def test_order_limit():
    with pytest.raises(OrderLimitExceeded):
        build(Cyclic(200), max_order=128)
    with pytest.raises(OrderLimitExceeded):
        build(Product((Cyclic(2),) * 8), max_order=128)
    assert build(Cyclic(200), max_order=256).order == 200


def test_long_product_fails_before_building_past_the_limit(monkeypatch):
    calls = []
    direct_product = groups.direct_product

    def counted(g, h, label=None):
        calls.append(g.order * h.order)
        return direct_product(g, h, label)

    monkeypatch.setattr(groups, "direct_product", counted)
    with pytest.raises(OrderLimitExceeded, match="max order 128"):
        build(Product((Cyclic(2),) * 2000), max_order=128)
    assert len(calls) < 8 and max(calls) <= 128


def test_permutation_closure():
    from grpinv.iso import are_isomorphic

    c3 = build(parse_spec("Perm[(1 2 3)]"))
    assert are_isomorphic(c3, build(Cyclic(3))) is not None
    s3 = build(parse_spec("Perm[(1 2 3);(1 2)]"))
    assert s3.order == 6
    assert are_isomorphic(s3, build(Dihedral(3))) is not None
    assert build(parse_spec("Perm[]")).order == 1


def test_permutation_closure_respects_cap():
    with pytest.raises(OrderLimitExceeded, match="permutation closure exceeds max order 8"):
        build(parse_spec("Perm[(1 2 3 4 5 6 7 8 9)]"), max_order=8)


def test_perm_group_spec_build():
    g = build(PermGroup((((1, 2, 3),), ((1, 2),))))
    assert g.order == 6
    assert g.label == "Perm[(1 2 3);(1 2)]"


@pytest.mark.parametrize(
    "text",
    [
        "Perm[(1 2 3 4);(1 2)]",
        "Perm[(1 2 3 4 5);(1 2 3)]",
        "Perm[(3 5)(7 9)]",
        "Perm[(2 7 9);(9 4)]",
        "Perm[(1 2 3)(4 5 6);(1 4)(2 5)(3 6)]",
        "Perm[(10 20);(20 30)]",
        "Perm[()]",
    ],
)
def test_perm_group_acts_on_its_named_points(text):
    # the table on the named points, relabelled in ascending order, is the
    # table on all of 1..degree, degree the largest named point: the points
    # no cycle names are fixed
    spec = parse_spec(text)
    degree = max((pt for cycles in spec.generators for cyc in cycles for pt in cyc), default=1)
    full = [cycles_to_perm(cycles, range(1, degree + 1)) for cycles in spec.generators]
    g = build(spec)
    assert g.label == text
    assert g.table == tuple(groups._perm_table(full, degree, groups.DEFAULT_MAX_ORDER))


def test_element_order_examples():
    c12 = build(Cyclic(12))
    assert c12.elem_order[0] == 1
    assert c12.elem_order[1] == 12
    assert c12.elem_order[2] == 6
    for a in range(12):
        assert c12.elem_order[a] == naive_order(c12, a)


@pytest.mark.parametrize("n", [6, 12, 30])
def test_cyclic_totient_counts(n):
    g = build(Cyclic(n))
    spectrum = spectrum_by_iteration(g)
    for d, count in spectrum.items():
        assert n % d == 0
        assert count == sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


@pytest.mark.parametrize(
    "spec",
    [
        Dihedral(6),
        GeneralizedQuaternion(16),
        SemidirectPQ(7, 3),
        Product((Dihedral(3), Cyclic(4))),
        PermGroup((((1, 2, 3, 4),), ((1, 3),))),
    ],
)
def test_group_axioms_hold(spec):
    g = build(spec)
    n = g.order
    t = g.table
    for a in range(n):
        assert t[0][a] == a and t[a][0] == a
        assert t[g.inverse[a]][a] == 0 and t[a][g.inverse[a]] == 0
        assert g.order % g.elem_order[a] == 0  # Lagrange
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert t[t[a][b]][c] == t[a][t[b][c]]


# a loop (identity, unique solutions) whose (1*1)*2 = 2 but 1*(1*2) = 4
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _product_table(a, b):
    m = len(b)
    return [
        [a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m)]
        for i in range(len(a))
        for j in range(m)
    ]


@pytest.mark.parametrize(
    "table, message",
    [
        (LOOP5, "not associative at (1,1,2)"),
        # element 1 generates the C2 factor and passes Light's test; the
        # failure shows only at a later generator
        (_product_table(LOOP5, [[0, 1], [1, 0]]), "not associative"),
        ([[0, 1, 2], [1, 2], [2, 0, 1]], "malformed"),
        ([[0, 1, 2], [1, 2, 3], [2, 0, 1]], "malformed"),
        ([[0, 1, 2], [1, 2, -1], [2, 0, 1]], "malformed"),
        ([], "malformed"),
        ([[1, 0], [0, 1]], "not an identity"),
        ([[0, 1, 2], [1, 2, 0], [0, 0, 1]], "not an identity"),
        ([[0, 1], [1, 1]], "has no inverse"),
    ],
)
def test_finalize_rejects_non_groups(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _finalize("T", table)


def test_associativity_is_checked_above_order_128():
    # Swapping two products in row 1 of D128 breaks associativity at a tiny
    # share of the n^3 triples, which sampling 512 of them missed.
    # The valid table is stored first, so the corrupted one must not be
    # mistaken for it.
    d128 = build(Dihedral(128), max_order=512)
    rows = [list(r) for r in d128.table]
    hits = groups._checked.cache_info().hits
    assert _finalize("D128", rows).table is d128.table
    assert groups._checked.cache_info().hits == hits + 1
    stored = groups._checked.cache_info().currsize
    rows[1][1], rows[1][2] = rows[1][2], rows[1][1]
    with pytest.raises(ValueError, match="not associative"):
        _finalize("D128'", rows)
    assert groups._checked.cache_info().currsize == stored


def naive_associative(t):
    """Every triple, independent of the generating-set argument."""
    n = len(t)
    return all(
        t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


@pytest.mark.parametrize(
    "spec", [Dihedral(4), Product((Cyclic(2),) * 3), GeneralizedQuaternion(8)]
)
def test_associativity_check_matches_every_triple(spec):
    # Each table changes one product of a group; whether the result is still
    # associative is decided by checking all n^3 triples (it never is here).
    t = build(spec).table
    n = len(t)
    for a in range(1, n):
        for b in range(1, n):
            for c in range(n):
                if c == t[a][b]:
                    continue
                rows = [list(r) for r in t]
                rows[a][b] = c
                try:
                    _validate_table(tuple(map(tuple, rows)))
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == naive_associative(rows), (a, b, c)


def test_build_is_deterministic():
    for spec in (Dihedral(5), Product((Cyclic(3),) * 2), SemidirectPQ(7, 2),
                 PermGroup((((1, 2, 3),), ((1, 2),)))):
        assert build(spec).table == build(spec).table


def test_product_indexing_matches_components():
    a, b = build(Cyclic(4)), build(Dihedral(3))
    g = build(Product((Cyclic(4), Dihedral(3))))
    assert g.order == 24
    for x in range(4):
        for y in range(6):
            for u in range(4):
                for v in range(6):
                    left = x * 6 + y
                    right = u * 6 + v
                    assert g.table[left][right] == a.table[x][u] * 6 + b.table[y][v]


def test_power_spec_equals_iterated_product():
    assert build(Product((Cyclic(3),) * 3)).table == build(
        Product((Product((Cyclic(3), Cyclic(3))), Cyclic(3)))
    ).table
    assert spec_text(Product((Cyclic(3),) * 3)) == "C3^3"
    assert spec_text(Product((Cyclic(2), Cyclic(3)))) == "C2 x C3"


def test_extnat_ordering_and_arithmetic():
    assert finite(2) < finite(5) < INFINITE
    assert not INFINITE < INFINITE
    assert INFINITE <= INFINITE
    assert finite(3) * finite(4) == finite(12)
    assert finite(3) * INFINITE == INFINITE
    assert INFINITE * INFINITE == INFINITE
    assert finite(3) + INFINITE == INFINITE
    assert max(finite(7), INFINITE) == INFINITE
    assert str(finite(3)) == "3" and str(INFINITE) == "infinite"
    with pytest.raises(ValueError):
        ExtNat(0)


def reference_maximal(masks):
    """The inclusion-maximal members, by pairwise comparison, of the first
    occurrences of the nonzero masks."""
    first = {}
    for i, m in enumerate(masks):
        if m:
            first.setdefault(m, i)
    pool = first.values()
    return sorted(
        i for i in pool if not any(masks[i] & masks[j] == masks[i] != masks[j] for j in pool)
    )


def test_maximal_matches_the_pairwise_reference():
    rng = random.Random(14)
    for _ in range(2000):
        width = rng.randint(1, 7)
        masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 14))]
        if masks:  # with duplicates and zeros
            masks += rng.choices(masks, k=rng.randint(0, 4)) + [0] * rng.randint(0, 2)
            rng.shuffle(masks)
        assert _maximal(masks) == reference_maximal(masks), masks


def test_fresh_caches_empties_every_cache_of_the_package(request):
    corpus(4)
    report = ic(build(parse_spec("D4 x C2")), build(Cyclic(4)))
    assert validate_optimal_ic_certificate(report)  # closes pairs of members
    caches = {
        id(value): value
        for name, module in list(sys.modules.items())
        if name == "grpinv" or name.startswith("grpinv.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }.values()
    # the store, the product and subgroup tables, the lattice, embeds, the
    # cover's points, the pair joins and the corpus
    assert sum(cached.cache_info().currsize > 0 for cached in caches) >= 8
    request.getfixturevalue("fresh_caches")
    assert all(cached.cache_info().currsize == 0 for cached in caches)
