"""The three invariants against brute-force cover search, plus the checkers."""

import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpinv import invariants, lattice
from grpinv.cli import main, parse_spec
from grpinv.corpus import corpus
from grpinv.errors import BudgetExceeded, InvalidPartition
from grpinv.groups import (
    HARD_MAX_ORDER,
    INFINITE,
    Cyclic,
    Dihedral,
    GeneralizedQuaternion,
    PermGroup,
    Product,
    SemidirectPQ,
    _bits,
    _finalize,
    build,
    finite,
)
from grpinv.invariants import (
    CertEntry,
    InvariantReport,
    certificate_sound,
    check_bounds_sandwich,
    check_coordinate_injections,
    check_miller_moreno,
    check_product_inequality,
    check_subadditivity,
    check_to_zp_formula,
    check_triangle,
    ic,
    sigma,
    sigma_c,
    validate_optimal_ic_certificate,
)
from grpinv.iso import embeds, spectrum_dominates
from grpinv.lattice import (
    all_subgroups,
    as_group,
    closure,
    make_subgroup,
    maximal_cyclic_subgroups,
    maximal_filter,
)
from test_lattice import RELABEL_GROUPS
from test_store import _relabelled


def brute_force_cover_size(g, pool):
    """Smallest number of pool members whose union is G; None if impossible."""
    full = (1 << g.order) - 1
    for k in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            union = 0
            for s in combo:
                union |= s.mask
            if union == full:
                return k
    return None


def brute_force_sigma(g):
    return brute_force_cover_size(g, [s for s in all_subgroups(g).all if s.is_proper])


def brute_force_sigma_c(g):
    pool = [s for s in all_subgroups(g).all if s.is_proper and s.is_cyclic]
    return brute_force_cover_size(g, pool)


# ---------------------------------------------------------------------------
# sigma / sigma_c
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 5, 9, 12, 16])
def test_sigma_cyclic_is_infinite(n):
    report = sigma(build(Cyclic(n)))
    assert report.value == INFINITE
    assert report.infiniteness_reason == "G_cyclic"


def test_sigma_examples():
    assert sigma(build(Product((Cyclic(2),) * 2))).value == finite(3)
    assert sigma(build(Product((Cyclic(3),) * 3))).value == finite(4)
    assert sigma(build(Dihedral(3))).value == finite(4)


@pytest.mark.parametrize(
    "spec",
    [
        Product((Cyclic(2),) * 2),
        Dihedral(3),
        Dihedral(4),
        Dihedral(5),
        GeneralizedQuaternion(8),
        Product((Cyclic(3),) * 2),
        Product((Cyclic(2), Cyclic(4))),
        SemidirectPQ(7, 3),
    ],
)
def test_sigma_and_sigma_c_match_brute_force(spec):
    g = build(spec)
    assert sigma(g).value == finite(brute_force_sigma(g))
    assert sigma_c(g).value == finite(brute_force_sigma_c(g))


def test_sigma_c_examples():
    assert sigma_c(build(Product((Cyclic(3),) * 2))).value == finite(4)
    assert sigma_c(build(Product((Cyclic(2),) * 3))).value == finite(7)
    assert sigma_c(build(GeneralizedQuaternion(8))).value == finite(3)


def test_sigma_c_equals_maximal_cyclic_count():
    for e in corpus(16):
        g = e.group
        if g.is_cyclic:
            continue
        assert sigma_c(g).value == finite(len(maximal_cyclic_subgroups(g))), g.label


@pytest.mark.usefixtures("fresh_caches")
def test_sigma_c_builds_no_subgroup_lattice(capsys):
    # the points and sigma_c's candidates come from the cyclic subgroups
    groups = [e.group for e in corpus(32)]
    groups.append(build(PermGroup((((1, 2, 3, 4, 5, 6),), ((1, 2),))), max_order=HARD_MAX_ORDER))
    for g in groups:
        report = sigma_c(g)
        assert g.is_cyclic or certificate_sound(report), g.label
    assert main(["lattice", "Q8", "--cyclic", "--maximal"]) == 0
    assert capsys.readouterr().out.count("\n") == 3
    assert all_subgroups.cache_info().misses == 0


@pytest.mark.usefixtures("fresh_caches")
def test_sigma_c_answers_past_the_subgroup_budget(monkeypatch):
    # C2^4 has 67 subgroups but only 15 maximal cyclic ones
    monkeypatch.setattr(lattice, "MAX_SUBGROUPS", 5)
    g = build(Product((Cyclic(2),) * 4))
    assert sigma_c(g).value == finite(15)
    with pytest.raises(BudgetExceeded):
        sigma(g)


def test_sigma_at_least_three_and_below_sigma_c():
    for e in corpus(16):
        g = e.group
        if g.is_cyclic:
            continue
        sv, scv = sigma(g).value, sigma_c(g).value
        assert finite(3) <= sv <= scv, g.label


def test_certificates_are_sound():
    for spec in (Product((Cyclic(2),) * 2), Dihedral(4), GeneralizedQuaternion(8)):
        g = build(spec)
        for report in (sigma(g), sigma_c(g)):
            assert certificate_sound(report)
            assert len(report.certificate) == report.value.value


@pytest.mark.parametrize(
    "spec,value",
    [
        # S6 is the union of 13 proper subgroups and of no fewer (Abdollahi,
        # Ashraf and Shaker, 2007)
        (PermGroup((((1, 2, 3, 4, 5, 6),), ((1, 2),))), 13),
        (PermGroup((((1, 2, 3),), ((2, 3, 4, 5, 6),))), 16),
    ],
    ids=["S6", "A6"],
)
def test_sigma_of_s6_and_a6(spec, value):
    report = sigma(build(spec, max_order=HARD_MAX_ORDER))
    assert report.value == finite(value)
    assert len(report.certificate) == value
    assert certificate_sound(report)


@pytest.mark.parametrize(
    "spec, value, subgroups",
    [
        ("Perm[(1 2 3 4 5 6 7);(1 8)(2 7)(3 4)(5 6)]", 15, 179),
        ("Perm[(1 2)(3 4)(5 6)(7 8);(1 9)(3 6)(4 7)(5 8);(2 3 5 4 7 8 6)]", 36, 386),
        ("Perm[(1 2 3 4 5 6 7 8 9 10 11);(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)]", 67, 620),
    ],
    ids=["PSL(2,7)", "PSL(2,8)", "PSL(2,11)"],
)
def test_sigma_of_psl2(spec, value, subgroups):
    # Bryce, Fedri and Serena (1999): sigma(PSL(2, q)) for q = 7, 8, 11
    g = build(parse_spec(spec), max_order=HARD_MAX_ORDER)
    assert len(all_subgroups(g).all) == subgroups
    report = sigma(g)
    assert report.value == finite(value)
    assert len(report.certificate) == value
    assert certificate_sound(report)


@pytest.mark.parametrize(
    "spec, value",
    [
        ("Perm[(1 2 3);(2 3 4)]", 5),
        ("Perm[(1 2 3 4);(1 2)]", 4),
        ("Perm[(1 2 3);(3 4 5)]", 10),
        ("Perm[(1 2 3 4 5);(1 2)]", 16),
    ],
    ids=["A4", "S4", "A5", "S5"],
)
def test_sigma_of_small_alternating_and_symmetric_groups(spec, value):
    # Cohn (1994): sigma(A4) = 5, sigma(S4) = 4, sigma(A5) = 10, sigma(S5) = 16
    report = sigma(build(parse_spec(spec)))
    assert report.value == finite(value)
    assert certificate_sound(report)


def is_prime_power(n):
    """Whether n >= 2 is a power of its least prime factor."""
    q = next(d for d in range(2, n + 1) if n % d == 0)
    while n % q == 0:
        n //= q
    return n == 1


def test_sigma_of_solvable_groups_is_one_more_than_a_prime_power():
    # Tomkinson (1997): sigma(G) - 1 is a prime power for solvable G, and no
    # group has sigma(G) = 7.  Every group of the corpus is solvable.
    checked = 0
    for e in corpus(48):
        if e.group.is_cyclic:
            continue
        report = sigma(e.group)
        assert is_prime_power(report.value.value - 1), (e.group.label, report.value)
        assert report.value != finite(7), e.group.label
        assert certificate_sound(report), e.group.label
        checked += 1
    assert checked == 95


# ---------------------------------------------------------------------------
# ic
# ---------------------------------------------------------------------------

def test_ic_paper_table():
    cases = [
        (Product((Cyclic(2),) * 2), Cyclic(2), 3),
        (Product((Cyclic(2),) * 3), Cyclic(2), 7),
        (Product((Cyclic(3),) * 2), Cyclic(3), 4),
        (Product((Cyclic(3),) * 3), Cyclic(3), 13),
        (Product((Cyclic(3),) * 2), Cyclic(9), 4),
        (Product((Cyclic(2),) * 2), Cyclic(4), 3),
        (Dihedral(5), Cyclic(10), 6),
        (Dihedral(3), Cyclic(6), 4),
        (Product((Cyclic(2),) * 2), Cyclic(2), 3),
        (Product((Cyclic(2),) * 3), Product((Cyclic(2),) * 2), 3),
        (Product((Cyclic(2),) * 4), Product((Cyclic(2),) * 3), 3),
    ]
    for gspec, hspec, want in cases:
        report = ic(build(gspec), build(hspec))
        assert report.value == finite(want), (gspec, hspec)
        assert certificate_sound(report)


def test_ic_trivial_and_infinite_cases():
    q8 = build(GeneralizedQuaternion(8))
    assert ic(build(Cyclic(1)), q8).value == finite(1)
    report = ic(build(Cyclic(4)), build(Cyclic(2)))
    assert report.value == INFINITE
    assert report.infiniteness_reason == "spectrum_gap"
    assert report.missing_order == 4
    # IC(G;0) for nontrivial G
    report = ic(q8, build(Cyclic(1)))
    assert report.value == INFINITE and report.infiniteness_reason == "spectrum_gap"


def test_pairs_whose_orders_rule_out_an_embedding_keep_their_values(monkeypatch):
    # |G| does not divide |H|: ic and the bounds check decide that G does
    # not embed without asking embeds, so the answer stays out of its cache
    asked = []
    real = invariants.embeds
    monkeypatch.setattr(invariants, "embeds", lambda k, h: asked.append((k, h)) or real(k, h))
    cases = [
        ("C4", "C2", INFINITE, "spectrum_gap", 4, None),
        ("C2^2", "C3", INFINITE, "spectrum_gap", 2, None),
        ("D3", "C4", INFINITE, "spectrum_gap", 3, None),
        ("Q8", "C4", finite(3), None, None, (15, 85, 165)),
        ("C3^2", "C3", finite(4), None, None, (7, 73, 161, 273)),
    ]
    for gs, hs, value, reason, missing, masks in cases:
        g, h = build(parse_spec(gs)), build(parse_spec(hs))
        report = ic(g, h)
        assert (report.value, report.infiniteness_reason, report.missing_order) == (
            value, reason, missing
        ), (gs, hs)
        if masks is not None:
            assert tuple(e.subgroup.mask for e in report.certificate) == masks
            assert certificate_sound(report)
        assert check_bounds_sandwich(g, h)
    assert asked and all(h.order % k.order == 0 for k, h in asked)


def test_ic_one_iff_embeds():
    groups = [e.group for e in corpus(12)]
    for g, h in itertools.product(groups, repeat=2):
        value = ic(g, h).value
        assert (value == finite(1)) == (embeds(g, h) is not None), (g.label, h.label)
        assert value.is_finite == spectrum_dominates(g, h), (g.label, h.label)


def test_ic_isomorphism_invariance():
    a = ic(build(Dihedral(3)), build(Cyclic(6))).value
    b = ic(
        build(PermGroup((((1, 2, 3),), ((1, 2),)))),
        build(Product((Cyclic(2), Cyclic(3)))),
    ).value
    assert a == b == finite(4)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_ic_to_cp_gap_formula(p, n):
    g = build(Product((Cyclic(p),) * n))
    icv = ic(g, build(Cyclic(p))).value
    sv = sigma(g).value
    assert icv.value - sv.value == (p**n - 1) // (p - 1) - p - 1


def brute_force_ic(g, h):
    """Minimum cover of G by embeddable subgroups, over the raw lattice.

    Independent of the production reductions: no universe shrinking, no
    restriction to maximal candidates.
    """
    pool = []
    for s in all_subgroups(g).all:
        sub = as_group(g, s)
        if embeds(sub, h) is not None:
            pool.append(s)
    full = (1 << g.order) - 1
    for k in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            union = 0
            for s in combo:
                union |= s.mask
            if union == full:
                return k
    return None


def test_ic_matches_raw_lattice_brute_force():
    entries = corpus(12)
    for ge, he in itertools.product(entries, repeat=2):
        want = brute_force_ic(ge.group, he.group)
        got = ic(ge.group, he.group).value
        if want is None:
            assert got == INFINITE, (ge.group.label, he.group.label)
        else:
            assert got == finite(want), (ge.group.label, he.group.label)


def test_ic_certificate_passes_optimality_validator():
    for gspec, hspec in [
        (Product((Cyclic(2),) * 2), Cyclic(2)),
        (Product((Cyclic(3),) * 2), Cyclic(9)),
        (Dihedral(5), Cyclic(10)),
    ]:
        report = ic(build(gspec), build(hspec))
        assert validate_optimal_ic_certificate(report)


# Beutelspacher (1979): C2^7 is covered by 19 subspaces of dimension 3 and
# by no fewer.  Masks of the lexicographically least certificate.
C2_7_INTO_C2_3_MASKS = (
    0xFF,
    0xF0F,
    0xF00F,
    0x10001000100010001000100010001,
    0x20004001000800040002000080001,
    0x40008010002000800040000020001,
    0x80002100040002000800000040001,
    0x100100004004004000000410000001,
    0x200400000420000100008080000001,
    0x400800400000080020010020000001,
    0x800200040000100008200040000001,
    0x1001000080080000080000800100001,
    0x2004000800001000002004000800001,
    0x4008000000800401000020000200001,
    0x8002000008000020400100000400001,
    0x10000010200000200200000201000001,
    0x20000040020000048000001008000001,
    0x40000080002010000004080002000001,
    0x80000020000208000010400004000001,
)


def test_ic_c2_7_into_c2_3_is_nineteen():
    report = ic(build(Product((Cyclic(2),) * 7)), build(Product((Cyclic(2),) * 3)))
    assert report.value == finite(19)
    assert tuple(e.subgroup.mask for e in report.certificate) == C2_7_INTO_C2_3_MASKS
    assert certificate_sound(report)
    assert validate_optimal_ic_certificate(report)


def beutelspacher_cover(p, n, k):
    """Least number of k-dimensional subspaces that cover GF(p)^n
    (Beutelspacher, 1979), for 1 <= k < n."""
    if n % k == 0:
        return (p**n - 1) // (p**k - 1)
    r = n % k
    return (p**n - p ** (k + r)) // (p**k - 1) + p**r + 1


BEUTELSPACHER_CASES = (
    [(2, n, k) for n in range(2, 7) for k in range(1, n)]
    + [(3, n, k) for n in range(2, 5) for k in range(1, n)]
    + [(5, 2, 1), (5, 3, 1), (5, 3, 2), (7, 2, 1)]
    # C2^7 into C2^3 has its own test above
    + [(2, 7, 1), (2, 7, 5), (2, 7, 6)]
)


@pytest.mark.parametrize(
    "p, n, k", BEUTELSPACHER_CASES, ids=[f"C{p}^{n};C{p}^{k}" for p, n, k in BEUTELSPACHER_CASES]
)
def test_ic_of_elementary_abelian_groups_follows_beutelspacher(p, n, k):
    # a subgroup of C_p^n embeds in C_p^k iff its dimension is at most k
    report = ic(build(Product((Cyclic(p),) * n)), build(Product((Cyclic(p),) * k)))
    assert report.value == finite(beutelspacher_cover(p, n, k))
    assert certificate_sound(report)


S4 = "Perm[(1 2 3 4);(1 2)]"
# Non-abelian groups of order 24-120, and abelian IC instances with
# hundreds of candidates.
POINT_SET_GROUPS = (
    S4, "Perm[(1 2 3);(3 4 5)]", "Perm[(1 2 3 4 5);(1 2)]", "D24", "D32", "D48",
    "SD(7,3)xC3", "D5xC2^2", "D3xD3", S4 + "xC2",
)
POINT_SET_IC_PAIRS = (
    ("C2^6", "C2^4"), ("C2^4xC4", "C2^2xC4"), ("C2^2xC4^2", "C4^2"), ("C2^5", "C2^3"),
    ("C3^4", "C3^2"), ("C2^3xC4", "C4xC2"), ("C5^3", "C5"),
)


def test_point_sets_match_the_containment_test(monkeypatch):
    """Each candidate's point mask, found through its members, against
    testing every point for containment; and each symmetry, the image of
    every point under an automorphism, against mapping the point's
    elements."""
    calls = []
    real_solve, real_make_instance = invariants._solve, invariants.make_instance

    def solve(kind, g, target, candidates, entry, node_budget, automorphisms=()):
        calls.append((g, candidates, automorphisms))
        return real_solve(kind, g, target, candidates, entry, node_budget, automorphisms)

    def checked(universe_size, point_masks, symmetries):
        g, candidates, automorphisms = calls[-1]
        universe = maximal_cyclic_subgroups(g)
        assert universe_size == len(universe)
        want = [
            sum(1 << j for j, pt in enumerate(universe) if c.contains(pt)) for c in candidates
        ]
        assert point_masks == want
        index = {pt.mask: j for j, pt in enumerate(universe)}
        assert symmetries == [
            tuple(index[sum(1 << phi[a] for a in _bits(pt.mask))] for pt in universe)
            for phi in automorphisms
        ]
        return real_make_instance(universe_size, point_masks, symmetries)

    monkeypatch.setattr(invariants, "_solve", solve)
    monkeypatch.setattr(invariants, "make_instance", checked)
    for spec in POINT_SET_GROUPS:
        g = build(parse_spec(spec))
        sigma(g)
        sigma_c(g)
        # sigma's instance has the lattice's automorphisms, sigma_c's none
        assert calls[-2][2] == all_subgroups(g).automorphisms and calls[-1][2] == ()
    for gspec, hspec in POINT_SET_IC_PAIRS:
        ic(build(parse_spec(gspec)), build(parse_spec(hspec)))
    assert len(calls) == 2 * len(POINT_SET_GROUPS) + len(POINT_SET_IC_PAIRS)
    assert all(automorphisms for _, _, automorphisms in calls[-len(POINT_SET_IC_PAIRS):])


def reference_admissible(g, h):
    """`ic`'s candidates and witnesses by a descending pass with a bitset
    per element of the admissible subgroups found so far that hold it: a
    subgroup whose elements' bitsets have a nonzero AND lies inside one of
    them and is skipped without a search."""
    admissible = []
    inside = [0] * g.order
    for s in reversed(all_subgroups(g).all):
        if s.order == g.order or h.order % s.order:
            continue
        holders = -1
        for x in _bits(s.mask):
            holders &= inside[x]
        if holders:
            continue
        ws = embeds(as_group(g, s), h)
        if ws is not None:
            for x in _bits(s.mask):
                inside[x] |= 1 << len(admissible)
            admissible.append((s, ws))
    admissible.sort(key=lambda t: t[0].sort_key())
    return admissible


def test_ic_candidates_match_the_reference_pass(monkeypatch):
    """The subgroups `ic` hands to the cover, and the witnesses of its
    certificate's members, against the per-element bitset pass."""
    found = []
    real = invariants._solve

    def capture(kind, g, target, candidates, *rest):
        found.append(candidates)
        return real(kind, g, target, candidates, *rest)

    monkeypatch.setattr(invariants, "_solve", capture)
    for gspec, hspec in POINT_SET_IC_PAIRS:
        g, h = build(parse_spec(gspec)), build(parse_spec(hspec))
        report = ic(g, h)
        reference = reference_admissible(g, h)
        assert len(found) == 1 and found.pop() == [s for s, _ in reference], gspec
        witness = {s: ws for s, ws in reference}
        for e in report.certificate:
            assert e.embedding == witness[e.subgroup], gspec


def test_ic_candidates_match_the_maximal_filter(monkeypatch):
    """The subgroups `ic` hands to the cover, decided once per orbit through
    the recorded joins, against the inclusion-maximal filter over every
    subgroup that embeds."""
    found = []
    real = invariants._solve

    def capture(kind, g, target, candidates, *rest):
        found.append(candidates)
        return real(kind, g, target, candidates, *rest)

    monkeypatch.setattr(invariants, "_solve", capture)
    groups = [e.group for e in corpus(16)]
    pairs = [(g, h) for g in groups for h in groups]
    pairs += [(build(parse_spec(a)), build(parse_spec(b))) for a, b in POINT_SET_IC_PAIRS]
    solved = 0
    for g, h in pairs:
        ic(g, h)
        if not found:
            continue
        solved += 1
        reference = maximal_filter(
            s
            for s in all_subgroups(g).all
            if s.is_proper and h.order % s.order == 0 and embeds(as_group(g, s), h) is not None
        )
        assert found.pop() == reference, (g.label, h.label)
    assert solved == 173 + len(POINT_SET_IC_PAIRS)  # the pairs that reach the cover


def contained_member_certificate():
    """IC(C2^2;C2)'s certificate with its first member swapped for the
    trivial subgroup, which the other members contain."""
    g = build(Product((Cyclic(2),) * 2))
    h = build(Cyclic(2))
    report = ic(g, h)
    trivial = make_subgroup(g, {0})
    return InvariantReport(
        "ic", g, h, report.value,
        (CertEntry(trivial, (0,)),) + report.certificate[1:],
    )


def mergeable_pairs_certificate():
    """Seven order-2 subgroups of C2^3 cover it, but pairs generate C2^2
    subgroups that embed into the target C2^2, so the cover cannot be
    optimal."""
    g = build(Product((Cyclic(2),) * 3))
    h = build(Product((Cyclic(2),) * 2))
    atoms = [s for s in all_subgroups(g).all if s.order == 2]
    entries = []
    for s in atoms:
        sub = as_group(g, s)
        entries.append(CertEntry(s, embeds(sub, h)))
    return InvariantReport("ic", g, h, finite(7), tuple(entries))


def test_optimality_validator_rejects_containment():
    assert not validate_optimal_ic_certificate(contained_member_certificate())


def test_optimality_validator_rejects_mergeable_pairs():
    fake = mergeable_pairs_certificate()
    assert not validate_optimal_ic_certificate(fake)
    assert ic(fake.group, fake.target).value == finite(3)


def reference_validate_optimal(report):
    """`validate_optimal_ic_certificate` without its product-formula skip:
    the closure of every pair of members is taken and searched."""
    g, h = report.group, report.target
    subs = [e.subgroup for e in report.certificate]
    full = (1 << g.order) - 1
    for i in range(len(subs)):
        rest = functools.reduce(operator.or_, (s.mask for s in subs[:i] + subs[i + 1:]), 0)
        if rest == full:
            return False
    for a, b in itertools.permutations(subs, 2):
        if b.contains(a):
            return False
    for a, b in itertools.combinations(subs, 2):
        joined = closure(g, _bits(a.mask | b.mask))
        if joined.order < g.order and h.order % joined.order == 0:
            if embeds(as_group(g, joined), h) is not None:
                return False
    return True


def test_optimality_validator_skip_agrees_with_closing_every_pair():
    reports = [contained_member_certificate(), mergeable_pairs_certificate()]
    for gspec, hspec in POINT_SET_IC_PAIRS:
        reports.append(ic(build(parse_spec(gspec)), build(parse_spec(hspec))))
    # the pair joins are memoized: the second pass answers each from the memo
    invariants._join.cache_clear()
    cold = [validate_optimal_ic_certificate(r) for r in reports]
    warm = [validate_optimal_ic_certificate(r) for r in reports]
    joins = invariants._join.cache_info()
    assert joins.hits == joins.misses > 0
    assert cold == warm == [reference_validate_optimal(r) for r in reports]
    assert cold == [False, False] + [True] * len(POINT_SET_IC_PAIRS)


RELABEL_IC_TARGETS = tuple(
    build(parse_spec(spec)) for spec in ("C2^2", "C2^3", "C4xC2", "D4", "D3", "D12")
)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_ic_of_a_relabelled_table_keeps_its_value_and_certifies(data):
    # relabelling moves the split generators, so the automorphisms, the
    # orbit representatives and which subgroup an orbit's verdict comes
    # from, for IC's candidates and for sigma's and sigma_c's strata alike
    g = data.draw(st.sampled_from(RELABEL_GROUPS))
    h = data.draw(st.sampled_from(RELABEL_IC_TARGETS))
    perm = (0, *data.draw(st.permutations(range(1, g.order))))
    k = _finalize(f"{g.label}'", _relabelled(g.table, perm))
    report = ic(k, h)
    assert report.value == ic(g, h).value
    if report.value.is_finite:
        assert certificate_sound(report)
        if report.value.value > 1:
            assert validate_optimal_ic_certificate(report)
    for invariant in (sigma, sigma_c):
        report = invariant(k)
        assert report.value == invariant(g).value
        assert certificate_sound(report)


def test_optimality_validator_pre():
    report = ic(build(Product((Cyclic(2),) * 2)), build(Product((Cyclic(2),) * 2)))
    assert report.value == finite(1)
    with pytest.raises(ValueError):
        validate_optimal_ic_certificate(report)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def test_triangle_equality_when_target_matches():
    g = build(Product((Cyclic(2),) * 2))
    h = build(Cyclic(2))
    assert check_triangle(g, h, h)
    assert ic(g, h).value == ic(g, h).value * ic(h, h).value


def test_triangle_with_trivial_target():
    triv = build(Cyclic(1))
    for e in corpus(8):
        assert check_triangle(e.group, build(Product((Cyclic(2),) * 2)), triv)


def test_bounds_sandwich_examples():
    g = build(Product((Cyclic(3),) * 3))
    h = build(Cyclic(3))
    assert sigma(g).value == finite(4)
    assert ic(g, h).value == finite(13)
    assert sigma_c(g).value == finite(13)
    assert check_bounds_sandwich(g, h)
    assert check_bounds_sandwich(build(Product((Cyclic(2),) * 2)), build(Cyclic(2)))
    # cyclic G, H without a copy: infinite <= infinite
    assert check_bounds_sandwich(build(Cyclic(9)), build(Cyclic(3)))


def test_bounds_sandwich_honours_node_budget():
    # IC(C2^2;C3) is infinite without a search; sigma(C2^2) needs 4 nodes:
    # one rules out a 2-cover, and the greedy 3-cover is the certificate,
    # one node per member
    g, h = build(Product((Cyclic(2),) * 2)), build(Cyclic(3))
    with pytest.raises(BudgetExceeded):
        check_bounds_sandwich(g, h, node_budget=3)
    assert check_bounds_sandwich(g, h, node_budget=4)


def test_to_zp_formula_examples():
    assert check_to_zp_formula(build(Product((Cyclic(2),) * 2)), 2)
    assert check_to_zp_formula(build(Product((Cyclic(3),) * 2)), 3)
    assert check_to_zp_formula(build(Product((Cyclic(2),) * 4)), 2)
    with pytest.raises(ValueError):
        check_to_zp_formula(build(Cyclic(4)), 2)  # infinite


def test_subadditivity_example_and_partition_errors():
    g = build(Product((Cyclic(2),) * 2))
    h = build(Cyclic(2))
    twos = [s for s in all_subgroups(g).all if s.order == 2]
    assert check_subadditivity(g, h, *twos)
    s3 = build(PermGroup((((1, 2, 3),), ((1, 2),))))
    lat = all_subgroups(s3)
    c3 = next(s for s in lat.all if s.order == 3)
    c2s = [s for s in lat.all if s.order == 2]
    with pytest.raises(InvalidPartition):
        check_subadditivity(s3, h, c3, c2s[0], c2s[1])  # union has 5 elements
    whole = next(s for s in lat.all if s.order == 6)
    with pytest.raises(InvalidPartition):
        check_subadditivity(s3, h, whole, c2s[0], c2s[1])


def test_subadditivity_sweep_small():
    for e in corpus(8):
        g = e.group
        if g.is_cyclic:
            continue
        proper = [s for s in all_subgroups(g).all if s.is_proper and s.order > 1]
        full = (1 << g.order) - 1
        for a, b, c in itertools.combinations(proper, 3):
            if a.mask | b.mask | c.mask != full:
                continue
            assert check_subadditivity(g, build(Cyclic(2)), a, b, c), g.label


def test_product_inequality_examples():
    c2 = build(Cyclic(2))
    assert check_product_inequality(c2, c2, c2, c2)
    c2_3, c2_2 = build(Product((Cyclic(2),) * 3)), build(Product((Cyclic(2),) * 2))
    assert ic(c2_3, c2_2).value == finite(3)
    g1, h1 = build(Product((Cyclic(2),) * 2)), build(Cyclic(2))
    g2, h2 = build(Product((Cyclic(3),) * 2)), build(Cyclic(3))
    assert check_product_inequality(g1, g2, h1, h2)


def test_coordinate_injections_examples():
    c2 = build(Cyclic(2))
    c2c2 = build(Product((Cyclic(2),) * 2))
    assert ic(c2c2, build(Product((Cyclic(2), Cyclic(2))))).value == finite(1)
    assert check_coordinate_injections(c2c2, c2, c2, c2)
    assert check_coordinate_injections(c2, c2c2, c2c2, c2)


def test_miller_moreno_checker():
    assert check_miller_moreno(build(GeneralizedQuaternion(8))) == (True, None)
    assert check_miller_moreno(build(SemidirectPQ(7, 3))) == (True, None)
    # both sides false
    assert check_miller_moreno(build(Product((Cyclic(2),) * 3))) == (True, None)
    assert check_miller_moreno(build(Cyclic(9))) == (True, None)
    # boundary cases are flagged, not failed
    ok, flag = check_miller_moreno(build(GeneralizedQuaternion(16)))
    assert ok and "generalized quaternion" in flag
    ok, flag = check_miller_moreno(build(Product((Cyclic(2),) * 2)))
    assert ok and "C_p x C_p" in flag
