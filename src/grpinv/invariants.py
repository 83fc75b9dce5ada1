"""The three invariants by reduction to exact set cover, with certificates,
plus the inequality checkers the verify sweep replays.

The cover universe is always the set of maximal cyclic subgroups: a subgroup
contains an element iff it contains the cyclic subgroup it generates, so one
point per maximal cyclic subgroup is enough and the optimum is unchanged.
The points, their generators and sigma_c's candidates come from the table's
census of its cyclic subgroups (`lattice._census`), the one the lattice
takes its atoms from, so a table's cyclic subgroups are found once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .cover import DEFAULT_NODE_BUDGET, make_instance, min_cover, validate_cover
from .errors import CheckFailed, InvalidPartition
from .groups import (
    CACHE_SIZE,
    INFINITE,
    Cyclic,
    ExtNat,
    FiniteGroup,
    GeneralizedQuaternion,
    Record,
    _bits,
    _is_prime,
    build,
    direct_product,
    finite,
)
from .iso import are_isomorphic, embeds, is_embedding, missing_order, spectrum_dominates
from .lattice import (
    Subgroup,
    _census,
    _maximal_orbits,
    _subgroup_table,
    all_proper_subgroups_cyclic,
    all_subgroups,
    as_group,
    closure,
    make_subgroup,
    maximal_cyclic_subgroups,
)


class CertEntry(Record, namedtuple("CertEntry", "subgroup embedding", defaults=(None,))):
    """One cover member; embedding[i] is the image in the target group of
    subgroup.members[i] (present only for IC certificates)."""

    __slots__ = ()


class InvariantReport(
    Record,
    namedtuple(
        "InvariantReport",
        "kind group target value certificate infiniteness_reason missing_order",
        defaults=(None, None),
    ),
):
    """kind is "sigma", "sigma_c" or "ic"; target is None unless kind is
    "ic"; certificate is a tuple of CertEntry, or None when the value is
    infinite; infiniteness_reason is "G_cyclic", "spectrum_gap" or
    "no_cover"."""

    __slots__ = ()


def _solve(kind, g, target, candidates, entry, node_budget, automorphisms=()):
    """Least cover of the points by the candidates; `entry` makes the
    CertEntry of a candidate, and is called for the certificate's members
    only.  A subgroup contains the point <x> exactly when it holds x, so a
    candidate's points are the bits of its mask at each point's least
    generator, both read from the census.  Each of the `automorphisms` of
    G maps that generator to one of the image point, whose index the census
    gives, and permutes the candidates too, so they go along as the
    symmetries that prune the cover search.  Work in proportion to the
    points and the candidates' bits, none in proportion to |G|."""
    _, generator, of, top = _census(g)
    point = {i: j for j, i in enumerate(top)}  # census index -> point index
    gens = [generator[i] for i in top]
    generators = sum(1 << x for x in gens)
    inst = make_instance(
        len(gens),
        [sum(1 << point[of[x]] for x in _bits(c.mask & generators)) for c in candidates],
        [tuple(point[of[phi[x]]] for x in gens) for phi in automorphisms],
    )
    sol = min_cover(inst, node_budget)
    if not sol.value.is_finite:
        return InvariantReport(kind, g, target, INFINITE, None, "no_cover")
    if not validate_cover(inst, sol):
        raise CheckFailed(f"{kind} cover of {g.label} failed re-validation")
    cert = tuple(entry(candidates[inst.kept[i]]) for i in sol.certificate)
    return InvariantReport(kind, g, target, sol.value, cert)


def sigma(g: FiniteGroup, node_budget: int = DEFAULT_NODE_BUDGET) -> InvariantReport:
    """Covering number: least number of proper subgroups whose union is G.

    Infinite for cyclic groups (a generator lies in no proper subgroup);
    otherwise the maximal proper subgroups are the only candidates needed.
    """
    if g.is_cyclic:
        return InvariantReport("sigma", g, None, INFINITE, None, "G_cyclic")
    lat = all_subgroups(g)
    candidates = lat.maximal_subgroups
    return _solve("sigma", g, None, candidates, CertEntry, node_budget, lat.automorphisms)


def sigma_c(g: FiniteGroup, node_budget: int = DEFAULT_NODE_BUDGET) -> InvariantReport:
    """Cyclic covering number: least cover of G by proper cyclic subgroups.
    The candidates are the points, with no lattice and no symmetry: each
    holds one point, so greedy meets the counting bound."""
    if g.is_cyclic:
        return InvariantReport("sigma_c", g, None, INFINITE, None, "G_cyclic")
    return _solve("sigma_c", g, None, maximal_cyclic_subgroups(g), CertEntry, node_budget)


def ic(g: FiniteGroup, h: FiniteGroup, node_budget: int = DEFAULT_NODE_BUDGET) -> InvariantReport:
    """Injective hom-complexity: least cover of G by subgroups that each
    embed into H.

    Fast paths: G embeds in H -> 1, asked only when |G| divides |H|, so
    the `embeds` cache keeps real searches; an element order of G missing
    from H -> infinite (and for finite G the converse holds, so the solver
    only runs on feasible instances).  Candidates are the maximal members
    of the proper subgroups that embed, from `lattice._maximal_orbits`: an
    automorphism of G maps S isomorphically onto a(S), so one embedding
    search decides an orbit.  Only the certificate's members get a witness,
    each found by the same search on its own table.
    """
    w = None if h.order % g.order else embeds(g, h)
    if w is not None:
        whole = make_subgroup(g, range(g.order))
        return InvariantReport("ic", g, h, finite(1), (CertEntry(whole, w),))
    if not spectrum_dominates(g, h):
        return InvariantReport(
            "ic", g, h, INFINITE, None, "spectrum_gap", missing_order(g, h)
        )
    if g.is_cyclic:  # cyclic + dominated spectrum would have embedded
        raise CheckFailed(f"cyclic {g.label} has the spectrum of {h.label} but did not embed")
    lat = all_subgroups(g)
    candidates = _maximal_orbits(
        lat.all,
        lat.orbit,
        lat.joins,
        lambda s: s.is_proper
        and h.order % s.order == 0
        and embeds(_subgroup_table(g, s.mask), h) is not None,
    )

    def witnessed(s: Subgroup) -> CertEntry:
        w = embeds(_subgroup_table(g, s.mask), h)
        if w is None:
            raise CheckFailed(f"{g.label}|{s.order}@{s.mask:x} does not embed in {h.label}")
        return CertEntry(s, w)

    return _solve("ic", g, h, candidates, witnessed, node_budget, lat.automorphisms)


@lru_cache(maxsize=CACHE_SIZE)
def _join(g: FiniteGroup, mask: int) -> Subgroup:
    """The subgroup generated by the elements of the mask.  Keyed by table,
    so a member pair shared by the certificates of IC(G;H) for several H,
    or by relabelled copies of G, is closed once."""
    return closure(g, _bits(mask))


def validate_optimal_ic_certificate(report: InvariantReport) -> bool:
    """Structural optimality conditions for a nonunitary IC certificate:

    (i) no member is contained in the union of the others (in particular no
        member is contained in another);
    (ii) each pair either generates the whole group or generates a subgroup
         that does not embed into the target.
    """
    if report.kind != "ic" or not report.value.is_finite or report.value.value <= 1:
        raise ValueError("expects a finite ic certificate of size > 1")
    g, h = report.group, report.target
    if report.certificate is None or h is None:
        raise ValueError("expects a certificate and a target group")
    subs = [e.subgroup for e in report.certificate]
    full = (1 << g.order) - 1
    for i in range(len(subs)):
        union = 0
        for j, s in enumerate(subs):
            if j != i:
                union |= s.mask
        if union == full:
            return False
    for i in range(len(subs)):
        for j in range(len(subs)):
            if i != j and subs[j].contains(subs[i]):
                return False
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            # the join holds the product set S_i S_j, of |S_i||S_j|/|S_i ^ S_j|
            # elements, so past |H| it cannot embed and needs no closure
            meet = (subs[i].mask & subs[j].mask).bit_count()
            if subs[i].order * subs[j].order > h.order * meet:
                continue
            joined = _join(g, subs[i].mask | subs[j].mask)
            if joined.order == g.order or h.order % joined.order:
                continue
            if embeds(_subgroup_table(g, joined.mask), h) is not None:
                return False
    return True


def certificate_sound(report: InvariantReport) -> bool:
    """Group-level re-validation of a finite certificate, independent of the
    solver's own instance bookkeeping: the members union to the whole group,
    none is redundant, the count matches the value, and the kind constraints
    hold (proper for sigma, proper cyclic for sigma_c, verified embeddings
    for ic)."""
    if not report.value.is_finite or report.certificate is None:
        return False
    g = report.group
    entries = report.certificate
    if len(entries) != report.value.value:
        return False
    full = (1 << g.order) - 1
    masks = [e.subgroup.mask for e in entries]
    union = 0
    for m in masks:
        union |= m
    if union != full:
        return False
    if len(entries) > 1:
        for i in range(len(entries)):
            rest = 0
            for j, m in enumerate(masks):
                if j != i:
                    rest |= m
            if rest == full:
                return False
    for e in entries:
        s = e.subgroup
        if report.kind in ("sigma", "sigma_c") and not s.is_proper:
            return False
        if report.kind == "sigma_c" and not s.is_cyclic:
            return False
        if report.kind == "ic":
            if e.embedding is None or report.target is None:
                return False
            if not is_embedding(_subgroup_table(g, s.mask), report.target, e.embedding):
                return False
    return True


# ---------------------------------------------------------------------------
# Theorem checkers
# ---------------------------------------------------------------------------

def check_triangle(g, h, k, *, ic_fn=None) -> bool:
    """IC(G;K) <= IC(G;H) * IC(H;K) in extended-natural arithmetic."""
    f = ic_fn or (lambda a, b: ic(a, b).value)
    return f(g, k) <= f(g, h) * f(h, k)


def check_bounds_sandwich(
    g, h, *, ic_fn=None, sigma_fn=None, sigma_c_fn=None, node_budget: int = DEFAULT_NODE_BUDGET
) -> bool:
    """sigma(G) <= IC(G;H) when G does not embed in H;
    IC(G;H) <= sigma_c(G) when H realizes every element order of G.
    Every search the check runs itself is under `node_budget`; `ic_fn`,
    `sigma_fn` and `sigma_c_fn` stand in for those searches, e.g. a sweep's
    memos."""
    f = ic_fn or (lambda a, b: ic(a, b, node_budget).value)
    sigma_of = sigma_fn or (lambda a: sigma(a, node_budget).value)
    sigma_c_of = sigma_c_fn or (lambda a: sigma_c(a, node_budget).value)
    value = f(g, h)
    ok = True
    if h.order % g.order or embeds(g, h) is None:
        ok = ok and sigma_of(g) <= value
    if spectrum_dominates(g, h):
        ok = ok and value <= sigma_c_of(g)
    return ok


def check_to_zp_formula(g: FiniteGroup, p: int, *, ic_fn=None) -> bool:
    """|G| = IC(G;C_p)(p-1)+1 and p | IC(G;C_p)-1, for finite IC."""
    f = ic_fn or (lambda a, b: ic(a, b).value)
    value = f(g, build(Cyclic(p)))
    if not value.is_finite:
        raise ValueError("IC(G;C_p) must be finite")
    k = value.value
    return g.order == k * (p - 1) + 1 and (k - 1) % p == 0


def check_subadditivity(g, h, a: Subgroup, b: Subgroup, c: Subgroup, *, ic_fn=None) -> bool:
    """max of the part values <= IC(G;H) <= their sum, for a triple cover
    of G by proper subgroups."""
    full = (1 << g.order) - 1
    for part in (a, b, c):
        if part.parent_order != g.order or not part.is_proper:
            raise InvalidPartition("parts must be proper subgroups of G")
    if a.mask | b.mask | c.mask != full:
        raise InvalidPartition("parts do not cover G")
    f = ic_fn or (lambda x, y: ic(x, y).value)
    parts = [f(as_group(g, part), h) for part in (a, b, c)]
    whole = f(g, h)
    return max(parts) <= whole <= parts[0] + parts[1] + parts[2]


def check_product_inequality(g1, g2, h1, h2, *, ic_fn=None) -> bool:
    """IC(G1xG2; H1xH2) <= IC(G1;H1) * IC(G2;H2)."""
    f = ic_fn or (lambda a, b: ic(a, b).value)
    return f(direct_product(g1, g2), direct_product(h1, h2)) <= f(g1, h1) * f(g2, h2)


def check_coordinate_injections(g, g2, h, h2, *, ic_fn=None) -> bool:
    """IC(G;HxH2) <= min of the factors, max over coordinates <= IC of the
    product, and the chain IC(G;HxH) <= IC(G;H) <= IC(GxG;H)."""
    f = ic_fn or (lambda a, b: ic(a, b).value)
    first = f(g, direct_product(h, h2)) <= min(f(g, h), f(g, h2))
    second = max(f(g, h), f(g2, h)) <= f(direct_product(g, g2), h)
    chain = f(g, direct_product(h, h)) <= f(g, h) <= f(direct_product(g, g), h)
    return first and second and chain


def _is_generalized_quaternion(g: FiniteGroup) -> bool:
    n = g.order
    if n < 8 or n & (n - 1):
        return False
    return are_isomorphic(g, build(GeneralizedQuaternion(n))) is not None


def _is_nonabelian_pq(g: FiniteGroup) -> bool:
    if g.is_abelian:
        return False
    n = g.order
    for p in range(2, n):
        if n % p == 0:
            q = n // p
            return p < q and _is_prime(p) and _is_prime(q)
    return False


def _is_noncyclic_p_by_p(g: FiniteGroup) -> bool:
    # every group of order p^2 is C_{p^2} or C_p x C_p
    if g.is_cyclic:
        return False
    root = round(g.order**0.5)
    return root * root == g.order and _is_prime(root)


def miller_moreno_classification(g: FiniteGroup) -> bool:
    """Membership (up to isomorphism) in {cyclic, generalized quaternion,
    non-abelian group of order pq}."""
    return g.is_cyclic or _is_generalized_quaternion(g) or _is_nonabelian_pq(g)


def check_miller_moreno(g: FiniteGroup) -> tuple[bool, str | None]:
    """Compare the all-proper-subgroups-cyclic predicate with the classified
    families; returns (ok, flag).  The two known boundary cases are ok with
    a flag naming them: C_p x C_p satisfies the predicate but is outside the
    list, and Q_{2^n} with n >= 4 is in the list but contains a non-cyclic
    Q8.  Any other mismatch is (False, "classification mismatch")."""
    if all_proper_subgroups_cyclic(g) == miller_moreno_classification(g):
        return True, None
    if _is_noncyclic_p_by_p(g):
        return True, "C_p x C_p has only cyclic proper subgroups but is outside the classified list"
    if g.order >= 16 and _is_generalized_quaternion(g):
        return True, "generalized quaternion of order >= 16 contains a non-cyclic Q8"
    return False, "classification mismatch"
