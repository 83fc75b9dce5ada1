"""Deterministic corpus of family-constructible groups and the theorem sweep.

The corpus enumerates every Cyclic/Dihedral/GeneralizedQuaternion/
SemidirectPQ atom and every product of such atoms up to a given order, then
deduplicates up to isomorphism keeping the shortest label.  The suites replay
the inequality theorems and the worked-example table over it; every finite
invariant computed along the way has its certificate re-validated.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from functools import lru_cache, partial

from . import invariants as inv
from .errors import BudgetExceeded, CheckFailed
from .cover import DEFAULT_NODE_BUDGET
from .groups import (
    CACHE_SIZE,
    Cyclic,
    Dihedral,
    ExtNat,
    FiniteGroup,
    GeneralizedQuaternion,
    GroupSpec,
    PermGroup,
    Product,
    Record,
    SemidirectPQ,
    _is_prime,
    build,
    spec_order,
    spec_text,
)
from .iso import are_isomorphic, order_spectrum, spectrum_dominates
from .lattice import all_subgroups, as_group, totient_cover_bound

DEFAULT_SUITE_BOUNDS = {
    "triangle": 16,
    "bounds": 24,
    "tozp": 32,
    "subadd": 12,
    "product": 32,
    "coordinate": 32,
    "miller_moreno": 32,
    "examples": 128,
}


class CheckResult(
    Record, namedtuple("CheckResult", "suite name status detail elapsed", defaults=("", 0.0))
):
    __slots__ = ()  # status: "pass" | "fail" | "flag" | "skip"


class CorpusEntry(Record, namedtuple("CorpusEntry", "spec group")):
    __slots__ = ()


def _atom_specs(bound: int) -> list[GroupSpec]:
    atoms: list[GroupSpec] = [Cyclic(n) for n in range(1, bound + 1)]
    atoms += [Dihedral(n) for n in range(3, bound // 2 + 1)]
    m = 8
    while m <= bound:
        atoms.append(GeneralizedQuaternion(m))
        m *= 2
    for q in range(3, bound + 1):
        if not _is_prime(q):
            continue
        for p in range(2, q):
            if _is_prime(p) and (q - 1) % p == 0 and p * q <= bound:
                atoms.append(SemidirectPQ(q, p))
    return atoms


def corpus_specs(bound: int) -> list[GroupSpec]:
    """All candidate specs (atoms and products of atoms) up to the bound."""
    atoms = _atom_specs(bound)
    atoms.sort(key=lambda a: (spec_order(a), spec_text(a)))
    nontrivial = [a for a in atoms if spec_order(a) >= 2]
    products: list[GroupSpec] = []

    def grow(start: int, order: int, factors: list[GroupSpec]):
        if len(factors) >= 2:
            products.append(Product(tuple(factors)))
        for i in range(start, len(nontrivial)):
            o = spec_order(nontrivial[i])
            if order * o > bound:
                break
            grow(i, order * o, factors + [nontrivial[i]])

    grow(0, 1, [])
    return atoms + products


@lru_cache(maxsize=CACHE_SIZE)
def corpus(bound: int) -> tuple[CorpusEntry, ...]:
    """Family-constructible groups up to the bound, one per isomorphism
    class, sorted by (order, label).  Shorter labels win the dedup, so C6
    represents C2 x C3 and D3 represents SD(3,2)."""
    candidates = [
        CorpusEntry(spec, build(spec, max_order=bound)) for spec in corpus_specs(bound)
    ]
    candidates.sort(key=lambda e: (e.group.order, len(e.group.label), e.group.label))
    kept: list[CorpusEntry] = []
    buckets: dict[tuple, list[CorpusEntry]] = {}
    for entry in candidates:
        g = entry.group
        key = (g.order, tuple(sorted(order_spectrum(g).items())))
        bucket = buckets.setdefault(key, [])
        if any(are_isomorphic(g, seen.group) is not None for seen in bucket):
            continue
        bucket.append(entry)
        kept.append(entry)
    kept.sort(key=lambda e: (e.group.order, e.group.label))
    return tuple(kept)


# ---------------------------------------------------------------------------
# Sweep context: memoized invariants + certificate bookkeeping
# ---------------------------------------------------------------------------

class SweepContext:
    """A label-keyed memo for the invariant calls a sweep repeats, plus the
    certificate-soundness ledger backing the verify report.

    The ledger is kept by label: each label pair counts one certificate and
    gets its own failure lines.  Under it, each distinct (kind, tables) is
    computed and re-validated once per context.  Groups, reports and every
    cache under the invariants compare by table, so a relabelled copy would
    get an equal report and the same verdict."""

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET):
        self.node_budget = node_budget
        # (kind, *labels) -> value
        self._values: dict[tuple[str, ...], ExtNat] = {}
        # (kind, *groups) -> (value, what its re-validation found wrong)
        self._checked: dict[tuple, tuple[ExtNat, tuple[str, ...]]] = {}
        self.certificates_checked = 0
        self.certificate_failures: list[str] = []

    def _check(self, kind: str, groups: tuple[FiniteGroup, ...]):
        """`inv.<kind>` on the groups, with its re-validation, once per
        distinct tables.  Nothing is kept of a call that raises, so a value
        the budget cannot reach is searched for again by each caller."""
        key = (kind, *groups)
        found = self._checked.get(key)
        if found is None:
            report = getattr(inv, kind)(*groups, self.node_budget)
            found = self._checked[key] = (report.value, _problems(report))
        return found

    def _value(self, key: tuple[str, ...], *groups: FiniteGroup) -> ExtNat:
        """The value of `inv.<key[0]>` on the groups, whose labels make up
        the rest of the key; noted in the ledger once per key.  The callers
        build the key inline: `verify` makes 8,862 lookups, 4,040 of them
        hits, and a key assembled here from the groups costs three times as
        much per hit."""
        value = self._values.get(key)
        if value is None:
            value, problems = self._check(key[0], groups)
            if value.is_finite:
                self.certificates_checked += 1
                name = f"{key[0]}({';'.join(key[1:])})"
                self.certificate_failures.extend(f"{name} {p}" for p in problems)
            self._values[key] = value
        return value

    def ic_value(self, g: FiniteGroup, h: FiniteGroup) -> ExtNat:
        return self._value(("ic", g.label, h.label), g, h)

    def sigma_value(self, g: FiniteGroup) -> ExtNat:
        return self._value(("sigma", g.label), g)

    def sigma_c_value(self, g: FiniteGroup) -> ExtNat:
        return self._value(("sigma_c", g.label), g)


def _problems(report) -> tuple[str, ...]:
    """What re-validating a finite report's certificate, and for an ic value
    above 1 its optimality conditions, finds wrong."""
    if not report.value.is_finite:
        return ()
    problems = []
    if not inv.certificate_sound(report):
        problems.append("certificate unsound")
    if report.kind == "ic" and report.value.value > 1:
        if not inv.validate_optimal_ic_certificate(report):
            problems.append("optimality conditions fail")
    return tuple(problems)


# ---------------------------------------------------------------------------
# Suites: each yields (name, check) cases, and one driver runs them
# ---------------------------------------------------------------------------

def _run(suite: str, name: str, check) -> CheckResult:
    """Run one case; `check` returns ok or (ok, detail), where ok is a bool
    or a status string such as "flag".  An exhausted budget is a skip and a
    failed re-check a fail, so no case stops the sweep."""
    start = time.perf_counter()
    try:
        outcome = check()
    except BudgetExceeded as exc:
        return CheckResult(suite, name, "skip", str(exc), time.perf_counter() - start)
    except CheckFailed as exc:
        return CheckResult(suite, name, "fail", str(exc), time.perf_counter() - start)
    ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
    status = ok if isinstance(ok, str) else "pass" if ok else "fail"
    return CheckResult(suite, name, status, detail, time.perf_counter() - start)


def _sweep(suite: str, cases):
    """The suite `(ctx, bound) -> list[CheckResult]` that runs every case
    `cases(ctx, bound)` yields, in order."""

    def run(ctx: SweepContext, bound: int) -> list[CheckResult]:
        return [_run(suite, name, check) for name, check in cases(ctx, bound)]

    return run


def _triangle(ctx: SweepContext, bound: int) -> list[CheckResult]:
    """IC(G;K) <= IC(G;H) * IC(H;K) over all ordered corpus triples.

    The table holds each ordered pair's outcome: its IC value as an int,
    None when infinite, or the (status, detail) of the exception asking
    `ctx` for it raised.  So a triple only compares, as `check_triangle`
    does, and joins a name from a prefix per pair.  A triple missing a value
    reports the first missing one in the checker's order IC(G;K), IC(G;H),
    IC(H;K), as a skip or a fail, as `_run` would.  Rows keep `elapsed`
    0.0: the IC work is done, untimed, while the table is built."""
    groups = [e.group for e in corpus(bound)]
    table: list[list[int | None | tuple[str, str]]] = []
    for g in groups:
        row: list[int | None | tuple[str, str]] = []
        for h in groups:
            try:
                row.append(ctx.ic_value(g, h).value)
            except BudgetExceeded as exc:
                row.append(("skip", str(exc)))
            except CheckFailed as exc:
                row.append(("fail", str(exc)))
        table.append(row)

    tails = [f"{g.label})" for g in groups]
    passed, failed = ("pass", ""), ("fail", "")
    results: list[CheckResult] = []
    for a, row_a in zip(groups, table):
        for b, gh, row_b in zip(groups, row_a, table):
            prefix = f"triangle({a.label};{b.label};"
            for tail, gk, hk in zip(tails, row_a, row_b):
                if type(gk) is tuple:
                    outcome = gk
                elif type(gh) is tuple:
                    outcome = gh
                elif type(hk) is tuple:
                    outcome = hk
                elif gh is None or hk is None or gk is not None and gk <= gh * hk:
                    outcome = passed
                else:
                    outcome = failed
                results.append(CheckResult("triangle", prefix + tail, *outcome))
    return results


def _bounds_cases(ctx: SweepContext, bound: int):
    """sigma <= IC <= sigma_c sandwich over all ordered corpus pairs.

    sigma and sigma_c come from `ctx` by value only: they are computed once
    per group and sweep, the examples table's included, and stay out of the
    certificate ledger, which counts the IC values and the examples table.
    `ctx` keeps nothing of a search that raises, so a value the budget
    cannot reach is searched for again, and skipped, by each check needing it."""
    groups = [e.group for e in corpus(bound)]

    def sigma_fn(g):
        return ctx._check("sigma", (g,))[0]

    def sigma_c_fn(g):
        return ctx._check("sigma_c", (g,))[0]

    for a, b in itertools.product(groups, repeat=2):
        yield (
            f"bounds({a.label};{b.label})",
            partial(
                inv.check_bounds_sandwich,
                a,
                b,
                ic_fn=ctx.ic_value,
                sigma_fn=sigma_fn,
                sigma_c_fn=sigma_c_fn,
            ),
        )


def _tozp_cases(ctx: SweepContext, bound: int):
    """The |G| = IC(G;C_p)(p-1)+1 identities for every finite IC(G;C_p).

    IC(G;C_p) is finite exactly when every non-identity element of G has
    order p, so other primes and groups are skipped silently, without a
    search.
    """
    entries = corpus(bound)
    cyclic_by_order = {
        e.group.order: e.group for e in entries if isinstance(e.spec, Cyclic)
    }
    for e in entries:
        g = e.group
        if g.order == 1:
            continue
        for p in range(2, g.order + 1):
            if g.order % p or not _is_prime(p):
                continue
            if not spectrum_dominates(g, cyclic_by_order[p]):
                continue
            yield f"tozp({g.label};p={p})", partial(
                inv.check_to_zp_formula, g, p, ic_fn=ctx.ic_value
            )


def _subadd_cases(ctx: SweepContext, bound: int):
    """Sub-additivity over every proper-triple cover of every corpus group,
    against every corpus target.  The trivial subgroup never participates in
    a triple cover (two proper subgroups cannot cover a group)."""
    entries = corpus(bound)
    for e in entries:
        g = e.group
        if g.is_cyclic:
            continue
        lat = all_subgroups(g)
        proper = [s for s in lat.all if s.is_proper and s.order > 1]
        full = (1 << g.order) - 1
        triples = [
            t
            for t in itertools.combinations(proper, 3)
            if t[0].mask | t[1].mask | t[2].mask == full
        ]
        for a, b, c in triples:
            for he in entries:
                name = (
                    f"subadd({g.label};{he.group.label};"
                    f"{a.order}@{a.mask:x},{b.order}@{b.mask:x},{c.order}@{c.mask:x})"
                )
                yield name, partial(
                    inv.check_subadditivity, g, he.group, a, b, c, ic_fn=ctx.ic_value
                )


def _shrink(g: FiniteGroup) -> FiniteGroup:
    """Canonical proper shrink: the first maximal subgroup, materialized;
    the trivial group shrinks to itself."""
    if g.order == 1:
        return g
    lat = all_subgroups(g)
    return as_group(g, lat.maximal_subgroups[0])


def _product_cases(ctx: SweepContext, bound: int):
    """IC(G1xG2;H1xH2) <= IC(G1;H1)*IC(G2;H2) over ordered corpus pairs with
    product order within the bound; each pair is checked against the
    identity-shaped targets (X,Y) and the shrunk targets (maximal subgroup
    on one side), which reproduces the tower-style applications."""
    groups = [e.group for e in corpus(bound)]
    for x, y in itertools.product(groups, repeat=2):
        if x.order * y.order > bound:
            continue
        quads = [
            ("same", x, y, x, y),
            ("shrinkL", x, y, _shrink(x), y),
            ("shrinkR", x, y, x, _shrink(y)),
        ]
        for tag, g1, g2, h1, h2 in quads:
            yield (
                f"product[{tag}]({g1.label},{g2.label};{h1.label},{h2.label})",
                partial(inv.check_product_inequality, g1, g2, h1, h2, ic_fn=ctx.ic_value),
            )


def _coordinate_cases(ctx: SweepContext, bound: int):
    """Coordinate-injection inequalities and the product chain, over ordered
    pairs whose squares and mixed product all stay within the bound (the
    chain builds GxG and HxH)."""
    groups = [e.group for e in corpus(bound)]
    for a, b in itertools.product(groups, repeat=2):
        na, nb = a.order, b.order
        if na * nb > bound or na * na > bound or nb * nb > bound:
            continue
        yield (
            f"coordinate({a.label};{b.label})",
            partial(inv.check_coordinate_injections, a, b, b, a, ic_fn=ctx.ic_value),
        )


def _miller_moreno_cases(ctx: SweepContext, bound: int):
    """Cyclic-proper-subgroups predicate vs the classified families, with
    the known boundary cases reported as flags."""

    def check(g):
        ok, flag = inv.check_miller_moreno(g)
        return ("flag" if ok and flag else ok), flag or ""

    for e in corpus(bound):
        yield f"miller_moreno({e.group.label})", partial(check, e.group)


# ---------------------------------------------------------------------------
# Worked-example oracle table (plus strictness and invariance witnesses)
# ---------------------------------------------------------------------------

def _example_rows():
    C = Cyclic
    rows: list[tuple[str, str, object]] = []
    ic_rows = [
        (Product((C(2),) * 2), C(2), 3),
        (Product((C(2),) * 3), C(2), 7),
        (Product((C(3),) * 2), C(3), 4),
        (Product((C(3),) * 3), C(3), 13),
        (Product((C(3),) * 2), C(9), 4),
        (Product((C(2),) * 2), C(4), 3),
        (Dihedral(5), C(10), 6),
        (Dihedral(3), C(6), 4),
        (Product((C(2),) * 3), Product((C(2),) * 2), 3),
        (Product((C(2),) * 4), Product((C(2),) * 3), 3),
    ]
    for gspec, hspec, want in ic_rows:
        rows.append(("ic", f"{spec_text(gspec)};{spec_text(hspec)}", (gspec, hspec, want)))
    for p in (2, 3, 5):
        rows.append(("sigma", f"C{p}^2", (Product((C(p),) * 2), None, p + 1)))
    rows.append(("sigma", "C3^3", (Product((C(3),) * 3), None, 4)))
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        rows.append(
            ("sigmac", f"C{p}^{n}", (Product((C(p),) * n), None, (p**n - 1) // (p - 1)))
        )
    rows.append(("ic", "C4;C2", (C(4), C(2), "infinite")))
    for n in range(2, 17):
        rows.append(("sigma", f"C{n}", (C(n), None, "infinite")))
    return rows


def _examples_cases(ctx: SweepContext, bound: int):
    """The worked-example oracle table: exact integer (or infinite) values,
    plus the strictness witnesses and the isomorphism-invariance check."""

    def row(kind, gspec, hspec, want):
        g = build(gspec, max_order=max(bound, 32))
        if kind == "ic":
            value = ctx.ic_value(g, build(hspec, max_order=max(bound, 32)))
        elif kind == "sigma":
            value = ctx.sigma_value(g)
        else:
            value = ctx.sigma_c_value(g)
        shown = str(value)
        target = "infinite" if want == "infinite" else str(want)
        return shown == target, f"got {shown}, want {target}"

    for kind, label, (gspec, hspec, want) in _example_rows():
        order = spec_order(gspec)
        if order is None or order > bound:
            continue
        yield f"{kind}({label})", partial(row, kind, gspec, hspec, want)

    def strict_totient():
        q8 = build(GeneralizedQuaternion(8))
        bound_val = totient_cover_bound(q8)
        sc = ctx.sigma_c_value(q8)
        ok = bound_val == ExtNat(4) and sc == ExtNat(3) and sc < bound_val
        return ok, f"totient bound {bound_val}, sigma_c {sc}"

    if bound >= 8:
        yield "strict(totient_bound(Q8)>sigma_c(Q8))", strict_totient

    def strict_gap():
        g = build(Product((Cyclic(3),) * 3))
        icv = ctx.ic_value(g, build(Cyclic(3)))
        sv = ctx.sigma_value(g)
        ok = icv.is_finite and sv.is_finite and icv.value - sv.value == 9
        return ok, f"ic {icv}, sigma {sv}"

    if bound >= 27:
        yield "strict(ic(C3^3;C3)-sigma(C3^3)=9)", strict_gap

    def iso_invariance():
        a = ctx.ic_value(build(Dihedral(3)), build(Cyclic(6)))
        b = ctx.ic_value(
            build(PermGroup((((1, 2, 3),), ((1, 2),)))),
            build(Product((Cyclic(2), Cyclic(3)))),
        )
        return a == b, f"got {a} vs {b}"

    if bound >= 6:
        yield "invariance(ic(D3;C6)=ic(Perm;C2xC3))", iso_invariance


# Each entry is its own callable `(ctx, bound) -> list[CheckResult]`; every
# one but `_triangle`, whose triples skip `_run`, is a `_sweep` over its
# suite's cases.  The entries' order is the order `verify` runs them in.
SUITES = {
    "triangle": _triangle,
    "bounds": _sweep("bounds", _bounds_cases),
    "tozp": _sweep("tozp", _tozp_cases),
    "subadd": _sweep("subadd", _subadd_cases),
    "product": _sweep("product", _product_cases),
    "coordinate": _sweep("coordinate", _coordinate_cases),
    "miller_moreno": _sweep("miller_moreno", _miller_moreno_cases),
    "examples": _sweep("examples", _examples_cases),
}
SUITE_NAMES = tuple(SUITES)


class VerifyReport(
    Record,
    namedtuple(
        "VerifyReport", "results certificates_checked certificate_failures", defaults=((), 0, ())
    ),
):
    """results: the CheckResults in suite order; certificate_failures: one
    line per unsound certificate."""

    __slots__ = ()

    @property
    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    @property
    def skipped(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "skip"]

    @property
    def flagged(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "flag"]


def run_suites(
    names=None,
    max_order: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> VerifyReport:
    # a repeated name runs once, where it first appears
    names = list(dict.fromkeys(names)) if names else list(SUITE_NAMES)
    for n in names:
        if n not in SUITES:
            raise ValueError(f"unknown suite {n!r} (choose from {', '.join(SUITE_NAMES)})")
    ctx = SweepContext(node_budget)
    results: list[CheckResult] = []
    for n in names:
        bound = max_order if max_order is not None else DEFAULT_SUITE_BOUNDS[n]
        results.extend(SUITES[n](ctx, bound))
    return VerifyReport(results, ctx.certificates_checked, list(ctx.certificate_failures))
