"""Corpus construction and sweep machinery."""

import itertools
from collections import Counter

import pytest

import grpinv.invariants
from grpinv.corpus import (
    DEFAULT_SUITE_BOUNDS,
    SUITES,
    SweepContext,
    corpus,
    run_suites,
)
from grpinv.cover import DEFAULT_NODE_BUDGET
from grpinv.errors import BudgetExceeded, CheckFailed
from grpinv.groups import Cyclic, Product, build, direct_product, finite
from grpinv.invariants import check_bounds_sandwich, check_triangle
from grpinv.iso import are_isomorphic


def test_corpus_is_deduplicated_up_to_isomorphism():
    entries = corpus(16)
    for a, b in itertools.combinations(entries, 2):
        if a.group.order != b.group.order:
            continue
        assert are_isomorphic(a.group, b.group) is None, (a.group.label, b.group.label)


def test_corpus_is_deterministic_and_sorted():
    entries = corpus(12)
    labels = [e.group.label for e in entries]
    assert labels == [e.group.label for e in corpus(12)]
    keys = [(e.group.order, e.group.label) for e in entries]
    assert keys == sorted(keys)
    assert len(set(labels)) == len(labels)


def test_corpus_prefers_short_representatives():
    labels = {e.group.label for e in corpus(16)}
    assert "C6" in labels and "C2 x C3" not in labels
    assert "D3" in labels and "SD(3,2)" not in labels
    assert {"Q8", "Q16", "C2^4", "D8"} <= labels


def test_corpus_orders_within_bound():
    assert all(e.group.order <= 24 for e in corpus(24))


def test_run_suites_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suites(["triangle", "nope"])


def test_run_suites_runs_a_repeated_name_once():
    once = run_suites(["examples"], max_order=8)
    twice = run_suites(["examples", "tozp", "examples"], max_order=8)
    assert [r.suite for r in twice.results] == ["examples"] * len(once.results) + ["tozp"] * (
        len(twice.results) - len(once.results)
    )
    assert twice.certificates_checked > once.certificates_checked


def test_examples_suite_respects_bound():
    report = run_suites(["examples"], max_order=8)
    names = [r.name for r in report.results]
    assert any("C2^2" in n for n in names)
    assert not any("C3^3" in n for n in names)
    assert all(r.status == "pass" for r in report.results)


def test_tozp_suite_small():
    ctx = SweepContext()
    results = SUITES["tozp"](ctx, 16)
    assert results and all(r.status == "pass" for r in results)
    names = " ".join(r.name for r in results)
    assert "tozp(C2^2;p=2)" in names and "tozp(C3^2;p=3)" in names


def test_miller_moreno_suite_flags_boundary_cases():
    ctx = SweepContext()
    results = SUITES["miller_moreno"](ctx, DEFAULT_SUITE_BOUNDS["miller_moreno"])
    assert not [r for r in results if r.status == "fail"]
    flagged = {r.name for r in results if r.status == "flag"}
    assert "miller_moreno(Q16)" in flagged
    assert "miller_moreno(C2^2)" in flagged
    passed = {r.name for r in results if r.status == "pass"}
    assert "miller_moreno(Q8)" in passed
    assert "miller_moreno(SD(7,3))" in passed


def test_bounds_suite_computes_sigma_once_per_group(monkeypatch):
    calls = Counter()
    for name in ("sigma", "sigma_c"):
        real = getattr(grpinv.invariants, name)

        def counted(g, *args, _real=real, _name=name, **kwargs):
            calls[_name, g.label] += 1
            return _real(g, *args, **kwargs)

        monkeypatch.setattr(grpinv.invariants, name, counted)
    ctx = SweepContext()
    results = SUITES["bounds"](ctx, 12)
    assert results and all(r.status == "pass" for r in results)
    assert calls and max(calls.values()) == 1
    # sigma and sigma_c stay out of the ledger: it counts the finite IC values
    assert ctx.certificates_checked == sum(
        v.is_finite for key, v in ctx._values.items() if key[0] == "ic"
    )


@pytest.mark.parametrize("budget", [1, 2, 3, 5])
def test_bounds_suite_skips_each_check_its_budget_stops(budget):
    # The memo keeps only values found, so every check that needs a sigma the
    # budget cannot reach is a skip, as when each check searches on its own.
    results = SUITES["bounds"](SweepContext(node_budget=budget), 8)
    groups = [e.group for e in corpus(8)]
    want = []
    for a, b in itertools.product(groups, repeat=2):
        try:
            want.append("pass" if check_bounds_sandwich(a, b, node_budget=budget) else "fail")
        except BudgetExceeded:
            want.append("skip")
    assert [r.status for r in results] == want
    assert "skip" in want and "pass" in want


def test_sweep_computes_ic_once_per_distinct_tables(monkeypatch):
    # what run_suites(["product", "subadd"], max_order=8) runs, on a context
    # the test can read
    calls = Counter()
    real = grpinv.invariants.ic

    def counted(g, h, *args, **kwargs):
        calls[g, h] += 1  # groups compare and hash by table
        return real(g, h, *args, **kwargs)

    monkeypatch.setattr(grpinv.invariants, "ic", counted)
    ctx = SweepContext()
    for suite in ("product", "subadd"):
        results = SUITES[suite](ctx, 8)
        assert results and all(r.status == "pass" for r in results)
    assert calls and max(calls.values()) == 1
    # relabelled copies, such as C2 x C2 of C2^2, are answered from the tables
    assert sum(key[0] == "ic" for key in ctx._values) > len(calls)
    # but the ledger still counts one certificate per label pair
    assert ctx.certificates_checked == sum(
        v.is_finite for key, v in ctx._values.items() if key[0] == "ic"
    )


def test_relabelled_copies_share_a_computation_but_not_a_ledger_line(monkeypatch):
    calls = []
    real = grpinv.invariants.ic

    def perturbed(g, h, *args, **kwargs):
        calls.append((g.label, h.label))
        report = real(g, h, *args, **kwargs)
        return report._replace(value=finite(report.value.value + 1))

    monkeypatch.setattr(grpinv.invariants, "ic", perturbed)
    ctx = SweepContext()
    c2 = build(Cyclic(2))
    ctx.ic_value(build(Product((Cyclic(2),) * 2)), c2)
    ctx.ic_value(direct_product(c2, c2), c2)
    assert calls == [("C2^2", "C2")]
    assert ctx.certificates_checked == 2
    assert ctx.certificate_failures == [
        "ic(C2^2;C2) certificate unsound",
        "ic(C2 x C2;C2) certificate unsound",
    ]


@pytest.mark.parametrize("budget", [1, 3, DEFAULT_NODE_BUDGET])
def test_triangle_suite_matches_check_triangle_over_a_label_memo(budget):
    results = SUITES["triangle"](SweepContext(node_budget=budget), 8)
    groups = [e.group for e in corpus(8)]
    memo = {}

    def ic_fn(g, h):
        key = (g.label, h.label)
        if key not in memo:
            memo[key] = grpinv.invariants.ic(g, h, budget).value
        return memo[key]

    want = []
    for a, b, c in itertools.product(groups, repeat=3):
        name = f"triangle({a.label};{b.label};{c.label})"
        try:
            status, detail = ("pass" if check_triangle(a, b, c, ic_fn=ic_fn) else "fail"), ""
        except BudgetExceeded as exc:
            status, detail = "skip", str(exc)
        except CheckFailed as exc:
            status, detail = "fail", str(exc)
        want.append((name, status, detail))
    assert [(r.name, r.status, r.detail) for r in results] == want
    statuses = {status for _, status, _ in want}
    assert statuses == ({"pass", "skip"} if budget < DEFAULT_NODE_BUDGET else {"pass"})
