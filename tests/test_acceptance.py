"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the theorem sweeps reuse the verify machinery at the stated bounds.
"""

import itertools
import random
import time

import pytest

import test_cover
import test_lattice
from grpinv.corpus import corpus, run_suites
from grpinv.cover import min_cover
from grpinv.groups import (
    INFINITE,
    Cyclic,
    Dihedral,
    GeneralizedQuaternion,
    PermGroup,
    Product,
    build,
    finite,
)
from grpinv.invariants import ic, sigma, sigma_c
from grpinv.lattice import all_subgroups, totient_cover_bound

SWEEP_SUITES = ["triangle", "bounds", "tozp", "subadd", "product", "coordinate"]


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: criterion {number} - {detail}")


@pytest.fixture(scope="module")
def examples_run():
    start = time.perf_counter()
    report = run_suites(["examples"])
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep_run():
    start = time.perf_counter()
    report = run_suites(SWEEP_SUITES)
    return report, time.perf_counter() - start


def test_criterion_1_paper_example_table(examples_run):
    report, _ = examples_run
    failures = [r for r in report.results if r.status != "pass"]
    slow = [r for r in report.results if r.elapsed > 10.0]
    ok = not failures and not slow and len(report.results) == 38
    report_line(
        1, ok,
        f"paper example table: {len(report.results)} lines reproduced exactly, "
        f"max {max(r.elapsed for r in report.results):.2f}s per line",
    )
    assert not failures, failures
    assert not slow, slow


def test_criterion_2_theorem_sweeps(sweep_run):
    report, elapsed = sweep_run
    failures = report.failed
    counts = {}
    for r in report.results:
        counts[r.suite] = counts.get(r.suite, 0) + 1
    ok = not failures and not report.skipped and elapsed <= 300.0
    report_line(
        2, ok,
        "theorem sweeps with zero violations: "
        + ", ".join(f"{suite}={counts[suite]}" for suite in SWEEP_SUITES)
        + f" in {elapsed:.0f}s",
    )
    assert not failures, failures[:10]
    assert not report.skipped
    assert elapsed <= 300.0


def test_criterion_3_oracle_equivalence():
    rng = random.Random(0x5E7C0FE2)
    mismatches = 0
    for _ in range(500):
        inst = test_cover.random_instance(rng)
        sol = min_cover(inst)
        oracle = test_cover.exhaustive_min_cover(inst)
        if oracle is None:
            if sol.value != INFINITE:
                mismatches += 1
        elif sol.value != finite(len(oracle)) or sol.certificate != oracle:
            mismatches += 1
    lattice_bad = []
    entries = corpus(24)
    for e in entries:
        got = {s.mask for s in all_subgroups(e.group).all}
        want = test_lattice.brute_force_subgroup_masks(e.group)
        if got != want:
            lattice_bad.append(e.group.label)
    ok = mismatches == 0 and not lattice_bad
    report_line(
        3, ok,
        f"min_cover matched exhaustive search on 500/500 instances; "
        f"all_subgroups matched subset filtering on {len(entries)} groups of order <= 24",
    )
    assert mismatches == 0
    assert not lattice_bad, lattice_bad


def test_criterion_4_certificate_soundness(examples_run, sweep_run):
    checked = examples_run[0].certificates_checked + sweep_run[0].certificates_checked
    failures = (
        examples_run[0].certificate_failures + sweep_run[0].certificate_failures
    )
    ok = checked > 0 and not failures
    report_line(
        4, ok,
        f"certificate soundness: {checked} finite certificates validated "
        f"(cover + optimality conditions), {len(failures)} unsound",
    )
    assert checked > 0
    assert not failures, failures[:10]


def test_criterion_5_strictness_witnesses():
    q8 = build(GeneralizedQuaternion(8))
    bound = totient_cover_bound(q8)
    sc = sigma_c(q8).value
    c27 = build(Product((Cyclic(3),) * 3))
    gap = ic(c27, build(Cyclic(3))).value.value - sigma(c27).value.value
    ok = bound == finite(4) and sc == finite(3) and gap == 9
    report_line(
        5, ok,
        f"strictness: totient bound(Q8)={bound} > sigma_c(Q8)={sc}; "
        f"ic(C3^3;C3)-sigma(C3^3)={gap}",
    )
    assert bound == finite(4) and sc == finite(3)
    assert sc < bound
    assert gap == 9


def test_criterion_6_isomorphism_invariance():
    a = ic(build(Dihedral(3)), build(Cyclic(6))).value
    b = ic(
        build(PermGroup((((1, 2, 3),), ((1, 2),)))),
        build(Product((Cyclic(2), Cyclic(3)))),
    ).value
    ok = a == b
    report_line(6, ok, f"ic(D3;C6) = {a} equals ic(Perm[(1 2 3);(1 2)];C2 x C3) = {b}")
    assert a == b


def test_acceptance_sweep_triples_cover_required_domains(sweep_run):
    """The sweeps actually ranged over the acceptance domains."""
    report, _ = sweep_run
    names = {r.suite: [] for r in report.results}
    for r in report.results:
        names[r.suite].append(r.name)
    n16 = len(corpus(16))
    assert len(names["triangle"]) == n16**3
    assert len(names["bounds"]) == len(corpus(24)) ** 2
    assert any("C2^5" in n for n in names["tozp"])
    assert any("D4" in n for n in names["subadd"])
