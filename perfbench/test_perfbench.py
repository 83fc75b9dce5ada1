"""The benchmark's own rules: isolation, the seed contract, exact counts.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import tracing
import workloads
from grpinv import build
from grpinv.cli import parse_spec
from grpinv.cover import make_instance, min_cover
from grpinv.errors import BudgetExceeded
from grpinv.groups import normalize_spec
from grpinv.iso import are_isomorphic


@pytest.mark.parametrize("ops, column", [(workloads.LATTICE_OPS, 1), (workloads.COVER_OPS, 0)])
def test_no_two_operations_share_a_source_group(ops, column):
    groups = [build(parse_spec(op[column])) for op in ops]
    for g, h in itertools.combinations(groups, 2):
        assert g.label != h.label
        if g.order == h.order:
            assert are_isomorphic(g, h) is None, (g.label, h.label)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_only_permutes_operations(workload):
    def canonical(op):
        if workload != "cli":
            return op
        key, argv = op
        specs = [normalize_spec(parse_spec(a)) for a in argv[1:] if not a.startswith("--")]
        return key, tuple(specs)

    base = Counter(canonical(op) for op in workloads.plan(workload, 0))
    orders = set()
    for seed in range(1, 6):
        plan = workloads.plan(workload, seed)
        assert Counter(canonical(op) for op in plan) == base
        orders.add(tuple(map(str, plan)))
    assert workloads.plan(workload, 3) == workloads.plan(workload, 3)
    if workload != "verify":
        assert len(orders) > 1


def test_respelling_parses_to_the_same_group():
    rng = random.Random(0)
    spellings = set()
    for _command, specs, _flags in workloads.CLI_QUERIES:
        for spec in specs:
            want = normalize_spec(parse_spec(spec))
            for _ in range(20):
                text = workloads.respell(spec, rng)
                spellings.add(text)
                assert normalize_spec(parse_spec(text)) == want, text
    assert {"C2^2", "C2xC2", "C2*C2"} <= spellings


def test_every_cli_query_has_an_expected_output():
    assert set(workloads.load_cli_expected()) == {workloads.query_key(q) for q in workloads.CLI_QUERIES}
    assert len(workloads.plan("cli", 0)) >= 100


def test_cli_runs_the_module_with_src_on_the_path():
    calls = []

    class Recorder(run.Run):
        def spawn(self, argv):
            calls.append(argv)
            return 0, "", "", 0.25

    recorder = Recorder()
    assert recorder.env["PYTHONPATH"].split(":")[0] == str(run.SRC)
    expected = workloads.load_cli_expected()
    plan = workloads.plan("cli", 0)
    for index, item in enumerate(plan):
        run.run_op(recorder, "cli", 0, index, item, False, run.Tally(), expected)
    assert len(calls) == len(plan)
    assert all(argv[:3] == [sys.executable, "-m", "grpinv"] for argv in calls)


def test_tracer_wraps_every_import_site_and_restores_them():
    import grpinv.cli  # noqa: F401  loads every module

    originals = {
        name: getattr(sys.modules[module], attr) for name, module, attr in tracing.LAYER_FUNCTIONS
    }
    modules = [m for n, m in sys.modules.items() if n == "grpinv" or n.startswith("grpinv.")]
    sites = {
        name: [(m, k) for m in modules for k, v in vars(m).items() if v is fn]
        for name, fn in originals.items()
    }
    suites = dict(sys.modules["grpinv.corpus"].SUITES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            assert all(getattr(m, k) is not fn for m, k in sites[name]), name
        assert all(sys.modules["grpinv.corpus"].SUITES[s] is not f for s, f in suites.items())
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert all(getattr(m, k) is fn for m, k in sites[name]), name
    assert sys.modules["grpinv.corpus"].SUITES == suites


def test_node_count_is_exact():
    inst = make_instance(6, [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {1, 4}])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sys.modules["grpinv.cover"].min_cover(inst)
    finally:
        tracer.uninstall()
    nodes = tracer.counts["cover.nodes"]
    assert nodes > 0
    min_cover(inst, nodes)
    with pytest.raises(BudgetExceeded):
        min_cover(inst, nodes - 1)


def test_self_time_and_recursion():
    trace = {
        "names": ["a", "b"],
        # a(0..10) > b(1..4) > b(2..3); a(20..21)
        "spans": [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [1, 1, 2.0, 3.0], [0, -1, 20.0, 21.0]],
        "counts": {"x": 2},
    }
    raw = tracing.raw_totals(trace)
    assert raw["calls:a"] == 2 and raw["calls:b"] == 2
    assert raw["incl:a"] == 11.0 and raw["self:a"] == 8.0
    assert raw["incl:b"] == 3.0 and raw["self:b"] == 3.0
    assert raw["x"] == 2 and raw["spans"] == 4


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
