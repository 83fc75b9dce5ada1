"""One operation of a workload in a fresh interpreter, started by run.py.

    python perfbench/child.py op <workload> <seed> <index> <trace 0|1>
    python perfbench/child.py cli <grpinv argument>...

`op` runs operation <index> of the workload's plan for that seed and checks
its result; for `verify` the one operation is the whole `run_suites()`,
reported per suite.  `cli` runs one traced `grpinv` invocation in process,
for the traced CLI pass; the untraced pass runs `python -m grpinv` itself.
Both print one JSON document as the last line of standard output.  The
package comes from `src` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import tracing


def _import_grpinv():
    start = time.perf_counter()
    import grpinv.cli  # noqa: F401  what `python -m grpinv` imports

    return time.perf_counter() - start


def _check_lattice(op, parsed):
    from grpinv import groups, invariants, lattice

    kind, spec, want_value, want_subgroups = op
    start = time.perf_counter()
    g = groups.build(parsed[0])
    invariant = invariants.sigma if kind == "sigma" else invariants.sigma_c
    report = invariant(g)
    sound = invariants.certificate_sound(report)
    subgroups = len(lattice.all_subgroups(g).all)
    seconds = time.perf_counter() - start
    errors = []
    if report.value.value != want_value:
        errors.append(f"{kind}({spec}) = {report.value}, want {want_value}")
    if not sound:
        errors.append(f"{kind}({spec}) certificate unsound")
    if subgroups != want_subgroups:
        errors.append(f"{spec} has {subgroups} subgroups, want {want_subgroups}")
    return seconds, errors


def _check_cover(op, parsed):
    from grpinv import groups, invariants

    gspec, hspec, want = op
    start = time.perf_counter()
    g, h = groups.build(parsed[0]), groups.build(parsed[1])
    report = invariants.ic(g, h)
    sound = invariants.certificate_sound(report)
    optimal = report.value.value is None or report.value.value <= 1 or (
        invariants.validate_optimal_ic_certificate(report)
    )
    seconds = time.perf_counter() - start
    errors = []
    if report.value.value != want:
        errors.append(f"ic({gspec};{hspec}) = {report.value}, want {want}")
    if not sound:
        errors.append(f"ic({gspec};{hspec}) certificate unsound")
    if not optimal:
        errors.append(f"ic({gspec};{hspec}) fails the optimality conditions")
    return seconds, errors


def _run_verify():
    """`grpinv verify` at default bounds; one result per suite, timed by a
    wrapper around each suite function (eight calls, so no measurable cost)."""
    import workloads
    from grpinv import corpus

    suite_seconds = {}

    def timed(name, fn):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                suite_seconds[name] = time.perf_counter() - start

        return run

    originals = dict(corpus.SUITES)
    corpus.SUITES.update({n: timed(n, fn) for n, fn in originals.items()})
    try:
        report = corpus.run_suites()
    finally:
        corpus.SUITES.update(originals)
    shared = []
    if report.certificate_failures:
        shared.append(f"{len(report.certificate_failures)} unsound certificates")
    if report.certificates_checked != workloads.VERIFY_CERTIFICATES:
        shared.append(
            f"{report.certificates_checked} certificates, want {workloads.VERIFY_CERTIFICATES}"
        )
    if len(report.flagged) != workloads.VERIFY_FLAGS:
        shared.append(f"{len(report.flagged)} flags, want {workloads.VERIFY_FLAGS}")
    ops = []
    for suite, want in workloads.VERIFY_CHECKS.items():
        rs = [r for r in report.results if r.suite == suite]
        errors = list(shared)
        if len(rs) != want:
            errors.append(f"suite {suite}: {len(rs)} checks, want {want}")
        bad = [r for r in rs if r.status in ("fail", "skip")]
        if bad:
            errors.append(f"suite {suite}: {len(bad)} failed or skipped, first {bad[0].name}")
        ops.append([f"suite {suite}", suite_seconds.get(suite, 0.0), errors])
    return ops


def run_op(workload: str, seed: int, index: int, trace: bool) -> dict:
    import_s = _import_grpinv()
    import workloads
    from grpinv.cli import parse_spec

    op = workloads.plan(workload, seed)[index]
    if workload == "lattice":
        name, specs = " ".join(op[:2]), op[1:2]
    elif workload == "cover":
        name, specs = "ic " + " ".join(op[:2]), op[:2]
    else:
        name, specs = "run_suites", ()
    parsed = [parse_spec(s) for s in specs]  # not part of the measured work
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        if workload == "verify":
            ops_out = _run_verify()
        else:
            check = _check_lattice if workload == "lattice" else _check_cover
            ops_out = [[name, *check(op, parsed)]]
    except Exception:
        ops_out = [[name, time.perf_counter() - start, [traceback.format_exc(limit=3)]]]
    doc = {"import_s": import_s, "ops": ops_out}
    if tracer is not None:
        doc["trace"] = tracer.export()
    return doc


def run_cli(argv: list[str]) -> dict:
    import_s = _import_grpinv()
    from grpinv import cli

    tracer = tracing.Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return {"import_s": import_s, "rc": rc, "stdout": out.getvalue(), "trace": tracer.export()}


def main(argv: list[str]) -> int:
    if argv[:1] == ["op"] and len(argv) == 5:
        doc = run_op(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1")
    elif argv[:1] == ["cli"]:
        doc = run_cli(argv[1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
