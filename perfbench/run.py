"""grpinv benchmark.

    python3 perfbench/run.py --workload lattice|cover|verify|cli|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src`, and
every operation runs in a fresh interpreter, so caches start empty.  One
child process runs at a time.  With `--trace 0` a run repeats passes of the
workload while another fits in `--seconds` (at least one) and reports the
end-to-end metrics, with times scaled by a reference loop to undo drift in
machine speed; with `--trace 1` it runs each operation untraced and then
traced and reports the per-layer metrics.  Every output is checked.
The last line of standard output is the result object; the line before it
records the run's context.  Spans of a traced run go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

RUN_LIMIT_S = 170.0  # one run must end within 180 s
# The reference loop's time on an idle core of the 2-vCPU machine the bounds
# were set on; end-to-end times are scaled to that speed (see README.md).
REFERENCE_NOMINAL_S = 0.015
SETUP_BATCH = 3
REPEATS = 5
REPEAT_SECONDS = 1.5
INTERPRETER_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


class Run:
    """Child processes of one run, all bounded by the run's deadline.  The
    reference loop runs before each child, so its samples span the run."""

    def __init__(self):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.reference: list[float] = []

    def spawn(self, argv: list[str]) -> tuple[int | None, str, str, float]:
        """(exit code or None on timeout, stdout, stderr, spawn-to-exit seconds)"""
        self.reference.append(reference_loop())
        start = time.perf_counter()
        try:
            done = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            return None, "", "timed out", time.perf_counter() - start
        return done.returncode, done.stdout, done.stderr, time.perf_counter() - start

    def python(self, *args: str):
        return self.spawn([sys.executable, *args])

    def child(self, *args: str) -> dict | None:
        rc, out, err, _ = self.python(str(BENCH / "child.py"), *args)
        if rc != 0 or not out.strip():
            sys.stderr.write(f"child {' '.join(args)} exited {rc}: {err[-2000:]}\n")
            return None
        return json.loads(out.strip().splitlines()[-1])

    def sample_setup(self, setups: list[float], count: int) -> None:
        """Fresh interpreter until `import grpinv` returns.  The child reads
        the same monotonic clock as this process."""
        for _ in range(count):
            start = time.perf_counter()
            rc, out, err, _ = self.python("-c", "import time, grpinv; print(repr(time.perf_counter()))")
            if rc != 0:
                sys.stderr.write(f"import grpinv failed: {err[-2000:]}\n")
                return
            setups.append(float(out.strip()) - start)


class Tally:
    """Attempted and failed operations, and the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, name: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {'; '.join(errors)}")


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_op(run: Run, workload: str, seed: int, index: int, item, trace: bool, tally: Tally, expected):
    """One operation in a fresh interpreter: ({operation: seconds}, trace
    document or None).  Seconds are measured inside the child, except for
    the CLI, where they run from spawn to exit."""
    if workload != "cli":
        doc = run.child("op", workload, str(seed), str(index), "1" if trace else "0")
        if doc is None:
            tally.add(f"operation {index}", ["child process failed"])
            return {}, None
        for name, _, errors in doc["ops"]:
            tally.add(name, errors)
        doc["name"] = " | ".join(name for name, _, _ in doc["ops"])
        return {name: seconds for name, seconds, _ in doc["ops"]}, doc
    key, argv = item
    doc = None
    if trace:
        rc, out, err, seconds = run.python(str(BENCH / "child.py"), "cli", *argv)
        if rc == 0 and out.strip():
            doc = json.loads(out.strip().splitlines()[-1])
        stdout, rc = (doc["stdout"], doc["rc"]) if doc else ("", rc)
    else:
        rc, stdout, err, seconds = run.python("-m", "grpinv", *argv)
    errors = []
    if rc != 0:
        errors.append(f"exit {rc}: {err.strip()[-300:]}")
    elif workloads.normalize_cli_output(stdout) != expected[key]:
        errors.append(f"output {stdout[:200]!r} differs from the seed's")
    tally.add(" ".join(argv), errors)
    return {index: seconds}, doc


def run_pass(run: Run, workload: str, seed: int, tally: Tally, expected, setups: list[float]):
    """One untraced pass over the plan, with a set-up sample before about
    every fifth operation: (seconds of work, {operation: seconds}).

    A short `lattice` or `cover` query runs again, each time in a fresh
    interpreter, until it has REPEATS samples or REPEAT_SECONDS of work, and
    its time is the median.  The repeats come in rounds after the first, so
    that they spread over the pass instead of bunching.  The CLI already has
    100 invocations a pass.
    """
    samples: dict = {}

    def sample(index, item) -> bool:
        """Run once; True if the query should run again."""
        got = run_op(run, workload, seed, index, item, False, tally, expected)[0]
        for op, t in got.items():
            samples.setdefault(op, []).append(t)
        spent = [t for op in got for t in samples[op]]
        return bool(got) and len(spent) < REPEATS and sum(spent) < REPEAT_SECONDS

    plan = workloads.plan(workload, seed)
    again = []
    for index, item in enumerate(plan):
        if index % max(1, len(plan) // 5) == 0:
            run.sample_setup(setups, 1)
        if sample(index, item) and workload in ("lattice", "cover"):
            again.append((index, item))
    while again:
        again = [(index, item) for index, item in again if sample(index, item)]
    times = {op: statistics.median(ts) for op, ts in samples.items()}
    return sum(times.values()), times


def measure(run: Run, workload: str, seed: int, seconds: float, tally: Tally, context: dict) -> dict:
    """Passes while another fits in `seconds` (at least one).  Set-up is
    sampled at both ends of the run and during each pass, so that its median
    spans the run."""
    expected = workloads.load_cli_expected() if workload == "cli" else None
    setups: list[float] = []
    walls: list[float] = []
    by_op: dict = {}
    begin = time.perf_counter()
    run.sample_setup(setups, SETUP_BATCH)
    while True:
        pass_start = time.perf_counter()
        wall, times = run_pass(run, workload, seed, tally, expected, setups)
        walls.append(wall)
        for op, t in times.items():
            by_op.setdefault(op, []).append(t)
        now = time.perf_counter()
        took = now - pass_start
        if now - begin + took > seconds or now + took > run.deadline:
            break
    run.sample_setup(setups, SETUP_BATCH)
    if not setups or not by_op:
        return {}
    # one latency per operation (its median over passes), so the
    # percentiles do not depend on how many passes fitted
    latencies = [statistics.median(ts) for ts in by_op.values()]
    unscaled = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p90_ms": percentile(latencies, 90) * 1000.0,
    }
    reference = statistics.median(run.reference)
    context["passes"] = len(walls)
    context["samples"] = {"setup_s": len(setups), "operations": len(latencies), "reference": len(run.reference)}
    context["reference_s"] = reference
    context["unscaled"] = unscaled
    scale = REFERENCE_NOMINAL_S / reference
    return {
        **{name: value * scale for name, value in unscaled.items()},
        # largest resident set of any child this run has waited for
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def traced(run: Run, workload: str, seed: int, tally: Tally, context: dict) -> dict:
    """Each operation untraced and then traced, back to back, so that drift
    in machine speed does not pass for tracing overhead; per-layer metrics
    come from the traced runs."""
    bare = []
    for _ in range(INTERPRETER_SAMPLES):
        rc, _, _, seconds = run.python("-c", "pass")
        if rc == 0:
            bare.append(seconds)
    expected = workloads.load_cli_expected() if workload == "cli" else None
    overhead = 0.0
    docs = []
    for index, item in enumerate(workloads.plan(workload, seed)):
        untraced, _ = run_op(run, workload, seed, index, item, False, tally, expected)
        times, doc = run_op(run, workload, seed, index, item, True, tally, expected)
        overhead += sum(times.values()) - sum(untraced.values())
        if doc is not None:
            docs.append(doc)
    if not docs:
        return {}
    raws = [tracing.raw_totals(d["trace"]) for d in docs]
    metrics = tracing.layer_metrics(sum(raws, Counter()))
    parts = [tracing.cli_parts(raw) for raw in raws]
    metrics.update(
        {
            "cli.interpreter_s": statistics.median(bare) if bare else 0.0,
            "cli.import_s": statistics.median(d["import_s"] for d in docs),
            "cli.parse_s": statistics.median(p["cli.parse_s"] for p in parts),
            "cli.main_s": statistics.median(p["cli.main_s"] for p in parts),
            "trace.overhead_s": overhead,
        }
    )
    if workload != "cli":
        context["nodes"] = {d["name"]: d["trace"]["counts"].get("cover.nodes", 0) for d in docs}
    context["spans_file"] = str(write_spans(workload, seed, docs).relative_to(ROOT))
    return {name: metrics[name] for name in tracing.LAYER_METRICS}


def write_spans(workload: str, seed: int, docs: list[dict]) -> Path:
    """All spans of the traced runs in one file, as rows of (name, parent,
    start, end, operation); each operation ran in its own interpreter."""
    names: list[str] = []
    rows = []
    for op, doc in enumerate(docs):
        trace = doc["trace"]
        remap = []
        for name in trace["names"]:
            if name not in names:
                names.append(name)
            remap.append(names.index(name))
        offset = len(rows)
        for nid, parent, start, end in trace["spans"]:
            rows.append([remap[nid], parent + offset if parent >= 0 else -1, start, end, op])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "names": names, "spans": rows}))
    return path


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_context(workload: str, seed: int, trace: bool) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg_start": os.getloadavg(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    run = Run()
    tally = Tally()
    context = run_context(workload, seed, trace)
    if trace:
        values = traced(run, workload, seed, tally, context)
        units = tracing.LAYER_METRICS
    else:
        values = measure(run, workload, seed, seconds, tally, context)
        units = END_TO_END
    context["fail_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0
    context["errors"] = tally.errors
    print(json.dumps(context))
    if not values:
        sys.stderr.write(f"{workload}: no pass completed, so there is nothing to report\n")
        return None
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.trace:
        parser.error("--workload all is for the traced run (--trace 1)")
    if not (SRC / "grpinv" / "__init__.py").is_file():
        print(f"perfbench: no grpinv package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
