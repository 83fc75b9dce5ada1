"""Record the expected output of every CLI query into cli_expected.json.

    PYTHONPATH=src python3 perfbench/record_cli.py

Run it on a commit whose outputs are trusted; the benchmark compares every
invocation against the file.  Before recording, each finite invariant's
certificate is re-validated through the library.
"""

from __future__ import annotations

import contextlib
import io
import json

import workloads
from grpinv import build, certificate_sound, ic, sigma, sigma_c, validate_optimal_ic_certificate
from grpinv.cli import main, parse_spec

INVARIANTS = {"ic": ic, "sigma": sigma, "sigmac": sigma_c}


def record() -> dict[str, str]:
    expected = {}
    for query in workloads.CLI_QUERIES:
        command, specs, flags = query
        if command in INVARIANTS:
            report = INVARIANTS[command](*(build(parse_spec(s)) for s in specs))
            if report.value.is_finite:
                if not certificate_sound(report):
                    raise SystemExit(f"{workloads.query_key(query)}: certificate unsound")
                if command == "ic" and report.value.value > 1 and not validate_optimal_ic_certificate(report):
                    raise SystemExit(f"{workloads.query_key(query)}: optimality conditions fail")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([command, *specs, *flags])
        if rc != 0:
            raise SystemExit(f"{workloads.query_key(query)}: exit {rc}")
        expected[workloads.query_key(query)] = workloads.normalize_cli_output(out.getvalue())
    return expected


if __name__ == "__main__":
    workloads.CLI_EXPECTED_FILE.write_text(json.dumps(record(), indent=1) + "\n")
