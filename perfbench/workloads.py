"""The benchmark's operations, their expected results, and the seed rule.

A seed only permutes the order of operations and the spelling of CLI specs
(`C2^2` / `C2xC2` / `C2*C2`); the set of operations never depends on it.
Expected values come from closed forms where one exists and otherwise from
the output of the seed commit.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

WORKLOADS = ("lattice", "cover", "verify", "cli")

S4 = "Perm[(1 2 3 4);(1 2)]"
A5 = "Perm[(1 2 3);(3 4 5)]"
S5 = "Perm[(1 2 3 4 5);(1 2)]"


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def dihedral_subgroup_count(n: int) -> int:
    """D_n (order 2n) has tau(n) rotation subgroups and sigma(n) others."""
    return divisor_count(n) + divisor_sum(n)


# (invariant, G, expected value, expected subgroup count of G).  Every G is
# non-abelian and appears once, so no query can reuse another's lattice.
LATTICE_OPS = (
    ("sigma", S4, 4, 30),  # Cohn
    ("sigma", A5, 10, 59),  # Cohn
    ("sigma", S5, 16, 156),  # Cohn
    ("sigma_c", "D24", 24 + 1, dihedral_subgroup_count(24)),  # sigma_c(D_n) = n+1
    ("sigma_c", "D32", 32 + 1, dihedral_subgroup_count(32)),
    ("sigma_c", "D48", 48 + 1, dihedral_subgroup_count(48)),
    ("sigma", "SD(7,3)xC3", 4, 36),  # seed output
    ("sigma_c", "D5xC2^2", 23, 76),  # seed output
    ("sigma", "D3xD3", 3, 60),  # seed output
    ("sigma_c", S4 + "xC2", 25, 98),  # seed output
)

# (G, H, expected IC(G;H)).  Every G is abelian and appears once.
COVER_OPS = (
    ("C2^6", "C2^4", 5),
    ("C2^4xC4", "C2^2xC4", 5),
    ("C2^2xC4^2", "C4^2", 8),
    ("C2^5", "C2^3", 5),
    ("C3^4", "C3^2", 10),
    ("C2^3xC4", "C4xC2", 7),
    ("C5^3", "C5", (5**3 - 1) // (5 - 1)),  # IC(C_p^n;C_p) = (p^n-1)/(p-1)
)

# `grpinv verify` at default bounds on the seed commit.
VERIFY_CHECKS = {
    "triangle": 42875,
    "bounds": 3249,
    "tozp": 18,
    "subadd": 286,
    "product": 954,
    "coordinate": 36,
    "miller_moreno": 88,
    "examples": 38,
}
VERIFY_CERTIFICATES = 1585
VERIFY_FLAGS = 5

# Small queries only: each costs a few milliseconds against a start-up of
# about a quarter second, so no single query sets the latency percentiles.
CLI_QUERIES = (
    ("ic", ("C2^2", "C2"), ()),
    ("sigmac", ("Q8",), ("--certificate",)),
    ("embeds", ("C2^2", "Q8"), ()),
    ("ic", ("C3^3", "C3"), ("--json", "--certificate")),
    ("ic", ("C4", "C2"), ()),
    ("ic", ("SD(7,3)", "C21"), ()),
    ("sigma", ("C2^2",), ()),
    ("sigma", ("C3^2",), ("--json",)),
    ("sigmac", ("C2^3",), ()),
    ("lattice", ("Q8",), ("--cyclic", "--maximal")),
    ("embeds", ("C4", "Q8"), ("--certificate",)),
    ("ic", ("D3", "C6"), ()),
    ("sigma", ("D4",), ("--json", "--certificate")),
    ("ic", ("C2^3", "C2^2"), ("--certificate",)),
    ("sigmac", ("D5",), ()),
    ("embeds", ("D3", "Perm[(1 2 3);(1 2)]"), ()),
    ("lattice", ("C2^2",), ("--json",)),
    ("sigma", ("C6",), ()),
    ("ic", ("C2^4", "C2^3"), ("--json",)),
    ("sigmac", ("Q8xC2",), ()),
)
CLI_REPEATS = 5  # 100 invocations per pass, so p90 has 10 samples beyond it

CLI_EXPECTED_FILE = Path(__file__).with_name("cli_expected.json")

_FACTOR = re.compile(r"(SD\(\d+,\d+\)|Perm\[[^\]]*\]|[CDQ]\d+)(?:\^(\d+))?")


def respell(spec: str, rng: random.Random) -> str:
    """Spell a product spec another way: `A^k` may expand to k factors and
    each product sign may be `x` or `*`.  Every spelling parses to the same
    normalized spec, so the program's output does not change."""
    factors: list[str] = []
    pos = 0
    while pos < len(spec):
        m = _FACTOR.match(spec, pos)
        if m is None:
            raise ValueError(f"cannot respell {spec!r} at {pos}")
        atom, exp = m.group(1), int(m.group(2) or 1)
        if exp > 1 and rng.random() < 0.5:
            factors.extend([atom] * exp)
        else:
            factors.append(atom if exp == 1 else f"{atom}^{exp}")
        pos = m.end()
        if pos < len(spec):
            if spec[pos] not in "x*":
                raise ValueError(f"cannot respell {spec!r} at {pos}")
            pos += 1
    out = factors[0]
    for f in factors[1:]:
        out += rng.choice("x*") + f
    return out


def query_key(query) -> str:
    command, specs, flags = query
    return " ".join((command, *specs, *flags))


def plan(workload: str, seed: int) -> list:
    """The operations of one pass, in the order the seed gives."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lattice":
        ops = list(LATTICE_OPS)
    elif workload == "cover":
        ops = list(COVER_OPS)
    elif workload == "verify":
        return [("run_suites",)]
    elif workload == "cli":
        ops = []
        for _ in range(CLI_REPEATS):
            for command, specs, flags in CLI_QUERIES:
                argv = [command, *(respell(s, rng) for s in specs), *flags]
                ops.append((query_key((command, specs, flags)), argv))
    else:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    rng.shuffle(ops)
    return ops


def load_cli_expected() -> dict[str, str]:
    return json.loads(CLI_EXPECTED_FILE.read_text())


def normalize_cli_output(stdout: str) -> str:
    """Drop the one field that differs between runs: JSON `elapsed_ms`."""
    if not stdout.startswith("{"):
        return stdout
    doc = json.loads(stdout)
    doc.pop("elapsed_ms", None)
    return json.dumps(doc, sort_keys=True) + "\n"
