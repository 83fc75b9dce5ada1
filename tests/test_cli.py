"""CLI: grammar, output contracts, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grpinv
import grpinv.invariants
from grpinv.cli import main, parse_spec
from grpinv.corpus import corpus_specs
from grpinv.errors import ParseError
from grpinv.groups import (
    Cyclic,
    Dihedral,
    GeneralizedQuaternion,
    PermGroup,
    Product,
    SemidirectPQ,
    build,
    normalize_spec,
    spec_text,
)
from grpinv.invariants import CertEntry, InvariantReport, certificate_sound
from grpinv.lattice import make_subgroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_parse_examples():
    assert parse_spec("C3^2") == Product((Cyclic(3), Cyclic(3)))
    assert parse_spec("D5") == Dihedral(5)
    assert parse_spec("SD(7,3) x C2") == Product((SemidirectPQ(7, 3), Cyclic(2)))
    assert parse_spec("Q8") == GeneralizedQuaternion(8)
    assert parse_spec("C2 * C3") == parse_spec("C2xC3") == Product((Cyclic(2), Cyclic(3)))
    assert parse_spec(" C2  x C2 x C3 ") == Product((Cyclic(2), Cyclic(2), Cyclic(3)))
    assert parse_spec("Perm[(1 2 3);(1 2)]") == PermGroup((((1, 2, 3),), ((1, 2),)))
    assert parse_spec("Perm[(1 2)(3 4)]") == PermGroup((((1, 2), (3, 4)),))


def test_parse_perm_edge_forms():
    triv = parse_spec("Perm[()]")
    assert build(triv).order == 1
    two = parse_spec("Perm[(1,2)]")  # commas tolerated inside cycles
    assert build(two).order == 2


def test_trivial_group_end_to_end(capsys):
    code, out, _ = run(capsys, "ic", "C1", "C1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "sigma", "C1")
    assert code == 0 and out.strip() == "infinite (cyclic group)"
    code, out, _ = run(capsys, "lattice", "C1")
    assert code == 0 and out.strip() == "1: 0"


def test_parse_errors_carry_offsets():
    for text, offset in [
        ("C", 1),
        ("Zx", 0),
        ("C2 x", 4),
        ("C2 ^", 4),
        # a zero exponent is reported where the exponent starts
        ("C2^0", 3),
        ("C2 ^ 0", 5),
        ("SD(3 2)", 4),
        ("Perm[x]", 5),
        # a generator after a ';' reports offsets from its own start
        ("Perm[(1 2);x]", 11),
        ("Perm[(1 2);(3 4)(5 a)]", 16),
    ]:
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert err.value.offset == offset, text
    with pytest.raises(ParseError):
        parse_spec("C2 C3")  # trailing input
    # '²' passes str.isdigit but not int(); 5,000 digits pass int()'s limit
    for text in ("C\u00b2", "C" + "9" * 5000, "SD(" + "7" * 5000 + ",2)"):
        with pytest.raises(ParseError, match="malformed integer"):
            parse_spec(text)


def test_parse_print_round_trip():
    for spec in corpus_specs(24):
        normal = normalize_spec(spec)
        assert parse_spec(spec_text(normal)) == normal
    # a Perm spec is its cycles, whichever points they name
    for perm in (
        PermGroup((((1, 2, 3), (4, 5)), ((1, 2),))),
        PermGroup((((3, 5), (7, 9)),)),
    ):
        assert parse_spec(spec_text(perm)) == perm


# small atoms and their orders
_ATOMS = {
    Cyclic(1): 1,
    Cyclic(2): 2,
    Cyclic(3): 3,
    Cyclic(4): 4,
    Dihedral(3): 6,
    GeneralizedQuaternion(8): 8,
    SemidirectPQ(3, 2): 6,
    PermGroup((((1, 2, 3),), ((1, 2),))): 6,
}


def _product(draw, room, depth):
    """A Product of order at most `room`, nested at most `depth` deep, and
    its order."""
    factors, order = [], 1
    for _ in range(draw(st.integers(1, 4))):
        if depth == 1 or draw(st.booleans()):
            f = draw(st.sampled_from([a for a, o in _ATOMS.items() if o * order <= room]))
            o = _ATOMS[f]
        else:
            f, o = _product(draw, room // order, depth - 1)
        factors.append(f)
        order *= o
    return Product(tuple(factors)), order


@st.composite
def nested_products(draw):
    return _product(draw, 64, 3)[0]


@settings(deadline=None, max_examples=60)
@given(nested_products())
def test_spec_round_trip(spec):
    normal = normalize_spec(spec)
    assert normalize_spec(normal) == normal
    if isinstance(normal, Product):
        assert len(normal.factors) >= 2
        assert not any(isinstance(f, Product) for f in normal.factors)
    text = spec_text(spec)
    assert text == spec_text(normal)
    assert parse_spec(text) == normal
    g, h = build(spec), build(normal)
    assert g.table == h.table and g.label == h.label == text
    # a run of equal factors prints once, with ^ and the run length
    parts = [part.partition("^") for part in text.split(" x ")]
    assert all(a[0] != b[0] for a, b in zip(parts, parts[1:]))
    factors = normal.factors if isinstance(normal, Product) else (normal,)
    expanded = [base for base, _, k in parts for _ in range(int(k or 1))]
    assert expanded == [spec_text(f) for f in factors]


def test_runs_of_equal_factors_print_as_powers():
    c2, c3 = Cyclic(2), Cyclic(3)
    assert spec_text(Product((c2, c2, c3, c2))) == "C2^2 x C3 x C2"
    assert spec_text(Product((Product((c2,)), Product((c2, c3)), c2))) == "C2^2 x C3 x C2"


# ---------------------------------------------------------------------------
# invariant commands
# ---------------------------------------------------------------------------

def test_cmd_ic_table_values(capsys):
    code, out, _ = run(capsys, "ic", "C3^3", "C3")
    assert code == 0 and out.strip() == "13"
    code, out, _ = run(capsys, "sigma", "C2^2")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "sigmac", "C2^3")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run(capsys, "ic", "C4", "C2")
    assert code == 0 and out.strip() == "infinite (spectrum gap: order 4)"
    code, out, _ = run(capsys, "sigma", "C7")
    assert code == 0 and out.strip() == "infinite (cyclic group)"


def test_cmd_certificate_text(capsys):
    code, out, _ = run(capsys, "sigmac", "Q8", "--certificate")
    lines = out.strip().splitlines()
    assert lines[0] == "3" and lines[1] == "certificate:"
    assert len(lines) == 5 and all(l.startswith("  order 4:") for l in lines[2:])


def test_exit_codes(capsys):
    code, _, err = run(capsys, "ic", "C5")  # wrong arity
    assert code == 1 and err
    code, _, err = run(capsys, "sigma", "D2")
    assert code == 1 and "dihedral" in err
    code, _, err = run(capsys, "sigma", "C2^)")
    assert code == 1
    code, _, err = run(capsys, "sigma", "C\u00b2")
    assert code == 1 and len(err.strip().splitlines()) == 1
    code, _, err = run(capsys, "sigma", "SD(1000004,2)")
    assert code == 1 and "must be prime" in err
    code, _, err = run(capsys, "sigma", "C200")
    assert code == 2 and "max order" in err
    code, _, err = run(capsys, "sigma", "C2^2", "--budget", "1")
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("sigma", "D4", "--max-order", "-5"),
        ("sigma", "D4", "--max-order", "0"),
        ("sigma", "D4", "--budget", "0"),
        ("sigma", "D4", "--budget", "-1"),
        ("ic", "C2^2", "C2", "--budget", "0"),
        ("embeds", "C2", "Q8", "--max-order", "0"),
        ("lattice", "C2^2", "--max-order", "-5"),
        ("verify", "--suite", "examples", "--budget", "0"),
        ("verify", "--suite", "examples", "--max-order", "0"),
    ],
)
def test_non_positive_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1


def test_max_order_flag(capsys):
    code, out, _ = run(capsys, "sigma", "C200", "--max-order", "256")
    assert code == 0 and out.strip() == "infinite (cyclic group)"


def test_max_order_is_capped_at_720(capsys):
    code, out, err = run(capsys, "sigma", "D4", "--max-order", "721")
    assert code == 1 and out == ""
    assert err == "usage error: --max-order is capped at 720\n"
    code, out, _ = run(capsys, "sigma", "D4", "--max-order", "720")
    assert code == 0 and out.strip() == "3"


def test_long_power_fails_on_the_order_limit():
    proc = _python("import sys\nfrom grpinv.cli import main\nsys.exit(main(['sigma', 'C2^2000']))")
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "max order" in lines[0]


def _main_under_memory_cap(argv):
    # the child's address space is capped near 1.5 GB, so a spec that
    # allocates in proportion to a number in it ends in a MemoryError
    # traceback there, not in exhausting the test runner's memory
    return _python(
        "import resource, sys\n"
        "cap = 1536 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from grpinv.cli import main\n"
        f"sys.exit(main({argv!r}))",
        timeout=10,
    )


@pytest.mark.parametrize("spec", ["C1^999999999", "C2 x C1^720"])
def test_product_past_the_factor_cap_fails_before_it_expands(spec):
    proc = _main_under_memory_cap(["sigma", spec])
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "max order" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [("sigma", "C1^720"), ("sigma", "C1^360 x C1^360"), ("sigma", "Perm[(1 999999999)]")],
)
def test_specs_naming_large_numbers_answer_in_small_memory(argv):
    proc = _main_under_memory_cap(list(argv))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "infinite (cyclic group)\n", "")


def test_huge_prime_sd_fails_on_the_order_limit():
    # q = 2^61 - 1 is prime, and proving it by trial division never ended;
    # a child process with a timeout fails this test instead of hanging
    argv = ["sigma", "SD(2305843009213693951,2)"]
    proc = _python(f"import sys\nfrom grpinv.cli import main\nsys.exit(main({argv}))", timeout=10)
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "max order" in lines[0]


def test_product_with_a_perm_factor_obeys_the_order_limit(capsys):
    # S4 x C30 has order 720, above the default --max-order of 128
    code, out, err = run(capsys, "lattice", "Perm[(1 2 3 4);(1 2)] x C30", "--cyclic")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    code, _, _ = run(capsys, "lattice", "Perm[(1 2 3 4);(1 2)] x C5", "--cyclic")
    assert code == 0


def test_json_documents_are_stable(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, "ic", "C2^2", "C2", "--json", "--certificate")
        assert code == 0
        docs.append(json.loads(out))
    for doc in docs:
        doc.pop("elapsed_ms")
    assert json.dumps(docs[0]) == json.dumps(docs[1])
    doc = docs[0]
    assert doc["kind"] == "ic"
    assert doc["operands"] == ["C2^2", "C2"]
    assert doc["value"] == {"finite": 3}
    assert doc["max_order"] == 128
    assert len(doc["certificate"]) == 3


def test_json_infinite_value(capsys):
    _, out, _ = run(capsys, "ic", "C4", "C2", "--json")
    doc = json.loads(out)
    assert doc["value"] == {"infinite": True, "reason": "spectrum_gap", "missing_order": 4}
    _, out, _ = run(capsys, "sigma", "C6", "--json")
    assert json.loads(out)["value"] == {"infinite": True, "reason": "G_cyclic"}


def test_printed_certificate_revalidates(capsys):
    _, out, _ = run(capsys, "ic", "C3^2", "C9", "--json", "--certificate")
    doc = json.loads(out)
    g = build(parse_spec(doc["operands"][0]))
    h = build(parse_spec(doc["operands"][1]))
    entries = tuple(
        CertEntry(make_subgroup(g, entry["elements"]), tuple(entry["image"]))
        for entry in doc["certificate"]
    )
    from grpinv.groups import finite
    from grpinv.invariants import validate_optimal_ic_certificate

    report = InvariantReport("ic", g, h, finite(doc["value"]["finite"]), entries)
    assert certificate_sound(report)
    assert validate_optimal_ic_certificate(report)


def test_ic_c2_7_into_c2_3_under_a_small_budget(capsys):
    # the counting-bound probe finds a 19-cover at once, so the search never
    # descends from the greedy size
    code, out, _ = run(capsys, "ic", "C2^7", "C2^3", "--budget", "1000")
    assert code == 0 and out.strip() == "19"


# ---------------------------------------------------------------------------
# lattice and embeds commands
# ---------------------------------------------------------------------------

def test_cmd_lattice(capsys):
    code, out, _ = run(capsys, "lattice", "C2^2")
    assert code == 0 and len(out.strip().splitlines()) == 5
    code, out, _ = run(capsys, "lattice", "Q8", "--cyclic", "--maximal")
    lines = out.strip().splitlines()
    assert len(lines) == 3 and all(l.startswith("4:") for l in lines)
    code, out, _ = run(capsys, "lattice", "C12", "--maximal")
    assert sorted(int(l.split(":")[0]) for l in out.strip().splitlines()) == [4, 6]
    code, out, _ = run(capsys, "lattice", "C2^2", "--json")
    doc = json.loads(out)
    assert [s["order"] for s in doc["subgroups"]] == [1, 2, 2, 2, 4]


def test_cmd_embeds(capsys):
    code, out, _ = run(capsys, "embeds", "C2^2", "Q8")
    assert code == 0 and out.strip() == "no"
    code, out, _ = run(capsys, "embeds", "C2", "Q8", "--certificate")
    lines = out.strip().splitlines()
    assert lines[0] == "yes" and lines[1].startswith("witness:")
    code, out, _ = run(capsys, "embeds", "D3", "Perm[(1 2 3);(1 2)]", "--json")
    doc = json.loads(out)
    assert doc["embeds"] is True


def test_embeds_takes_no_budget(capsys):
    # the embedding search runs no cover search, so a node budget means nothing
    code, out, err = run(capsys, "embeds", "C2", "C4", "--budget", "5")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_examples_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "examples")
    assert code == 0
    assert "PASS ic(C3^3;C3)" in out
    assert "suite examples: 38 checks (38 pass)" in out
    assert "0 unsound" in out


def test_verify_runs_a_repeated_suite_once(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "examples,examples")
    assert code == 0
    assert "suite examples: 38 checks (38 pass)" in out
    code, out, _ = run(capsys, "verify", "--suite", "examples,examples", "--json")
    doc = json.loads(out)
    assert doc["operands"] == ["examples"]
    assert doc["suites"]["examples"]["checks"] == 38


def test_verify_reports_a_suite_that_made_no_checks(capsys):
    # no group in either suite is within order 1, but both suites ran
    argv = ("verify", "--suite", "examples,tozp", "--max-order", "1")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["operands"] == ["examples", "tozp"]
    assert list(doc["suites"]) == ["examples", "tozp"]
    assert all(
        suite == {"checks": 0, "pass": 0, "fail": [], "flag": [], "skip": []}
        for suite in doc["suites"].values()
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "suite examples: 0 checks",
        "suite tozp: 0 checks",
        "certificates: 0 validated, 0 unsound",
    ]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tozp", "--max-order", "16", "--json")
    assert code == 0
    doc = json.loads(out)
    suite = doc["suites"]["tozp"]
    assert suite["checks"] > 0 and suite["fail"] == []
    assert doc["certificates"]["failures"] == []


def test_verify_budget_exhaustion_exits_2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "examples", "--budget", "1")
    assert code == 2
    assert "SKIP" in out


def test_verify_fault_injection_exits_3(capsys, monkeypatch):
    real_ic = grpinv.invariants.ic

    def perturbed(g, h, node_budget=10**8):
        report = real_ic(g, h, node_budget)
        if report.value.is_finite and report.value.value > 1:
            from grpinv.groups import finite

            return InvariantReport(
                report.kind, report.group, report.target,
                finite(report.value.value + 1), report.certificate,
            )
        return report

    monkeypatch.setattr(grpinv.invariants, "ic", perturbed)
    code, out, _ = run(capsys, "verify", "--suite", "examples")
    assert code == 3
    assert "FAIL ic(C2^2;C2)" in out


def test_verify_triangle_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "triangle", "--max-order", "6")
    assert code == 0
    assert "suite triangle:" in out


def test_verify_budget_skips_triangle_checks(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "triangle", "--max-order", "4", "--budget", "1"
    )
    assert code == 2
    assert "SKIP triangle(C2^2;C2;C2)" in out
    assert "suite triangle: 125 checks (101 pass, 24 skip)" in out
    assert "error:" not in out + err


def test_verify_budget_bounds_every_search(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "bounds,tozp", "--max-order", "4", "--budget", "1"
    )
    assert code == 2
    # sigma(C2^2) needs 4 nodes, so the sandwich cannot finish
    assert "SKIP bounds(C2^2;C3)" in out
    assert "SKIP tozp(C2^2;p=2)" in out
    assert "error:" not in out + err


# ---------------------------------------------------------------------------
# start-up: the standard library only
# ---------------------------------------------------------------------------

_NO_NUMPY = (
    "import sys\n"
    "class NoNumpy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'numpy':\n"
    "            raise ImportError('numpy is not available')\n"
    "sys.meta_path.insert(0, NoNumpy())\n"
)


def _python(script, *flags, timeout=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(grpinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_cli_import_loads_no_numpy():
    """Start-up stays lean: importing the CLI, without `site` so nothing else
    is loaded first, pulls in neither numpy nor the heavy standard modules
    (`dataclasses` brings `inspect`, `ast` and `tokenize`; `fractions` brings
    `decimal`; `threading` brings `_weakrefset`)."""
    proc = _python(
        "import grpinv.cli, sys\n"
        "print(sorted({'numpy', 'dataclasses', 'inspect', 'fractions', 'threading'}"
        " & set(sys.modules)))",
        "-S",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_runs_without_numpy():
    proc = _python(
        _NO_NUMPY
        + "from grpinv.cli import main\n"
        + "sys.exit(main(['verify', '--suite', 'examples']))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "suite examples: 38 checks (38 pass)" in proc.stdout
