"""Correctness gates raise CheckFailed, with or without `python -O`."""

import os
import subprocess
import sys

import pytest

import grpinv
import grpinv.invariants
import grpinv.iso
from grpinv.cli import main
from grpinv.errors import CheckFailed
from grpinv.groups import Cyclic, Dihedral, GeneralizedQuaternion, PermGroup, Product, build
from grpinv.invariants import ic, sigma
from grpinv.iso import are_isomorphic, embeds

# Each sabotaged gate has to run: a witness or lattice cached by an earlier
# test would answer without reaching it.
pytestmark = pytest.mark.usefixtures("fresh_caches")


def reject_all(*_args):
    return False


def test_isomorphism_witness_is_rechecked(monkeypatch):
    monkeypatch.setattr(grpinv.iso, "is_embedding", reject_all)
    with pytest.raises(CheckFailed):
        are_isomorphic(build(Dihedral(3)), build(PermGroup((((1, 2, 3),), ((1, 2),)))))


def test_embedding_witness_is_rechecked(monkeypatch):
    monkeypatch.setattr(grpinv.iso, "is_embedding", reject_all)
    with pytest.raises(CheckFailed):
        embeds(build(Cyclic(2)), build(GeneralizedQuaternion(8)))


def test_cover_is_rechecked(monkeypatch):
    monkeypatch.setattr(grpinv.invariants, "validate_cover", reject_all)
    with pytest.raises(CheckFailed):
        sigma(build(Product((Cyclic(2),) * 2)))


def test_cyclic_group_that_fails_to_embed_is_caught(monkeypatch):
    monkeypatch.setattr(grpinv.invariants, "embeds", lambda k, h: None)
    with pytest.raises(CheckFailed):
        ic(build(Cyclic(4)), build(Cyclic(4)))


@pytest.mark.parametrize(
    "module,name,argv",
    [
        (grpinv.iso, "is_embedding", ["embeds", "C2", "Q8"]),
        (grpinv.invariants, "validate_cover", ["sigma", "C2^2"]),
    ],
)
def test_cli_reports_failed_check_in_one_line(capsys, monkeypatch, module, name, argv):
    monkeypatch.setattr(module, name, reject_all)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_checks_survive_optimize_flag():
    script = (
        "import sys\n"
        "import grpinv.invariants\n"
        "from grpinv.cli import main\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "grpinv.invariants.validate_cover = lambda *a: False\n"
        "sys.exit(main(['sigma', 'C2^2']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(grpinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "re-validation" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_verify_reports_failed_check_and_goes_on(capsys, monkeypatch):
    monkeypatch.setattr(grpinv.invariants, "validate_cover", reject_all)
    code = main(["verify", "--suite", "examples"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL ic(C2^2;C2)" in out and "failed re-validation" in out
    assert "suite examples: 38 checks" in out


def test_verify_reports_failed_bounds_checks(capsys, monkeypatch):
    monkeypatch.setattr(grpinv.invariants, "validate_cover", reject_all)
    code = main(["verify", "--suite", "bounds", "--max-order", "4"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL bounds(C2^2;C2)" in out and "failed re-validation" in out
    assert "suite bounds: 25 checks" in out
