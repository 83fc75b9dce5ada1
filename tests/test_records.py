"""Record semantics: the immutable records compare, hash and order as values
of their own kind, not as the tuples they are built on."""

import itertools
import math
from fractions import Fraction

import pytest

from grpinv.corpus import CheckResult, VerifyReport, corpus
from grpinv.cover import make_instance, min_cover
from grpinv.groups import (
    INFINITE,
    Cyclic,
    Dihedral,
    ExtNat,
    GeneralizedQuaternion,
    PermGroup,
    Product,
    SemidirectPQ,
    build,
    finite,
)
from grpinv.invariants import sigma
from grpinv.lattice import all_subgroups, totient_cover_bound

SPEC_KINDS = (Cyclic, Dihedral, GeneralizedQuaternion, SemidirectPQ, Product, PermGroup)


def _same_parameters(kind):
    return kind(*[4] * len(kind._fields))


def test_spec_kinds_with_equal_parameters_are_unequal():
    specs = [_same_parameters(kind) for kind in SPEC_KINDS]
    for a, b in itertools.combinations(specs, 2):
        assert a != b and not a == b
    assert len(set(specs)) == 6
    assert Cyclic(4) != (4,) and (4,) != Cyclic(4)
    assert Cyclic(4) == Cyclic(4) and not Cyclic(4) != Cyclic(4)
    assert Product((Cyclic(2), Cyclic(3))) != Product((Dihedral(2), Cyclic(3)))


def test_extnat_is_positive_or_infinite():
    with pytest.raises(ValueError):
        ExtNat(0)
    with pytest.raises(ValueError):
        finite(-1)
    assert ExtNat(None) == INFINITE and not INFINITE.is_finite


def test_extnat_total_order_puts_infinity_last():
    assert sorted([INFINITE, finite(3), finite(1)]) == [finite(1), finite(3), INFINITE]
    assert finite(3) < INFINITE and finite(3) <= INFINITE
    assert INFINITE > finite(3) and INFINITE >= finite(3)
    assert not INFINITE <= finite(3) and not finite(3) >= INFINITE
    assert INFINITE <= INFINITE and INFINITE >= INFINITE and not INFINITE < INFINITE
    assert max(finite(7), INFINITE, finite(2)) == INFINITE
    assert finite(2) * INFINITE == INFINITE and finite(2) + finite(3) == finite(5)


def _one_of_each_record():
    g = build(Product((Cyclic(2),) * 2))
    report = sigma(g)
    lattice = all_subgroups(g)
    inst = make_instance(2, [{0}, {1}])
    return [
        finite(3),
        *(_same_parameters(kind) for kind in SPEC_KINDS),
        g,
        inst,
        min_cover(inst),
        report.certificate[0],
        report,
        lattice.all[1],
        lattice,
        CheckResult("suite", "name", "pass"),
        corpus(4)[0],
        VerifyReport(),
    ]


def test_records_are_immutable():
    records = _one_of_each_record()
    assert len({type(r) for r in records}) == 17
    for record in records:
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _totient_sum(g):
    """Sum over non-identity x of 1/phi(ord(x)), in exact fractions."""
    return sum(Fraction(1, _phi(g.elem_order[a])) for a in range(1, g.order))


def test_totient_cover_bound_matches_the_fraction_sum():
    noncyclic = [e.group for e in corpus(24) if not e.group.is_cyclic]
    assert len(noncyclic) == 33
    for g in noncyclic:
        total = _totient_sum(g)
        assert total.denominator == 1
        assert totient_cover_bound(g) == finite(total.numerator)
