"""The content-keyed group store: each distinct table is validated once,
equal tables make equal groups, and the store and caches keep to their cap."""

import itertools
from collections import Counter

import pytest

from grpinv import groups, iso, lattice
from grpinv.corpus import run_suites
from grpinv.groups import CACHE_SIZE, Cyclic, Power, _finalize, build
from grpinv.iso import embeds
from grpinv.lattice import all_subgroups, as_group

pytestmark = pytest.mark.usefixtures("fresh_caches")


def test_each_distinct_table_is_validated_once(monkeypatch):
    validated = Counter()
    finalized = 0
    real_validate, real_finalize = groups._validate_table, groups._finalize

    def validate(label, table):
        validated[tuple(map(tuple, table))] += 1
        return real_validate(label, table)

    def finalize(label, table):
        nonlocal finalized
        finalized += 1
        return real_finalize(label, table)

    monkeypatch.setattr(groups, "_validate_table", validate)
    monkeypatch.setattr(groups, "_finalize", finalize)
    monkeypatch.setattr(lattice, "_finalize", finalize)
    report = run_suites(max_order=8)
    assert report.certificates_checked and not report.certificate_failures
    assert set(validated.values()) == {1}
    assert finalized > len(validated)


def test_equal_tables_make_equal_groups_with_their_own_labels():
    g = build(Power(Cyclic(2), 2))
    a, b = (as_group(g, s)[0] for s in all_subgroups(g).all if s.order == 2 and s.mask != 3)
    c2 = build(Cyclic(2))
    assert a == b == c2
    assert hash(a) == hash(b) == hash(c2)
    assert len({a.label, b.label, c2.label}) == 3
    assert a.table is b.table
    assert all_subgroups(a) is all_subgroups(b)
    assert a != build(Cyclic(3)) and a != g


def _relabelled(table, perm):
    """The table of the same group with element x renamed perm[x]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return out


def test_store_and_caches_keep_to_the_cap():
    c8 = build(Cyclic(8))
    tables = set()
    for perm in itertools.permutations(range(1, 8)):
        if len(tables) > CACHE_SIZE + 8:
            break
        table = _relabelled(c8.table, (0, *perm))
        key = tuple(map(tuple, table))
        if key in tables:
            continue
        tables.add(key)
        k = _finalize("C8'", table)
        all_subgroups(k)
        assert embeds(k, c8) is not None
    caches = (all_subgroups, embeds, iso._cyclic_order_multiset)
    assert all(cached.cache_info().misses > CACHE_SIZE for cached in caches)
    assert len(groups._STORE) <= CACHE_SIZE
    assert all(cached.cache_info().currsize <= CACHE_SIZE for cached in caches)
