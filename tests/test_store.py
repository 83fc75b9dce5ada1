"""The content-keyed group store: each distinct table is validated once,
equal tables make equal groups, relabelled views share one table, and the
store and caches keep to their cap."""

import itertools
from collections import Counter

import pytest

from grpinv import groups, invariants, iso, lattice
from grpinv.corpus import corpus, run_suites
from grpinv.groups import (
    CACHE_SIZE,
    Cyclic,
    Dihedral,
    PermGroup,
    Product,
    _finalize,
    build,
    direct_product,
)
from grpinv.invariants import ic, sigma, sigma_c
from grpinv.iso import embeds
from grpinv.lattice import all_subgroups, as_group

pytestmark = pytest.mark.usefixtures("fresh_caches")


def test_each_distinct_table_is_validated_once(monkeypatch):
    validated = Counter()
    finalized = 0
    real_validate, real_finalize = groups._validate_table, groups._finalize

    def validate(rows):
        validated[rows] += 1
        return real_validate(rows)

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


S4 = build(PermGroup((((1, 2, 3, 4),), ((1, 2),))))
D24 = build(Dihedral(24))
C2C2C4C4 = build(Product((Cyclic(2), Cyclic(2), Cyclic(4), Cyclic(4))))
C4C4 = build(Product((Cyclic(4), Cyclic(4))))


@pytest.mark.parametrize(
    "run,tables",
    [
        (lambda: (sigma(S4), all_subgroups(S4)), 1),
        (lambda: (sigma_c(D24), all_subgroups(D24)), 1),
        (lambda: ic(C2C2C4C4, C4C4), 1),
        (lambda: run_suites(max_order=16), None),
    ],
    ids=["sigma S4", "sigma_c D24", "ic C2^2xC4^2 C4^2", "run_suites 16"],
)
def test_each_table_is_censused_once(monkeypatch, run, tables):
    """The lattice's atoms, the cover's points and sigma_c's candidates all
    read one census per table: it is asked more often than it walks, and
    walks once per distinct table asked about."""
    asked = []
    real = lattice._census

    def census(g):
        asked.append(g)
        return real(g)

    monkeypatch.setattr(lattice, "_census", census)
    monkeypatch.setattr(invariants, "_census", census)
    run()
    assert real.cache_info().misses == len(set(asked)) < len(asked)
    assert tables in (None, len(set(asked)))


def test_equal_tables_make_equal_groups_with_their_own_labels():
    g = build(Product((Cyclic(2),) * 2))
    a, b = (as_group(g, s) for s in all_subgroups(g).all if s.order == 2 and s.mask != 3)
    c2 = build(Cyclic(2))
    assert a == b == c2
    assert hash(a) == hash(b) == hash(c2)
    assert len({a.label, b.label, c2.label}) == 3
    assert a.table is b.table
    assert all_subgroups(a) is all_subgroups(b)
    assert a != build(Cyclic(3)) and a != g
    assert not a != b


def test_relabelled_views_keep_their_labels_and_share_one_table():
    g = build(Product((Cyclic(2),) * 3))
    g2 = _finalize("another C2^3", [list(row) for row in g.table])
    s = all_subgroups(g).all[-2]
    a, b = as_group(g, s), as_group(g2, s)
    assert a.label == f"C2^3|{s.order}@{s.mask:x}"
    assert b.label == f"another C2^3|{s.order}@{s.mask:x}"
    assert a == b and a.table is b.table

    c2, s3 = build(Cyclic(2)), build(Dihedral(3))
    named = _finalize("two", [list(row) for row in c2.table])
    p, q = direct_product(c2, s3), direct_product(named, s3)
    assert (p.label, q.label) == ("C2 x D3", "two x D3")
    assert p == q and p.table is q.table


def test_direct_product_keeps_an_explicit_label():
    c2, c3 = build(Cyclic(2)), build(Cyclic(3))
    assert direct_product(c2, c3).label == "C2 x C3"
    assert direct_product(c2, c3, label="C6 again").label == "C6 again"
    assert direct_product(c2, c3).label == "C2 x C3"
    assert build(Product((Cyclic(2),) * 2)).label == "C2^2"


def _relabelled(table, perm):
    """The table of the same group with element x renamed perm[x]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return out


def test_store_and_caches_keep_to_the_cap():
    c8, c2 = build(Cyclic(8)), build(Cyclic(2))
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
        lat = all_subgroups(k)
        assert embeds(k, c8) is not None
        assert as_group(k, lat.all[-2]).order == 4
        assert direct_product(k, c2).order == 16
    caches = (
        groups._checked,
        all_subgroups,
        embeds,
        lattice._subgroup_table,
        groups._product,
    )
    assert all(cached.cache_info().misses > CACHE_SIZE for cached in caches)
    assert all(cached.cache_info().currsize <= CACHE_SIZE for cached in caches)
    assert corpus.cache_info().maxsize == CACHE_SIZE  # keyed by the bound asked for


@pytest.mark.parametrize(
    "spec",
    [
        Product((Cyclic(2), Cyclic(2), Cyclic(4))),
        Product((Dihedral(4), Cyclic(2), Cyclic(2))),
        PermGroup((((1, 2, 3, 4),), ((1, 2),))),
    ],
)
def test_stored_subgroup_tables_are_the_groups_as_group_labels(spec):
    g = build(spec)
    for s in all_subgroups(g).all:
        view, stored = as_group(g, s), lattice._subgroup_table(g, s.mask)
        assert view == stored and view.table is stored.table
        # product-suite and subadditivity check names print this label
        assert view.label == f"{g.label}|{s.order}@{s.mask:x}"


def test_one_sweep_searches_each_embedding_about_once(monkeypatch):
    searches = 0
    real = iso._embedding

    def counted(k, h):
        nonlocal searches
        searches += 1
        return real(k, h)

    monkeypatch.setattr(iso, "_embedding", counted)
    report = run_suites()
    assert len(report.results) == 47544
    assert report.certificates_checked == 1585 and not report.certificate_failures
    # pairs with |G| not dividing |H| never reach the embeds cache, so they
    # evict no search: 1,370 searches, against 1,888 when they filled it
    assert searches < 1500
