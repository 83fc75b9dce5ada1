"""Isomorphism and embedding search against exhaustive bijection scans."""

import itertools
import math

import pytest

from grpinv.corpus import corpus
from grpinv.groups import (
    Cyclic,
    Dihedral,
    GeneralizedQuaternion,
    PermGroup,
    Product,
    build,
)
from grpinv.iso import (
    are_isomorphic,
    embeds,
    is_embedding,
    order_spectrum,
    spectrum_dominates,
)
from grpinv.lattice import closure, cyclic_subgroups, greedy_generators


def exhaustive_isomorphism_exists(g, h):
    """Scan all order-class-respecting bijections fixing the identity."""
    if g.order != h.order or order_spectrum(g) != order_spectrum(h):
        return False
    by_order_g = {}
    by_order_h = {}
    for a in range(1, g.order):
        by_order_g.setdefault(g.elem_order[a], []).append(a)
    for b in range(1, h.order):
        by_order_h.setdefault(h.elem_order[b], []).append(b)
    orders = sorted(by_order_g)
    pools = [list(itertools.permutations(by_order_h[o])) for o in orders]
    for assignment in itertools.product(*pools):
        phi = [0] * g.order
        for o, images in zip(orders, assignment):
            for a, b in zip(by_order_g[o], images):
                phi[a] = b
        if all(
            phi[g.table[a][b]] == h.table[phi[a]][phi[b]]
            for a in range(g.order)
            for b in range(g.order)
        ):
            return True
    return False


def test_order_spectrum_examples():
    assert order_spectrum(build(Cyclic(4))) == {1: 1, 2: 1, 4: 2}
    assert order_spectrum(build(Product((Cyclic(2),) * 2))) == {1: 1, 2: 3}
    assert order_spectrum(build(Dihedral(5))) == {1: 1, 2: 5, 5: 4}


def test_are_isomorphic_examples():
    assert are_isomorphic(build(Cyclic(6)), build(Product((Cyclic(2), Cyclic(3))))) is not None
    assert are_isomorphic(build(Cyclic(4)), build(Product((Cyclic(2),) * 2))) is None
    d3 = build(Dihedral(3))
    s3 = build(PermGroup((((1, 2, 3),), ((1, 2),)), 3))
    w = are_isomorphic(d3, s3)
    assert w is not None and is_embedding(d3, s3, w)
    assert exhaustive_isomorphism_exists(d3, s3)


def test_isomorphism_agrees_with_exhaustive_scan_small():
    groups = [e.group for e in corpus(8)]
    for g, h in itertools.product(groups, repeat=2):
        got = are_isomorphic(g, h) is not None
        assert got == exhaustive_isomorphism_exists(g, h), (g.label, h.label)


def test_isomorphism_reflexive_symmetric():
    for e in corpus(12):
        assert are_isomorphic(e.group, e.group) is not None
    pairs = [(a.group, b.group) for a in corpus(12) for b in corpus(12)]
    for g, h in pairs:
        assert (are_isomorphic(g, h) is None) == (are_isomorphic(h, g) is None)


def test_greedy_generators_generate():
    for spec in (Cyclic(12), Dihedral(6), GeneralizedQuaternion(16), Product((Cyclic(2),) * 3)):
        g = build(spec)
        gens = greedy_generators(g)
        assert closure(g, set(gens) | {0}).order == g.order


def reference_greedy_generators(g):
    """The loop that closed over the members gathered so far plus the new
    element, instead of over the generators."""
    gens = []
    covered = closure(g, [0])
    while covered.order < g.order:
        best = min(
            (a for a in range(g.order) if not covered.mask >> a & 1),
            key=lambda a: (-g.elem_order[a], a),
        )
        gens.append(best)
        covered = closure(g, set(covered.members) | {best})
    return gens


def test_greedy_generators_match_the_members_closure():
    for entry in corpus(16):
        g = entry.group
        assert greedy_generators(g) == reference_greedy_generators(g), g.label


def reference_cyclic_order_multiset(g):
    """The filter `are_isomorphic` once applied after the order spectrum:
    the sorted orders of the cyclic subgroups."""
    return tuple(sorted(s.order for s in cyclic_subgroups(g)))


def reference_are_isomorphic(g, h):
    if reference_cyclic_order_multiset(g) != reference_cyclic_order_multiset(h):
        return None
    return are_isomorphic(g, h)


def test_cyclic_order_multiset_follows_from_the_order_spectrum():
    # <x> of order d has phi(d) generators, so N_d elements of order d make
    # N_d / phi(d) cyclic subgroups of order d.
    for entry in corpus(48):
        g = entry.group
        derived = []
        for d, count in order_spectrum(g).items():
            phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
            derived += [d] * (count // phi)
        assert reference_cyclic_order_multiset(g) == tuple(derived), g.label


def test_are_isomorphic_needs_no_cyclic_order_filter():
    groups = [e.group for e in corpus(24)]
    for g, h in itertools.product(groups, repeat=2):
        if g.order == h.order:
            assert are_isomorphic(g, h) == reference_are_isomorphic(g, h), (g.label, h.label)


def test_embeds_examples():
    q8 = build(GeneralizedQuaternion(8))
    c2 = build(Cyclic(2))
    w = embeds(c2, q8)
    assert w is not None
    assert q8.elem_order[w[1]] == 2  # the unique involution
    assert embeds(build(Product((Cyclic(2),) * 2)), q8) is None
    assert embeds(build(Cyclic(1)), q8) == (0,)


def test_embeds_necessary_conditions():
    groups = [e.group for e in corpus(12)]
    for k, h in itertools.product(groups, repeat=2):
        w = embeds(k, h)
        if w is not None:
            assert h.order % k.order == 0
            assert spectrum_dominates(k, h)
            assert is_embedding(k, h, w)


def test_embeds_transitive_on_corpus():
    groups = [e.group for e in corpus(8)]
    table = {
        (a.label, b.label): embeds(a, b) is not None
        for a in groups
        for b in groups
    }
    for a in groups:
        for b in groups:
            for c in groups:
                if table[(a.label, b.label)] and table[(b.label, c.label)]:
                    assert table[(a.label, c.label)], (a.label, b.label, c.label)


def test_spectrum_dominates_examples():
    assert spectrum_dominates(build(Product((Cyclic(2),) * 2)), build(Cyclic(2)))
    assert not spectrum_dominates(build(Cyclic(4)), build(Product((Cyclic(2),) * 2)))
    assert spectrum_dominates(build(Product((Cyclic(3),) * 2)), build(Cyclic(9)))
