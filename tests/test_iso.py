"""Isomorphism and embedding search against exhaustive bijection scans."""

import itertools
import math

import pytest

import grpinv.iso
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
from grpinv.lattice import (
    _hom_from_images,
    all_subgroups,
    as_group,
    closure,
    cyclic_subgroups,
    greedy_generators,
)


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


def reference_embeds(k, h):
    """The lattice route `embeds` once took: K embeds in H iff some subgroup
    of H of order |K| is isomorphic to K."""
    return any(
        s.order == k.order and are_isomorphic(k, as_group(h, s)) is not None
        for s in all_subgroups(h).all
    )


def extend_by_pairwise_closure(k, h, phi, a, b):
    """The partial injective homomorphism phi (a dict from a subgroup of K
    into H) extended by a -> b, with its domain closed under products of
    pairs; None if two products disagree or two elements share an image."""
    phi, used = dict(phi), set(phi.values())
    pending = [(a, b)]
    while pending:
        x, fx = pending.pop()
        if x in phi:
            if phi[x] != fx:
                return None
            continue
        if fx in used:
            return None
        phi[x] = fx
        used.add(fx)
        for y, fy in list(phi.items()):
            pending += [(k.table[x][y], h.table[fx][fy]), (k.table[y][x], h.table[fy][fx])]
    return phi


def reference_first_embedding(k, h):
    """The search without pruning: images of K's greedy generators in H's
    index order, closed under pairwise products; the first full map found."""
    gens = greedy_generators(k)

    def dfs(level, phi):
        if level == len(gens):
            return tuple(phi[x] for x in range(k.order))
        for b in range(h.order):
            ext = extend_by_pairwise_closure(k, h, phi, gens[level], b)
            if ext is not None:
                found = dfs(level + 1, ext)
                if found is not None:
                    return found
        return None

    return dfs(0, {0: 0})


def test_embeds_matches_the_subgroup_lattice_reference():
    groups = [e.group for e in corpus(16)]
    for k, h in itertools.product(groups, repeat=2):
        w = embeds(k, h)
        assert (w is not None) == reference_embeds(k, h), (k.label, h.label)
        assert w is None or is_embedding(k, h, w), (k.label, h.label)
        if h.order % k.order == 0:
            assert w == reference_first_embedding(k, h), (k.label, h.label)


@pytest.mark.parametrize(
    "k,h",
    [
        # rank: D4 x D4 has no C2^5, though 35 involutions against 31
        (Product((Cyclic(2),) * 5), Product((Dihedral(4), Dihedral(4)))),
        # relations: an abelian group has no D4
        (
            Product((Cyclic(2), Cyclic(2), Dihedral(4))),
            Product((Cyclic(4), Cyclic(4), Cyclic(2), Cyclic(2), Cyclic(2))),
        ),
    ],
)
def test_embeds_refutes_without_the_lattice(k, h):
    k, h = build(k), build(h)
    assert embeds(k, h) is None
    assert not reference_embeds(k, h)


@pytest.mark.usefixtures("fresh_caches")
def test_embeds_builds_no_subgroup_lattice():
    c2_3 = build(Product((Cyclic(2),) * 3))
    c2_7 = build(Product((Cyclic(2),) * 7))
    assert embeds(c2_3, c2_7) is not None
    assert all_subgroups.cache_info().misses == 0


def test_embeds_rejects_on_element_order_counts(monkeypatch):
    # C2^2 has three involutions, C4 and C8 one each; the orders {1, 2} of
    # C2^2 occur in both and 4 divides their orders, so only the counts can
    # reject it
    def no_search(*_args):
        pytest.fail("the search ran")

    monkeypatch.setattr(grpinv.iso, "_hom_from_images", no_search)
    monkeypatch.setattr(grpinv.iso, "greedy_generators", no_search)
    k = build(Product((Cyclic(2),) * 2))
    for h in (build(Cyclic(4)), build(Cyclic(8))):
        assert spectrum_dominates(k, h)
        assert embeds.__wrapped__(k, h) is None
    assert are_isomorphic(k, build(Cyclic(4))) is None


def test_hom_kernel_matches_the_pairwise_closure_on_proper_subgroups():
    # the kernel on <g_0> and <g_0, g_1> for K's greedy generators, against
    # every assignment of same-order images in another group H
    groups = [e.group for e in corpus(8)]
    for k, h in itertools.product(groups, repeat=2):
        gens = greedy_generators(k)
        for n in (1, 2)[:len(gens)]:
            head = gens[:n]
            pools = [[b for b in range(h.order) if h.elem_order[b] == k.elem_order[a]] for a in head]
            for images in itertools.product(*pools):
                ref = {0: 0}
                for a, b in zip(head, images):
                    ref = ref and extend_by_pairwise_closure(k, h, ref, a, b)
                phi = _hom_from_images(k.table, h.table, head, images)
                if ref is None:
                    assert phi is None, (k.label, h.label, images)
                else:
                    assert phi == [ref.get(x, -1) for x in range(k.order)], (k.label, h.label, images)


def test_hom_kernel_rejects_a_homomorphism_that_is_not_injective():
    # C4 -> C2 sending the generator to the involution: its square and the
    # identity share the image 0
    c2, c4 = build(Cyclic(2)), build(Cyclic(4))
    assert _hom_from_images(c4.table, c2.table, greedy_generators(c4), [1]) is None


def test_hom_kernel_on_a_proper_subgroup_leaves_the_rest_unmapped():
    # <2> <= C4 into C2^2 is defined on {0, 2} only
    c4, c2_2 = build(Cyclic(4)), build(Product((Cyclic(2),) * 2))
    b = c2_2.elem_order.index(2)
    assert _hom_from_images(c4.table, c2_2.table, [2], [b]) == [0, -1, b, -1]


def test_embeds_witness_is_the_first_in_target_index_order():
    c12 = build(Cyclic(12))
    c4_c6 = build(Product((Cyclic(4), Cyclic(6))))
    assert embeds(c12, c4_c6) == (0, 7, 14, 21, 4, 11, 12, 19, 2, 9, 16, 23)


def test_splits_recognises_internal_direct_products():
    c6, d4 = build(Cyclic(6)), build(Dihedral(4))
    assert grpinv.iso._splits(c6, [2], [3])  # C6 = C3 x C2
    assert not grpinv.iso._splits(c6, [2], [1])  # <2> lies in <1>
    r = next(x for x in range(8) if d4.elem_order[x] == 4)
    s = next(x for x in range(8) if not closure(d4, [r]).mask >> x & 1)
    assert not grpinv.iso._splits(d4, [r], [s])  # orders multiply, but s r != r s
    assert grpinv.iso._splits(d4, [], [r, s])


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
