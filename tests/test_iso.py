"""Isomorphism and embedding search against exhaustive bijection scans."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grpinv.iso
from grpinv.cli import parse_spec
from grpinv.corpus import corpus
from grpinv.groups import (
    Cyclic,
    Dihedral,
    GeneralizedQuaternion,
    PermGroup,
    Product,
    _finalize,
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
    split_generators,
)
from test_lattice import RELABEL_GROUPS, reference_greedy_generators
from test_store import _relabelled


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
    s3 = build(PermGroup((((1, 2, 3),), ((1, 2),))))
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


def test_split_generators_generate():
    for entry in corpus(16):
        g = entry.group
        assert closure(g, split_generators(g)).order == g.order, g.label


def reference_split_pass(g):
    """One pass over the elements by order, descending (ties by index),
    adjoining each whose cyclic subgroup meets the span so far only in the
    identity; None where the pass ends short of G."""
    gens, covered = [], closure(g, [0])
    for a in sorted(range(g.order), key=lambda a: (-g.elem_order[a], a)):
        if covered.order < g.order and closure(g, [a]).mask & covered.mask == 1:
            gens.append(a)
            covered = closure(g, gens)
    return gens if covered.order == g.order else None


def test_split_generators_fall_back_to_the_members_closure():
    # a stalled split pass starts again from the identity with the greedy rule
    extra = [
        build(Product((Cyclic(4), GeneralizedQuaternion(8)))),
        build(Product((GeneralizedQuaternion(8),) * 2)),
        build(Product((Product((Cyclic(2),) * 3), GeneralizedQuaternion(8)))),
    ]
    stalled = []
    for g in [e.group for e in corpus(16)] + extra:
        split = reference_split_pass(g)
        if split is None:
            stalled.append(g.label)
            split = reference_greedy_generators(g)
        assert split_generators(g) == split, g.label
    assert stalled == ["Q8", "C2 x Q8", "Q16", "C4 x Q8", "Q8^2", "C2^3 x Q8"]


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
    """The search without pruning: images of K's split generators in H's
    index order, closed under pairwise products; the first full map found."""
    gens = split_generators(k)

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
    monkeypatch.setattr(grpinv.iso, "split_generators", no_search)
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
        gens = reference_greedy_generators(k)
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
    assert _hom_from_images(c4.table, c2.table, reference_greedy_generators(c4), [1]) is None


def test_hom_kernel_on_a_proper_subgroup_leaves_the_rest_unmapped():
    # <2> <= C4 into C2^2 is defined on {0, 2} only
    c4, c2_2 = build(Cyclic(4)), build(Product((Cyclic(2),) * 2))
    b = c2_2.elem_order.index(2)
    assert _hom_from_images(c4.table, c2_2.table, [2], [b]) == [0, -1, b, -1]


def test_embeds_witness_is_the_first_in_target_index_order():
    c12 = build(Cyclic(12))
    c4_c6 = build(Product((Cyclic(4), Cyclic(6))))
    assert embeds(c12, c4_c6) == (0, 7, 14, 21, 4, 11, 12, 19, 2, 9, 16, 23)


@pytest.mark.parametrize(
    "k, h, bound",
    [
        # 14,445 calls on split generators, 5,527,650 on greedy ones
        ("C2^4 x C4", "D4 x D4 x C2", 50_000),
        # 106,037 calls on either
        ("C2^6", "D8 x C2^3", 110_000),
        # 2,976 and 28,560 calls with the look-ahead, more than 300,000
        # each without it
        ("C2^2 x Q16", "C2 x C8 x D4", 10_000),
        ("D4^2", "C2^2 x C4 x D4", 50_000),
    ],
)
def test_embeds_refutes_within_a_kernel_call_bound(k, h, bound, monkeypatch):
    calls = itertools.count()

    def counting(*args):
        if next(calls) >= bound:
            pytest.fail(f"more than {bound} kernel calls")
        return _hom_from_images(*args)

    monkeypatch.setattr(grpinv.iso, "_hom_from_images", counting)
    assert embeds.__wrapped__(build(parse_spec(k)), build(parse_spec(h))) is None


def test_embeds_witness_maps_the_split_generators():
    # the first witness in H's index order for the images of K's split
    # generators
    k, h = build(parse_spec("C2 x C6")), build(parse_spec("C3 x D4"))
    assert embeds(k, h) == (0, 10, 16, 2, 8, 18, 4, 14, 20, 6, 12, 22)


RELABEL_EMBED_SOURCES = RELABEL_GROUPS + tuple(
    build(parse_spec(spec)) for spec in ("C2 x Q8", "C4 x Q8", "C2 x C6")
)
RELABEL_EMBED_TARGETS = tuple(
    build(parse_spec(spec)) for spec in ("C3 x D4", "C4 x C6", "D4 x C4", "C2^4")
)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_embeds_of_relabelled_tables_keeps_its_answer(data):
    # the split generators, and so the witness, depend on the labels; the
    # answer must not
    k = data.draw(st.sampled_from(RELABEL_EMBED_SOURCES))
    h = data.draw(st.sampled_from(RELABEL_EMBED_TARGETS))

    def relabelled(g):
        perm = (0, *data.draw(st.permutations(range(1, g.order))))
        return _finalize(f"{g.label}'", _relabelled(g.table, perm))

    k2, h2 = relabelled(k), relabelled(h)
    w = embeds(k2, h2)
    assert (w is None) == (embeds(k, h) is None), (k.label, h.label)
    assert w is None or is_embedding(k2, h2, w)


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
