"""Order spectra, isomorphism search, and subgroup-embedding tests.

are_isomorphic rejects on two cheap invariants, the order and the order
spectrum, then backtracks over images of a greedy generating set, extending
the partial map through subgroup closure so violations surface long before a
full assignment.  embeds reuses the subgroup lattice of the target: K embeds
in H iff some subgroup of H of order |K| is isomorphic to K.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .errors import CheckFailed
from .groups import CACHE_SIZE, FiniteGroup
from .lattice import all_subgroups, as_group, greedy_generators

EmbeddingWitness = tuple[int, ...]


def order_spectrum(g: FiniteGroup) -> dict[int, int]:
    """Map element order -> count of elements of that order."""
    return dict(sorted(Counter(g.elem_order).items()))


def spectrum_dominates(g: FiniteGroup, h: FiniteGroup) -> bool:
    """True iff every element order occurring in G also occurs in H."""
    return set(g.elem_order) <= set(h.elem_order)


def missing_order(g: FiniteGroup, h: FiniteGroup) -> int | None:
    """Least element order of G absent from H, if any."""
    gaps = set(g.elem_order) - set(h.elem_order)
    return min(gaps) if gaps else None


def _extend(g, h, phi, elems, used, new_elem, image):
    """Extend a partial injective homomorphism by new_elem -> image.

    Closes the domain subgroup under products while propagating images;
    returns the extended (phi, elems, used) or None on any inconsistency.
    """
    gt, ht = g.table, h.table
    phi = phi.copy()
    elems = elems.copy()
    used = used.copy()
    if image in used:
        return None
    phi[new_elem] = image
    used.add(image)
    elems.append(new_elem)
    queue = [new_elem]
    while queue:
        a = queue.pop()
        pa = phi[a]
        ga, ha = gt[a], ht[pa]
        i = 0
        while i < len(elems):
            b = elems[i]
            i += 1
            pb = phi[b]
            for x, px in ((ga[b], ha[pb]), (gt[b][a], ht[pb][pa])):
                cur = phi[x]
                if cur < 0:
                    if px in used:
                        return None
                    phi[x] = px
                    used.add(px)
                    elems.append(x)
                    queue.append(x)
                elif cur != px:
                    return None
    return phi, elems, used


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> EmbeddingWitness | None:
    """A witness bijective homomorphism G -> H, or None.

    Two cheap invariants, the order and the order spectrum, reject most
    non-isomorphic pairs before the backtracking search.  The multiset of
    cyclic subgroup orders would add nothing: a group has N_d/phi(d) cyclic
    subgroups of order d, for N_d its elements of order d, so equal spectra
    give equal multisets.
    """
    if g.order != h.order:
        return None
    if order_spectrum(g) != order_spectrum(h):
        return None
    gens = greedy_generators(g)
    if not gens:
        return (0,)
    candidates: dict[int, list[int]] = {}
    for o in {g.elem_order[x] for x in gens}:
        candidates[o] = [b for b in range(h.order) if h.elem_order[b] == o]
    start = ([-1] * g.order, [0], {0})
    start[0][0] = 0

    def dfs(level, phi, elems, used):
        if level == len(gens):
            return tuple(phi)
        a = gens[level]
        for b in candidates[g.elem_order[a]]:
            ext = _extend(g, h, phi, elems, used, a, b)
            if ext is not None:
                found = dfs(level + 1, *ext)
                if found is not None:
                    return found
        return None

    witness = dfs(0, *start)
    if witness is not None and not is_embedding(g, h, witness):
        raise CheckFailed(f"isomorphism {g.label} -> {h.label} failed re-validation")
    return witness


def is_embedding(k: FiniteGroup, h: FiniteGroup, phi: EmbeddingWitness) -> bool:
    """Independent witness check: injectivity, operation, element orders."""
    if len(phi) != k.order or len(set(phi)) != k.order:
        return False
    if any(not 0 <= x < h.order for x in phi):
        return False
    for a in range(k.order):
        if h.elem_order[phi[a]] != k.elem_order[a]:
            return False
        for b in range(k.order):
            if phi[k.table[a][b]] != h.table[phi[a]][phi[b]]:
                return False
    return True


@lru_cache(maxsize=CACHE_SIZE)
def embeds(k: FiniteGroup, h: FiniteGroup) -> EmbeddingWitness | None:
    """Witness injective homomorphism K -> H, or None.

    Enumerates H's subgroups of order |K| (the lattice is shared with the
    cover computations) and composes a found isomorphism with the inclusion.
    Cached per pair of tables: the invariant fast paths, the descending
    pass of `ic` and the sweep checkers ask the same question repeatedly,
    often of relabelled copies of one group.
    """
    if k.order > h.order or h.order % k.order:
        return None
    if not spectrum_dominates(k, h):
        return None
    if k.order == 1:
        return (0,)
    if k.order == h.order:
        return are_isomorphic(k, h)
    lat = all_subgroups(h)
    for s in lat.all:
        if s.order != k.order:
            continue
        w = are_isomorphic(k, as_group(h, s))
        if w is not None:
            elems = s.members
            witness = tuple(elems[w[i]] for i in range(k.order))
            if not is_embedding(k, h, witness):
                raise CheckFailed(f"embedding {k.label} -> {h.label} failed re-validation")
            return witness
    return None
