"""Order spectra, and one search for injective homomorphisms.

`are_isomorphic` and `embeds` are two entries to one search for an
injective homomorphism K -> H.  It rejects when some element order is
rarer in H than in K, then backtracks over images of K's split
generators (`lattice.split_generators`, the generators of the lattice's
automorphisms too), taken in H's index order.  Each partial map goes
through `lattice._hom_from_images`, the breadth-first kernel that also
confirms the lattice's automorphisms: it walks the Cayley graph of the
generators mapped so far and fails on the first edge or repeated image
that breaks an injective homomorphism, long before a full assignment.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import itemgetter

from .errors import CheckFailed
from .groups import CACHE_SIZE, FiniteGroup
from .lattice import _hom_from_images, closure, split_generators

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


def _splits(k: FiniteGroup, head, tail) -> bool:
    """True iff K is the internal direct product <head> x <tail>."""
    s, c, t = closure(k, head), closure(k, tail), k.table
    return s.order * c.order == k.order and s.mask & c.mask == 1 and all(
        t[a][b] == t[b][a] for a in head for b in tail
    )


def _embedding(k: FiniteGroup, h: FiniteGroup) -> EmbeddingWitness | None:
    """The first injective homomorphism K -> H in H's index order, or None.

    It needs N_d(K) <= N_d(H) for N_d the number of elements of order d, so
    equal spectra at |K| = |H|; the multiset of cyclic subgroup orders adds
    nothing, as a group has N_d/phi(d) cyclic subgroups of order d.  The
    search maps the split generators g_0, g_1, ... of K in turn and prunes
    only branches that hold no solution, so it finds the witness that the
    unpruned search would.
    """
    have = Counter(h.elem_order)
    if any(n > have[d] for d, n in Counter(k.elem_order).items()):
        return None
    kt, ht, gens = k.table, h.table, split_generators(k)
    candidates = {o: [b for b, e in enumerate(h.elem_order) if e == o] for o in have}
    # failed[i]: images T of maps on S = <g_0..g_i> that extend to no
    # solution, kept where K = S x <g_i+1..>: every automorphism a of S then
    # extends to K as a x id, so all maps onto T extend alike
    failed: dict[int, set | None] = {}

    def dfs(images, phi):
        level = len(images)
        if level == len(gens):
            return tuple(phi)
        head = gens[:level + 1]
        for b in candidates[k.elem_order[head[-1]]]:
            chosen = [*images, b]
            ext = _hom_from_images(kt, ht, head, chosen)
            if ext is None or failed.get(level) and frozenset(ext) in failed[level]:
                continue
            # dead if a generator after the next (tried at once) has no image left
            if all(
                any(
                    _hom_from_images(kt, ht, [*head, c], [*chosen, x])
                    for x in candidates[k.elem_order[c]]
                )
                for c in gens[level + 2:]
            ):
                found = dfs(chosen, ext)
                if found is not None:
                    return found
            if level not in failed:
                failed[level] = set() if _splits(k, head, gens[level + 1:]) else None
            if failed[level] is not None:
                failed[level].add(frozenset(ext))
        return None

    witness = dfs([], [0] + [-1] * (k.order - 1))
    if witness is not None and not is_embedding(k, h, witness):
        raise CheckFailed(f"embedding {k.label} -> {h.label} failed re-validation")
    return witness


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> EmbeddingWitness | None:
    """A witness bijective homomorphism G -> H, or None."""
    if g.order != h.order:
        return None
    return _embedding(g, h)


def is_embedding(k: FiniteGroup, h: FiniteGroup, phi: EmbeddingWitness) -> bool:
    """Independent witness check: injectivity, operation, element orders."""
    if len(phi) != k.order or len(set(phi)) != k.order:
        return False
    if any(not 0 <= x < h.order for x in phi):
        return False
    if tuple(map(h.elem_order.__getitem__, phi)) != tuple(k.elem_order):
        return False
    # phi(a*b) == phi(a)*phi(b) for every b, one row of K at a time
    image = itemgetter(*phi)
    for a, row in enumerate(k.table):
        if itemgetter(*row)(phi) != image(h.table[phi[a]]):
            return False
    return True


@lru_cache(maxsize=CACHE_SIZE)
def embeds(k: FiniteGroup, h: FiniteGroup) -> EmbeddingWitness | None:
    """Witness injective homomorphism K -> H, or None.

    The witness is the first the search meets, with the images of K's
    generators taken in H's index order.  Cached per pair of tables: `ic`,
    its certificate checks and the sweep checkers ask the same question
    repeatedly, often of relabelled copies of one group.  They test
    |K| | |H| before they call, so a pair that Lagrange already rules out
    takes no cache slot and evicts no search.
    """
    if h.order % k.order:
        return None
    return _embedding(k, h)
