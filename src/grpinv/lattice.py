"""Subgroup enumeration: cyclic atoms, join-closure lattice, maximal subgroups.

A subgroup is stored as one bitmask over the parent group's element indices,
and `Subgroup.members` derives its elements from the mask, ascending, when a
caller asks for them.  Without a second copy of each element set, the
lattice of C2^6 retains 0.34 MB instead of 2.16 MB and that of C2^7 3.78 MB
instead of 28.15 MB (tracemalloc, after the cache is cleared).  `as_group`
makes a subgroup a group of its own whose element i is `members[i]`, so it
returns the group alone.  The canonical order everywhere is (order, mask
ascending), which keeps certificates and JSON output stable across runs.

Every join goes through one kernel, `_join`: the join of a subgroup S with
<c> is the union of the right cosets S*r it contains, and S*r*t = S*(r*t),
so only coset representatives are multiplied by the generators of S and c.
The lattice keeps a generating list per subgroup for this; each list has at
most log2|G| entries, because every join that adds an element at least
doubles the order.  A join stops as soon as the union passes the largest
proper divisor of |G| that is a multiple of |S|: by Lagrange only G is that
large.  When [S v <c> : S] is prime, no subgroup lies strictly between S
and J = S v <c>, so every atom inside J joins S to J again; the lattice
skips those joins.  It also joins S once per class of atoms under
conjugation by S: for t in S, t*c*t^-1 lies in S v <c> and c in
S v <t*c*t^-1>, so the two joins are equal.  After a join with <c>, a
breadth-first walk conjugates c by the generators of S, mapping each image
to its atom, and the atoms it reaches are skipped.  Only atoms that are not
normal in G have classes of more than one atom, so the walk starts from
those alone, and on abelian G, decided from the split generators commuting
pairwise, it is never set up.  S5 makes 317 joins instead of 868, and S6
3,700 instead of 17,670.  A skipped atom only repeats a join found before
it, so the lattice, its records and their order are as without the rule.

The lattice is closed under every automorphism a of G, and automorphisms
commute with joins: a(S) v <c> = a(S v <a^-1(c)>).  So only one subgroup
per orbit is joined with the atoms, for the orbits under the group that
`automorphisms(G)` generates: the maps on the split generators (see
`split_generators`) that extend to automorphisms.  A join that finds a new
subgroup J adds J's whole orbit, and only J goes on to the next layer.
Images cost |J| lookups each and no closure, and the final sort leaves the
lattice, and every certificate built on it, as it was without the orbits.
Any set of automorphisms keeps the lattice complete, since the known
subgroups stay a union of orbits; the choice only sets how many joins are
saved.  On C2^n two maps generate GL(n, 2), which leaves one orbit per
order: C2^7's 29,212 subgroups come from 8 representatives.  Each map
costs one image per orbit member, so a map that merges no orbits is pure
cost.

The lattice records each representative's joins with the atoms.  A
subgroup T strictly above S holds an atom outside S, so it holds one of
them.  So one walk decides the maximal members of any family of subgroups
closed under subgroups and automorphisms (`_maximal_orbits`).  It takes
the representatives from the largest down: one with a join in an admitted
orbit is in the family but not maximal; any other is asked once, and if
it is admitted, its whole orbit is maximal.  The walk decides two
families: the lattice's one stratum, the maximal proper subgroups, and
`ic`'s candidates, the maximal proper subgroups that embed in the target.
The cyclic subgroups need no lattice: one cached census per table
(`_census`) finds them all, with their least generators, the subgroup
each element generates and the maximal ones.  The lattice's atoms, every
cover instance's points and sigma_c's candidates all read it, and
`cyclic_subgroups` returns its tuple.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .errors import BudgetExceeded
from .groups import CACHE_SIZE, INFINITE, ExtNat, FiniteGroup, Record, _bits, _finalize
from .groups import _is_prime, _maximal, finite

MAX_SUBGROUPS = 200_000


class Subgroup(Record, namedtuple("Subgroup", "mask order parent_order is_cyclic")):
    __slots__ = ()  # mask: the elements' indices in the parent, as a bitmask

    @property
    def members(self) -> tuple[int, ...]:
        """The elements' indices in the parent, ascending."""
        return tuple(_bits(self.mask))

    def contains(self, other: "Subgroup") -> bool:
        return other.mask & self.mask == other.mask

    @property
    def is_proper(self) -> bool:
        return self.order < self.parent_order

    def sort_key(self) -> tuple[int, int]:
        return (self.order, self.mask)


def make_subgroup(g: FiniteGroup, members) -> Subgroup:
    mask = 0
    for a in members:
        mask |= 1 << a
    order = mask.bit_count()
    cyclic = any(g.elem_order[a] == order for a in _bits(mask))
    return Subgroup(mask, order, g.order, cyclic)


class SubgroupLattice(
    Record,
    namedtuple(
        "SubgroupLattice",
        "all maximal_subgroups orbit joins automorphisms",
    ),
):
    # the first two each a tuple of Subgroups in canonical order: all of
    # them and the one stratum (see `_maximal_orbits`); orbit maps each
    # subgroup's mask to the mask of its orbit's representative, and joins
    # maps each representative's mask to the distinct masks of S v <c> for
    # the atoms <c> outside S (none for G); both read-only; automorphisms
    # holds the maps of `automorphisms(G)` whose group the orbits are of,
    # each a tuple of the images of 0..|G|-1
    __slots__ = ()


def _join(table, members, mask, gens, new, cap=math.inf):
    """Members, mask and generators of <S, new>, for the subgroup S given by
    its members, mask and generating list.

    The result is built as a union of right cosets S*r, starting from S
    itself: each representative r is multiplied by every generator t, and a
    product outside the union so far opens the fresh coset S*(r*t).  Costs
    |J| + (|J|/|S|)*len(gens) table lookups for the join J.  Once the union
    holds more than `cap` elements, the whole group is returned: with cap
    the largest proper divisor of |G| that is a multiple of |S|, Lagrange
    leaves G as the only subgroup that large.
    """
    if mask >> new & 1:
        return members, mask, gens
    gens = [*gens, new]
    elems = list(members)
    reps = [0]
    for r in reps:
        row = table[r]
        for t in gens:
            x = row[t]
            if not mask >> x & 1:
                reps.append(x)
                for a in members:
                    e = table[a][x]
                    elems.append(e)
                    mask |= 1 << e
                if len(elems) > cap:
                    return range(len(table)), (1 << len(table)) - 1, gens
    return elems, mask, gens


def closure(g: FiniteGroup, seed) -> Subgroup:
    """Least subgroup containing the seed elements: `_join` folded over
    them from the trivial group."""
    members, mask, gens = [0], 1, []
    for a in seed:
        members, mask, gens = _join(g.table, members, mask, gens, a)
    return make_subgroup(g, members)


@lru_cache(maxsize=CACHE_SIZE)
def _census(g: FiniteGroup) -> tuple:
    """The cyclic subgroups of G, found here alone and keyed by table: every
    <x> in canonical order, the least generator of each, the index of <x>
    for each element x, and the indices of the maximal ones (`_maximal`).
    Each element a not met before, ascending, walks its powers and marks
    those of order ord(a), the other generators of <a>."""
    table, order, n = g.table, g.elem_order, g.order
    least = [0] + [-1] * (n - 1)  # each element's least generator of <x>
    walked = [(1, 1, 0)]  # (order, mask, least generator) of each <a>
    for a in range(1, n):
        if least[a] < 0:
            mask, x, k = 1, a, order[a]
            while x:
                mask |= 1 << x
                if order[x] == k:
                    least[x] = a
                x = table[x][a]
            walked.append((k, mask, a))
    walked.sort()
    index = {a: i for i, (*_, a) in enumerate(walked)}
    cyclics = tuple(Subgroup(mask, k, n, True) for k, mask, _ in walked)
    top = tuple(_maximal([c.mask for c in cyclics]))
    return cyclics, tuple(a for *_, a in walked), tuple(map(index.__getitem__, least)), top


def cyclic_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """All <x> for x in G, duplicate-free, in canonical order: the census's
    tuple (see `_census`)."""
    return _census(g)[0]


def maximal_filter(subgroups) -> list[Subgroup]:
    """The subgroups that lie in no other one, in the order given; over every
    subgroup, the tests' reference for `_maximal_orbits`."""
    subgroups = list(subgroups)
    return [subgroups[i] for i in _maximal([s.mask for s in subgroups])]


def maximal_cyclic_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """The maximal cyclic subgroups of G, in canonical order, without the
    lattice: the points of every cover instance and sigma_c's candidates."""
    cyclics, _, _, top = _census(g)
    return [cyclics[i] for i in top]


def _maximal_orbits(ordered, orbit, joins, admissible) -> list[Subgroup]:
    """The maximal members, in the canonical order of `ordered`, of the
    family that `admissible` accepts, which must be closed under subgroups
    and automorphisms, by one walk over the lattice's `orbit` and `joins`
    (see the module docstring): at most one call per orbit."""
    admitted, top = set(), set()  # representatives: of admitted orbits, of maximal ones
    for rep in sorted(joins, key=lambda m: (m.bit_count(), m), reverse=True):
        if not admitted.isdisjoint(map(orbit.__getitem__, joins[rep])):
            admitted.add(rep)
            continue
        s = ordered[bisect_left(ordered, (rep.bit_count(), rep), key=Subgroup.sort_key)]
        if admissible(s):
            admitted.add(rep)
            top.add(rep)
    return [s for s in ordered if orbit[s.mask] in top]


def _hom_from_images(ktable, htable, gens, images) -> list[int] | None:
    """The injective homomorphism <gens> -> H sending gens[i] to images[i],
    for K and H given by their tables, as the list of images of K's
    elements with -1 outside <gens>; or None if there is none.

    phi is built by a breadth-first search over the Cayley graph of <gens>,
    from phi(0) = 0 and phi(x*s) = phi(x)*phi(s).  It fails as soon as an
    edge x -> x*s breaks that rule or an image is assigned twice; if it
    never fails, phi(x*y) = phi(x)*phi(y) for all x, y in <gens>, by
    induction on word length, and phi is injective.
    """
    phi = [-1] * len(ktable)
    phi[0] = 0
    used = {0}
    queue = [0]
    for x in queue:
        row, image_row = ktable[x], htable[phi[x]]
        for s, t in zip(gens, images):
            y, fy = row[s], image_row[t]
            if phi[y] < 0:
                if fy in used:
                    return None
                phi[y] = fy
                used.add(fy)
                queue.append(y)
            elif phi[y] != fy:
                return None
    return phi


def split_generators(g: FiniteGroup) -> list[int]:
    """Generators of G, each of the highest order (ties by index) among the
    elements whose cyclic subgroup meets the span so far only in the
    identity: on an abelian p-group a basis, orders descending.  An element
    that fails stays failed, so one pass finds every pick.  Where none is
    left before the span is G, as on Q8, the pass starts again from the
    identity and adjoins each element outside the span, in the same order.
    These are the generators of the lattice's automorphisms and of the
    embedding search alike."""
    table, n = g.table, g.order
    by_order = sorted(range(n), key=g.elem_order.__getitem__, reverse=True)
    members, mask, gens = [0], 1, []
    for a in by_order:
        if len(members) == n:
            return gens
        x = a
        while x and not mask >> x & 1:
            x = table[x][a]
        if not x:
            members, mask, gens = _join(table, members, mask, gens, a)
    if len(members) < n:
        members, mask, gens = [0], 1, []
        for a in by_order:
            if not mask >> a & 1:
                members, mask, gens = _join(table, members, mask, gens, a)
    return gens


def _commute(table, elems) -> bool:
    """Whether the elements commute pairwise; on generators of G, whether G
    is abelian."""
    return all(table[a][b] == table[b][a] for a, b in combinations(elems, 2))


def automorphisms(g: FiniteGroup, gens: list[int]) -> list[list[int]]:
    """A few non-identity automorphisms of G, each as the list of images of
    0..|G|-1: those among a handful of candidate maps on the split
    generators `gens` (`split_generators(g)`) that `_hom_from_images`
    confirms.

    The generators fall into blocks of equal order.  The candidates are
    conjugation by each generator (the identity when it is central); in
    each block, a cyclic shift of the block and the transvection
    b_0 -> b_0*b_1 of its first two; and for the first generators b, b' of
    two adjacent blocks, b -> b*b', b' -> b'*b and, unless that one is an
    automorphism, b' -> b'*b^(|b|/|b'|).  Candidates that are not
    automorphisms, and the identity, are dropped, and so is the square of
    a kept map (see `_drop_squares`): on a dihedral group, conjugation by
    the rotation r is the square of s -> s*r.  On C_2^n the shift and the
    transvection generate GL(n, 2).
    """
    table, inverse, order = g.table, g.inverse, g.elem_order
    maps = {}

    def keep(images) -> bool:
        phi = None if images == gens else _hom_from_images(table, table, gens, images)
        if phi is not None:
            maps.setdefault(tuple(phi), phi)
        return phi is not None

    def moved(i, x):
        return [*gens[:i], x, *gens[i + 1:]]

    for t in gens:
        keep([table[table[inverse[t]][s]][t] for s in gens])
    starts = [i for i, b in enumerate(gens) if i == 0 or order[b] != order[gens[i - 1]]]
    for i, j in zip(starts, [*starts[1:], len(gens)]):
        b = gens[i]
        if j - i > 1:
            keep([*gens[:i], *gens[i + 1:j], b, *gens[j:]])
            keep(moved(i, table[b][gens[i + 1]]))
        if j < len(gens):
            c = power = gens[j]
            for _ in range(order[b] // order[c]):
                power = table[power][b]
            keep(moved(i, table[b][c]))
            # b' -> b'*b^k is the k-th power of b' -> b'*b, which fixes b
            if not keep(moved(j, table[c][b])):
                keep(moved(j, power))
    return _drop_squares(maps)


def _drop_squares(maps: dict) -> list[list[int]]:
    """The maps, in order, less each that is the square of a map still kept
    when its turn comes: it lies in the group the kept maps generate, so the
    orbits stay as they were, and each orbit member costs one image less per
    map dropped.  Of a map of order 3 and its inverse, only the first goes."""
    square = {key: tuple(map(phi.__getitem__, phi)) for key, phi in maps.items()}
    for key in list(maps):
        if any(square[other] == key for other in maps):
            del maps[key]
    return list(maps.values())


@lru_cache(maxsize=CACHE_SIZE)
def all_subgroups(g: FiniteGroup) -> SubgroupLattice:
    """Complete subgroup lattice by layered join-closure from cyclic atoms,
    expanding one subgroup per orbit of `automorphisms(g)`.

    Every subgroup is a join of cyclic subgroups, so saturating joins of
    known subgroups with cyclic atoms reaches all of them without the 2^|G|
    subset scan.  Only orbit representatives are joined: a new join J
    brings its whole orbit into the lattice, and only J is expanded.
    Nothing is missed, because a(S) v <c> = a(S v <a^-1(c)>) for every
    automorphism a and every atom is tried on S.  Each representative keeps
    the generating list it was first reached by, at most log2|G| long, and
    `_join` closes S v <c> as a union of right cosets of S, returning G as
    soon as the union is too large for a proper subgroup.  Atoms inside a
    join of prime index over S are skipped for S: they would return that
    join again.  So are the conjugates t*c*t^-1, for t in S, of an atom <c>
    already joined, found by a walk over the generators of S: they give
    S v <c> again.  The recorded joins decide the maximal subgroups per orbit.
    Cached by table, so relabelled copies of a group share one lattice.
    """
    table = g.table
    n = g.order
    cyclics, generator, of, _ = _census(g)
    atoms = [(c.mask, a) for c, a in zip(cyclics, generator) if c.order > 1]
    full_mask = (1 << n) - 1
    # for each proper divisor d of |G|, the largest proper divisor of |G|
    # that d divides: the early-exit bound of `_join` for |S| = d
    caps = {
        d: n // next(p for p in range(2, n + 1) if n // d % p == 0)
        for d in range(1, n)
        if n % d == 0
    }
    split, inverse = split_generators(g), g.inverse
    # each automorphism, with the bit of each element's image
    maps = tuple(map(tuple, automorphisms(g, split)))
    autos = [(phi, [1 << x for x in phi]) for phi in maps]

    def orbit(mask, room=math.inf):
        """The masks of the images of a subgroup under the group that
        `autos` generates, found by a depth-first search that carries
        each member's elements along.  One orbit can hold millions of
        subgroups (C2^9), so it fails as soon as it outgrows `room`."""
        masks = {mask}
        stack = [list(_bits(mask))]
        while stack:
            if len(masks) > room:
                raise BudgetExceeded(f"{g.label}: subgroup count exceeds {MAX_SUBGROUPS}")
            elems = stack.pop()
            for phi, bit in autos:
                x = sum(map(bit.__getitem__, elems))
                if x not in masks:
                    masks.add(x)
                    stack.append([phi[a] for a in elems])
        return masks

    known: dict[int, Subgroup] = {c.mask: c for c in cyclics}
    frontier = []
    representative: dict[int, int] = {}  # mask -> mask of its orbit's representative
    for c in cyclics:
        if c.mask not in representative:
            frontier.append(c)
            for x in orbit(c.mask):
                representative[x] = c.mask
    # The generating lists and member lists live here, by mask, and not on
    # `Subgroup`: a generating list depends on the route by which a subgroup
    # was found, so equal subgroups from `closure`, `make_subgroup` and the
    # lattice would stop comparing equal.  A member list is kept from the
    # join that found its subgroup until that subgroup is expanded.
    gens: dict[int, list[int]] = {mask: [a] for mask, a in atoms}
    gens[1] = []
    elems: dict[int, list[int]] = {c.mask: list(_bits(c.mask)) for c in frontier}
    joins: dict[int, set[int]] = {}  # representative's mask -> the masks of its joins
    # the generators of the atoms not normal in G: only their classes under
    # conjugation by a subgroup hold more than one atom, and abelian G has
    # none
    moving = 0
    if not _commute(table, split):
        for b in split:
            row, b_inv = table[b], inverse[b]
            for cmask, c in atoms:
                if not cmask >> table[row[c]][b_inv] & 1:
                    moving |= 1 << c
    while frontier:
        fresh: list[Subgroup] = []
        for s in frontier:
            smask = s.mask
            smembers = elems.pop(smask)
            joins[smask] = sjoins = set()
            if smask == full_mask:
                continue
            sgens = gens[smask]
            # the generators of the atoms whose join is found: those inside a
            # join of prime index over S, and the classes of the atoms joined
            settled = 0
            for cmask, c in atoms:
                if cmask & ~smask == 0 or settled >> c & 1:
                    continue
                members, mask, jgens = _join(table, smembers, smask, sgens, c, caps[s.order])
                if _is_prime(len(members) // s.order):
                    settled |= mask
                elif moving >> c & 1:
                    # S v <t c t^-1> = S v <c> for t in S: settle c's class,
                    # which a join of prime index holds already
                    queue = [c]
                    for x in queue:
                        for t in sgens:
                            y = generator[of[table[table[t][x]][inverse[t]]]]
                            if not settled >> y & 1:
                                settled |= 1 << y
                                queue.append(y)
                if mask not in known:
                    # every cyclic subgroup is known from the start, and the
                    # known subgroups are whole orbits, so the orbit of a new
                    # join is new and not cyclic
                    for x in orbit(mask, MAX_SUBGROUPS - len(known)):
                        known[x] = Subgroup(x, len(members), n, False)
                        representative[x] = mask
                    gens[mask] = jgens
                    elems[mask] = members
                    fresh.append(known[mask])
                sjoins.add(known[mask].mask)  # the stored int, not an equal copy
        frontier = fresh
    ordered = tuple(sorted(known.values(), key=Subgroup.sort_key))
    return SubgroupLattice(
        ordered,
        tuple(_maximal_orbits(ordered, representative, joins, lambda s: s.is_proper)),
        MappingProxyType(representative),
        MappingProxyType({r: tuple(js) for r, js in joins.items()}),
        maps,
    )


def all_proper_subgroups_cyclic(g: FiniteGroup) -> bool:
    lat = all_subgroups(g)
    return all(s.is_cyclic for s in lat.all if s.is_proper)


def totient_cover_bound(g: FiniteGroup) -> ExtNat:
    """Sum over non-identity x of 1/phi(ord(x)).

    Counts the nontrivial proper cyclic subgroups of a noncyclic group (each
    cyclic subgroup of order d has phi(d) generators), hence an upper bound
    for the cyclic covering number.  Summed per order d as (number of
    elements of order d) / phi(d), which must divide exactly.  Infinite for
    cyclic groups, matching sigma_c.
    """
    if g.is_cyclic:
        return INFINITE
    orders = g.elem_order[1:]
    total = 0
    for d in sorted(set(orders)):
        count, rest = divmod(orders.count(d), _totient(d))
        if rest:
            raise ValueError(f"{g.label}: phi({d}) does not divide the elements of order {d}")
        total += count
    return finite(total)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def as_group(g: FiniteGroup, s: Subgroup) -> FiniteGroup:
    """Materialize a subgroup with its own table.

    Element i of the result is element `s.members[i]` of the parent, so the
    identity stays at 0.  The table is built once per (parent table, mask)
    (see `_subgroup_table`); each call returns a view of it labelled
    "<parent>|<order>@<hex mask>" after its own parent.  Only callers that
    print the label need the view (`corpus` and `check_subadditivity`);
    `ic` and its certificate checks ask `_subgroup_table` directly.
    """
    return _subgroup_table(g, s.mask)._replace(label=f"{g.label}|{s.order}@{s.mask:x}")


@lru_cache(maxsize=CACHE_SIZE)
def _subgroup_table(g: FiniteGroup, mask: int) -> FiniteGroup:
    """The subgroup on `mask` as a group of its own.  Its label is that of
    whichever parent with this table asked first, so it is not to be shown."""
    elems = tuple(_bits(mask))
    back = {a: i for i, a in enumerate(elems)}
    table = [[back[g.table[a][b]] for b in elems] for a in elems]
    return _finalize(f"{g.label}|{len(elems)}@{mask:x}", table)
