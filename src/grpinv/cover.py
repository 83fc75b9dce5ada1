"""Exact minimum set cover with deterministic certificates.

`make_instance` keeps the first occurrence of each set that no other set
strictly contains, by the inclusion-maximal filter `_maximal`, which is
also the tests' reference for the lattice's maximal subgroups.

One kernel, `coverable(uncovered, r, allowed)`, finds a cover of the
uncovered points by at most r candidates drawn from the bitset `allowed`,
or reports that there is none.  It branches on the uncovered point with the
fewest allowed candidates (per-point bitsets over candidate indices),
prunes with the counting bound |uncovered| <= r * max-size, tries only
candidates that add enough new points for the rest to fit, and drops a
candidate from `allowed` once the branch through it has failed.

At r >= 3 it also bounds the node by what its allowed candidates can still
cover.  Bit-sliced counters give every allowed candidate's count of
uncovered points at O(log max-size) big-int operations per uncovered point,
however many candidates there are.  No r candidates cover more than the sum
of the r largest counts, so the node fails when that sum is below
|uncovered|.  The sum of the r-1 largest replaces (r-1) * max-size as what
the other members can add.  The greedy upper bound reads its picks off the
same counters.

`min_cover` uses it twice.  The value: when the counting bound is at least
two below the greedy cover's size, ask once for a cover of the counting
bound's size, which spares a long descent; if there is none, the optimum
lies above it.  Then lower the best size found while a smaller cover
exists.  The certificate: fix one member at a time, the smallest index
after the previous member whose remainder is still coverable by later
candidates, which yields the lexicographically least optimal cover.  The
smallest cover found so far, greedy's until the kernel finds a smaller
one, is such a remainder, so its lowest member is accepted without another
search.  Every kernel call spends one node of a single budget, and so does
each member accepted without a search, so a certificate costs at least its
size; running out raises `BudgetExceeded` with the bounds reached, never a
non-optimal answer.

An instance may label its candidates by classes whose members are images
of each other under symmetries: permutations of the points that map every
candidate into some candidate, as the automorphisms of G do for subgroups.
The value searches then branch, at their root, over the lowest member of
each class, in index order, and a member that fails takes its whole class
out of the search.  That is sound: a symmetry maps any r-cover through a
class member to an r-cover through the class's lowest member, once each
image is replaced by a candidate that contains it; so, by induction over
the classes that failed, no member of a failed class lies in any r-cover.

The instance may also carry such symmetries as point permutations, and the
lexicographic pass prunes by those that fix its accepted prefix P: when the
probe of candidate c fails, so does that of every image of c under them.
Every candidate between P's last member and c has failed, or was skipped
by the `need` filter or as dead, and the same held at each earlier
position.  So no optimal cover contains P and c: the lowest member of such
a cover outside P would have succeeded at its own probe.  A symmetry s
fixing each member of P maps an optimal cover through P and s(c) back to
one through P and c, so s(c) is dead at this position and at every later
one: it is skipped without a node, and left out of the later probes.  The
images come from a breadth-first walk over the orbit of the tuple
(P..., c) under the group the symmetries generate: each image that starts
with P ends with a dead candidate.  Any part of the orbit is sound, so the
walk stops after as many tuples as the failed probe spent nodes, and runs
only after a probe that spent more than one: the pruning never costs more
than the search it follows.  On IC(C2^2 x C4^2; C4^2) the pass took 1,389
of 1,558 nodes, five probes of about 240 nodes each failing on images of
one another under automorphisms that fix the first member; the rule
brings the whole search down to 490 nodes.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BudgetExceeded, CheckFailed
from .groups import INFINITE, ExtNat, Record, _bits, _maximal, finite

DEFAULT_NODE_BUDGET = 10**8


class CoverInstance(
    Record,
    namedtuple(
        "CoverInstance",
        "universe_size masks kept feasible labels symmetries",
        defaults=(None, None),
    ),
):
    """`masks` holds the candidate sets as bitmasks of points, duplicate-free
    with dominated (subset) sets removed, preserving first occurrence;
    `kept` maps back to caller positions.  `labels`, when not None, names
    each kept candidate's class: candidates of one class are images of each
    other under symmetries of the instance.  `symmetries`, when not None,
    holds such symmetries as tuples of point images (see `make_instance`)."""

    __slots__ = ()


def _mask(points) -> int:
    mask = 0
    for p in points:
        if p < 0:
            raise ValueError("candidate point outside universe")
        mask |= 1 << p
    return mask


def make_instance(universe_size: int, point_masks, labels=None, symmetries=None) -> CoverInstance:
    """The cover instance of the candidates given as bitmasks of points
    (bit p for point p).  An iterable of points is also taken for a
    candidate, and folded into its mask.

    `labels`, when given, holds one label per candidate, and candidates
    with equal labels must be images of each other under a symmetry: a
    permutation of the points that maps every candidate's set into the set
    of some candidate.  The orbits of Aut(G) on the subgroups of G are such
    classes.  `min_cover` then branches over one candidate per class at the
    root of its value searches.

    `symmetries`, when given, holds symmetries as tuples of point images,
    p -> perm[p]; the automorphisms of G are such maps.  `min_cover` prunes
    its certificate pass with them, and raises `CheckFailed` if one is no
    permutation or maps a kept candidate's set onto no kept set.
    """
    if universe_size < 1:
        raise ValueError("universe must be nonempty")
    masks = []
    for m in point_masks:
        if not isinstance(m, int):
            m = _mask(m)
        if m < 0 or m >> universe_size:
            raise ValueError("candidate point outside universe")
        masks.append(m)
    kept = _maximal(masks)
    full = (1 << universe_size) - 1
    union = 0
    for j in kept:
        union |= masks[j]
    return CoverInstance(
        universe_size=universe_size,
        masks=tuple(masks[j] for j in kept),
        kept=tuple(kept),
        feasible=union == full,
        labels=None if labels is None else tuple(labels[j] for j in kept),
        symmetries=None if symmetries is None else tuple(map(tuple, symmetries)),
    )


class CoverSolution(Record, namedtuple("CoverSolution", "value certificate")):
    __slots__ = ()  # certificate: indices into instance masks, or None


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("cover search exceeded node budget")


def _scan(point_bits, uncovered: int, allowed: int, planes: list[int] | None) -> int:
    """The allowed candidates holding the uncovered point that has the
    fewest of them, or 0 when some uncovered point has none.  When `planes`
    is a list, also count each allowed candidate's uncovered points in it:
    planes[j] holds bit j of every count, summed one point at a time by a
    ripple-carry adder, so a point costs O(log max-size) big-int operations
    however many candidates there are.  (The bit loops are inlined: they are
    the search's inner loops.)"""
    branch = 0
    fewest = allowed.bit_length() + 1
    rest = uncovered
    while rest:
        low = rest & -rest
        rest ^= low
        cands = point_bits[low.bit_length() - 1] & allowed
        k = cands.bit_count()
        if k < fewest:
            if not k:
                return 0
            branch, fewest = cands, k
        if planes is not None:
            carry = cands
            j = 0
            for plane in planes:
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
                j += 1
            else:
                planes.append(carry)
    return branch


def _by_count(planes: list[int]):
    """(count, bitset of the candidates with that count) for each nonzero
    count in bit-sliced counters, highest count first."""
    pool = 0
    for plane in planes:
        pool |= plane
    while pool:
        # narrow to the candidates with the highest count, one bit at a time
        top = pool
        count = 0
        for j in range(len(planes) - 1, -1, -1):
            both = top & planes[j]
            if both:
                top = both
                count |= 1 << j
        yield count, top
        pool ^= top


def _bitset(indices) -> int:
    """The bitset of the indices, set byte by byte: OR-ing one bit at a time
    into an int copies the int each time, which is quadratic in the count."""
    buf = bytearray(max(indices) // 8 + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class _Symmetries:
    """An instance's symmetries acting on its candidate indices, each image
    looked up once, when a walk first needs it."""

    def __init__(self, inst: CoverInstance):
        points = set(range(inst.universe_size))
        if any(len(perm) != len(points) or set(perm) != points for perm in inst.symmetries):
            raise CheckFailed("a symmetry is not a permutation of the points")
        self.masks = inst.masks
        self.index = {m: i for i, m in enumerate(inst.masks)}
        self.point_bits = [[1 << q for q in perm] for perm in inst.symmetries]
        self.moved: list[dict[int, int]] = [{} for _ in inst.symmetries]

    def image(self, k: int, i: int) -> int:
        """The index of candidate i's image under symmetry k."""
        j = self.moved[k].get(i)
        if j is None:
            bit = self.point_bits[k]
            j = self.index.get(sum(map(bit.__getitem__, _bits(self.masks[i]))))
            if j is None:
                raise CheckFailed(f"a symmetry maps candidate {i} onto no candidate")
            self.moved[k][i] = j
        return j

    def orbit(self, start: tuple, limit: int) -> list[tuple]:
        """The images of a tuple of candidates under the group the
        symmetries generate, the tuple first, in breadth-first order; the
        walk stops at `limit` tuples."""
        tuples = [start]
        seen = {start}
        for t in tuples:
            for k in range(len(self.moved)):
                if len(tuples) >= limit:
                    return tuples
                u = tuple(self.image(k, i) for i in t)
                if u not in seen:
                    seen.add(u)
                    tuples.append(u)
        return tuples


def min_cover(inst: CoverInstance, node_budget: int = DEFAULT_NODE_BUDGET) -> CoverSolution:
    if not inst.feasible:
        return CoverSolution(INFINITE, None)
    masks = inst.masks
    n = len(masks)
    full = (1 << inst.universe_size) - 1
    everything = (1 << n) - 1
    budget = _Budget(node_budget)
    max_size = max(m.bit_count() for m in masks)
    lower = -(-inst.universe_size // max_size)

    # point_bits[p]: bitset of the candidate indices that contain point p
    point_bits = [0] * inst.universe_size
    for i, m in enumerate(masks):
        for p in _bits(m):
            point_bits[p] |= 1 << i

    # the classes of the instance's labels, as (bit of the lowest member,
    # bitset of the members), lowest member first
    label_classes = None
    if inst.labels is not None:
        members: dict = {}
        for i, label in enumerate(inst.labels):
            members.setdefault(label, []).append(i)
        label_classes = [(1 << ids[0], _bitset(ids)) for ids in members.values()]

    def coverable(uncovered: int, r: int, allowed: int, classes=None) -> int | None:
        """A bitset of at most r candidates in `allowed` that covers
        `uncovered`, or None if there is none.  With `classes`, branch over
        the lowest member of each class instead of the candidates of one
        point, and drop a whole class from `allowed` when its member fails;
        `min_cover` passes them only at the root of a value search."""
        budget.spend()
        if not uncovered:
            return 0
        size = uncovered.bit_count()
        if size > r * max_size:
            return None
        if r == 1:
            for p in _bits(uncovered):
                allowed &= point_bits[p]
            return allowed & -allowed or None
        # Below r = 3 the coverage bound costs more than it prunes: at r = 2
        # every child is a single AND.  Bounding r = 2 too saved 38 of the
        # 3,661 nodes that C2^2xC4^2;C4^2 took before the root orbit rule,
        # and slowed its min_cover from 0.05-0.08 to 0.08-0.10 s (2-vCPU
        # Xeon, Python 3.11).
        planes = [] if r >= 3 else None
        branch = _scan(point_bits, uncovered, allowed, planes)
        if not branch:
            return None
        # a member of an r-cover covers what the other r-1 cannot
        if planes is None:
            need = size - max_size
        else:
            # r candidates cover at most the sum of the r largest counts, and
            # the other r-1 members at most the sum of the r-1 largest
            total = count = 0
            left = r
            for count, holders in _by_count(planes):
                k = min(holders.bit_count(), left)
                left -= k
                total += k * count
                if not left or total >= size:
                    break
            if total < size:
                return None
            need = size - (total if left else total - count)
        if classes is not None:
            for low, members in classes:
                m = masks[low.bit_length() - 1]
                if (m & uncovered).bit_count() >= need:
                    found = coverable(uncovered & ~m, r - 1, allowed)
                    if found is not None:
                        return found | low
                allowed &= ~members  # no cover through this class is left
            return None
        while branch:
            low = branch & -branch
            branch ^= low
            m = masks[low.bit_length() - 1]
            if (m & uncovered).bit_count() >= need:
                found = coverable(uncovered & ~m, r - 1, allowed)
                if found is not None:
                    return found | low
                allowed ^= low  # no cover through this candidate is left
        return None

    # greedy upper bound (most new points, ties to the lowest index)
    witness = 0  # the smallest cover found so far: greedy's, then the kernel's
    uncovered = full
    while uncovered:
        planes: list[int] = []
        _scan(point_bits, uncovered, everything, planes)
        _, holders = next(_by_count(planes))
        low = holders & -holders
        witness |= low
        uncovered &= ~masks[low.bit_length() - 1]
    optimum = witness.bit_count()

    floor = 0  # the largest size known to have no cover
    try:
        # the counting bound first: far below the greedy size, one search at
        # `lower` spares the descent every size in between
        if lower <= optimum - 2:
            found = coverable(full, lower, everything, label_classes)
            if found is None:
                floor = lower
            else:
                witness, optimum = found, found.bit_count()
        while optimum > floor + 1:
            smaller = coverable(full, optimum - 1, everything, label_classes)
            if smaller is None:
                break
            witness, optimum = smaller, smaller.bit_count()
    except BudgetExceeded as exc:
        low = max(lower, floor + 1)
        raise BudgetExceeded(f"{exc}: optimum in [{low}, {optimum}]") from None

    # lex-least certificate: at each position the smallest candidate after
    # the previous one whose remainder still fits in the members left.
    # `witness` is an optimal cover of `uncovered` by later candidates, so
    # its lowest member fits without a search; taking it spends a node, as
    # a search would, so a certificate costs at least its size.
    # A probe through c that fails after more than one node also kills the
    # images of c under the symmetries that fix the certificate so far: they
    # are skipped without a node, and left out of every later probe.
    orbits = None  # the instance's `_Symmetries`, set up at the first walk
    certificate: list[int] = []
    uncovered = full
    c = -1
    dead = 0  # candidates in no optimal cover through the certificate so far
    try:
        while uncovered:
            left = optimum - len(certificate) - 1
            need = max(1, uncovered.bit_count() - left * max_size)
            for c in range(c + 1, n):
                low = 1 << c
                if witness & low:
                    budget.spend()
                    witness ^= low
                    break
                m = masks[c]
                if not dead & low and (m & uncovered).bit_count() >= need:
                    before = budget.left
                    found = coverable(uncovered & ~m, left, everything & ~(2 * low - 1 | dead))
                    if found is not None:
                        witness = found
                        break
                    spent = before - budget.left
                    if spent > 1 and inst.symmetries:
                        orbits = orbits or _Symmetries(inst)
                        prefix = tuple(certificate)
                        for t in orbits.orbit((*prefix, c), spent):
                            if t[:-1] == prefix:
                                dead |= 1 << t[-1]
            else:
                raise CheckFailed(
                    f"no cover of the optimal size {optimum} in the lexicographic pass"
                )
            certificate.append(c)
            uncovered &= ~masks[c]
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc}: optimum is {optimum}, certificate unfinished") from None
    return CoverSolution(finite(optimum), tuple(certificate))


def validate_cover(inst: CoverInstance, solution: CoverSolution) -> bool:
    """Certificate covers the universe, is irredundant, and matches value."""
    if not solution.value.is_finite or solution.certificate is None:
        return False
    cert = solution.certificate
    if len(set(cert)) != len(cert) or len(cert) != solution.value.value:
        return False
    if any(not 0 <= c < len(inst.masks) for c in cert):
        return False
    full = (1 << inst.universe_size) - 1
    union = 0
    for c in cert:
        union |= inst.masks[c]
    if union != full:
        return False
    for i in cert:
        others = 0
        for j in cert:
            if j != i:
                others |= inst.masks[j]
        if others == full:
            return False
    return True

