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

`min_cover` uses it in two phases, and both choose members by one probe
loop: scan the candidates in index order from a start, and take the first
whose remainder is still coverable by later candidates.  The value: when
the counting bound is at least two below the greedy cover's size, ask once
for a cover of the counting bound's size, which spares a long descent; if
there is none, the optimum lies above it.  Then lower the best size found
while a smaller cover exists.  The root of each such search picks its
first member by a probe from candidate 0, where the kernel would branch on
a point.  The certificate: probe at each position from after the previous
member, which yields the lexicographically least optimal cover.  The
smallest cover found so far, greedy's until the kernel finds a smaller
one, is such a remainder, so its lowest member is accepted without another
search.  Every kernel call spends one node of a single budget, and so does
each member accepted without a search, so a certificate costs at least its
size; running out raises `BudgetExceeded` with the bounds reached, never a
non-optimal answer.

An instance may carry symmetries: permutations of the points that map
every candidate onto a candidate, as the automorphisms of G do for its
subgroups.  A probe prunes by those that fix its prefix P, the members
chosen so far, which is empty at a value search's root: when the probe of
candidate c fails, so does that of every image of c under them.  Every
candidate between P's last member and c has failed, or was skipped by the
`need` filter or as dead, and the same held at each earlier position.  So
no cover of the size asked contains P and c: the lowest member of such a
cover outside P would have succeeded at its own probe.  A symmetry s
fixing each member of P maps a cover through P and s(c) back to one
through P and c, so s(c) is dead at this position and at every later one:
it is skipped without a node, and left out of the later probes.  At the
root every symmetry fixes P, so a failed probe takes out the candidate's
orbit.  The images come from a breadth-first walk over the orbit of the
tuple (P..., c) under the group the symmetries generate: each image that
starts with P ends with a dead candidate.  Any part of the orbit is sound,
so the walk stops after as many tuples as the failed probe spent nodes,
and runs only after a probe that spent more than one: the pruning never
costs more than the search it follows.  On IC(C2^2 x C4^2; C4^2) the
certificate pass took 1,389 of 1,558 nodes, five probes of about 240
nodes each failing on images of one another under automorphisms that fix
the first member; the rule brings the whole search down to 520 nodes.

The symmetries also give a stronger bound than counting: the dual of the
fractional cover LP tau* (Lovasz 1975), point weights under which no
candidate weighs more than 1, so that r members cover weight at most r.
Averaging an optimal dual over the group the symmetries generate keeps it
feasible and optimal, so a dual constant on the point orbits O_k (found by
a union-find over the symmetries' point tuples) loses nothing.  Such a
dual meets a candidate's constraint exactly when it meets that of the
candidate's profile, the count of its points in each orbit: the LP has one
variable per point orbit and one constraint per distinct profile, and no
candidate orbit is built.  `_fractional_dual` solves it exactly, in
integers: weights W_k over one denominator D.  The gate then checks every
profile, and so every kept candidate, to weigh at most D, with no weight
negative, or raises `CheckFailed`; so the bound is sound whatever the
solver or the symmetries got wrong.  `coverable` fails a node whose
uncovered points weigh more than r * D.  Counting stays in front of it:
at a node whose uncovered points lie in light orbits it cuts where the
weights do not.  `min_cover` solves the LP after the greedy pass, when
the instance has symmetries and greedy is above the counting bound.  When
the points form one orbit the LP's value is the counting bound, so nothing
is solved.  On IC(C2^2 x C4^2; C4^2) the counting bound is 6, the weights
on its 2 point orbits give 8, the optimum, and the search takes 19 nodes
instead of 520.
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
        "universe_size masks kept feasible symmetries",
        defaults=(None,),
    ),
):
    """`masks` holds the candidate sets as bitmasks of points, duplicate-free
    with dominated (subset) sets removed, preserving first occurrence;
    `kept` maps back to caller positions.  `symmetries`, when not None,
    holds symmetries of the instance as tuples of point images (see
    `make_instance`)."""

    __slots__ = ()


def _mask(points) -> int:
    mask = 0
    for p in points:
        if p < 0:
            raise ValueError("candidate point outside universe")
        mask |= 1 << p
    return mask


def make_instance(universe_size: int, point_masks, symmetries=None) -> CoverInstance:
    """The cover instance of the candidates given as bitmasks of points
    (bit p for point p).  An iterable of points is also taken for a
    candidate, and folded into its mask.

    `symmetries`, when given, holds symmetries as tuples of point images,
    p -> perm[p]: permutations of the points that map every candidate's set
    onto the set of some candidate, as the automorphisms of G do for its
    subgroups.  `min_cover` prunes its searches with them and weighs the
    points by their orbits, and raises `CheckFailed` if one is no
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


def _fractional_dual(sizes: list[int], profiles: list[tuple[int, ...]]) -> tuple[list[int], int]:
    """Integer weights W over one denominator D > 0 that maximise
    sum(sizes[k] * W[k]) subject to W >= 0 and sum(cnt[k] * W[k]) <= D for
    every profile cnt: the dual of the fractional cover LP over point
    orbits of the given sizes.  The simplex method runs on a condensed
    tableau by integer pivoting (Edmonds; Bareiss): every entry is an
    integer over the common denominator D, the determinant of the basis,
    and each pivot's division is exact.  Bland's rule picks the entering
    and leaving variables, so the method stops.  Variables 0..K-1 are the
    weights and K.. the profiles' slacks.  Every orbit meets some profile,
    so the LP is bounded and each ratio test finds a row."""
    k = len(sizes)
    # row 0 is the objective, row i + 1 profile i; column 0 is the
    # right-hand side, column j + 1 the nonbasic variable cols[j]
    rows = [[0, *(-s for s in sizes)], *([1, *cnt] for cnt in profiles)]
    basic = [-1, *range(k, k + len(profiles))]
    cols = list(range(k))
    d = 1
    while True:
        improving = [(v, j + 1) for j, v in enumerate(cols) if rows[0][j + 1] < 0]
        if not improving:
            break
        s = min(improving)[1]
        r = 0
        for i in range(1, len(rows)):
            a = rows[i][s]
            if a > 0:
                if not r:
                    r = i
                    continue
                cross = rows[i][0] * rows[r][s] - rows[r][0] * a
                if cross < 0 or cross == 0 and basic[i] < basic[r]:
                    r = i
        pivot = rows[r]
        p = pivot[s]
        for i, row in enumerate(rows):
            if i != r:
                f = row[s]
                rows[i] = [(x * p - f * y) // d for x, y in zip(row, pivot)]
                rows[i][s] = -f
        pivot[s] = d
        d = p
        basic[r], cols[s - 1] = cols[s - 1], basic[r]
    weights = [0] * k
    for v, row in zip(basic, rows):
        if 0 <= v < k:
            weights[v] = row[0]
    return weights, d


def _orbit_weights(inst: CoverInstance) -> tuple[tuple[tuple[int, int], ...], int]:
    """Point weights that no kept candidate outweighs, constant on the
    point orbits of the group the symmetries generate: (orbit mask, weight)
    for each orbit of positive weight, and the denominator D that is a
    candidate's weight limit.  Empty when the points form one orbit."""
    parent = list(range(inst.universe_size))

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    for perm in inst.symmetries:
        for p, q in enumerate(perm):
            a, b = find(p), find(q)
            if a != b:
                parent[a] = b
    by_root: dict[int, int] = {}
    for p in range(inst.universe_size):
        root = find(p)
        by_root[root] = by_root.get(root, 0) | 1 << p
    orbits = list(by_root.values())
    if len(orbits) == 1:
        return (), 1
    profiles = list(dict.fromkeys(tuple((m & o).bit_count() for o in orbits) for m in inst.masks))
    weights, scale = _fractional_dual([o.bit_count() for o in orbits], profiles)
    if scale < 1 or min(weights) < 0 or any(
        sum(map(int.__mul__, weights, cnt)) > scale for cnt in profiles
    ):
        raise CheckFailed("the orbit weights put a candidate above weight 1")
    return tuple((o, w) for o, w in zip(orbits, weights) if w), scale


class _Symmetries:
    """An instance's symmetries acting on its candidate indices, each image
    looked up once, when a walk first needs it."""

    def __init__(self, inst: CoverInstance):
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
    if inst.symmetries:
        points = set(range(inst.universe_size))
        if any(len(perm) != len(points) or set(perm) != points for perm in inst.symmetries):
            raise CheckFailed("a symmetry is not a permutation of the points")
    masks = inst.masks
    n = len(masks)
    full = (1 << inst.universe_size) - 1
    everything = (1 << n) - 1
    budget = _Budget(node_budget)
    max_size = max(m.bit_count() for m in masks)
    lower = -(-inst.universe_size // max_size)
    orbits = None  # the instance's `_Symmetries`, set up at the first walk
    weights: tuple[tuple[int, int], ...] = ()  # (point orbit mask, weight)
    scale = 1  # the weight D that no candidate exceeds

    # point_bits[p]: bitset of the candidate indices that contain point p
    point_bits = [0] * inst.universe_size
    for i, m in enumerate(masks):
        for p in _bits(m):
            point_bits[p] |= 1 << i

    def probe(
        prefix: tuple, uncovered: int, r: int, start: int, witness: int, dead: int, need: int
    ) -> tuple[int, int, int] | None:
        """The first candidate c from `start` on such that later candidates
        cover the rest of `uncovered` in at most r - 1 members, as (c, that
        cover, dead), or None.  A member of `witness` is such a c without a
        search; a `dead` candidate, or one holding fewer than `need` points,
        is skipped.  A probe through c that fails after more than one node
        also kills the images of c under the symmetries that fix `prefix`."""
        nonlocal orbits
        for c in range(start, n):
            low = 1 << c
            if witness & low:
                budget.spend()
                return c, witness ^ low, dead
            m = masks[c]
            if dead & low or (m & uncovered).bit_count() < need:
                continue
            before = budget.left
            found = coverable(uncovered & ~m, r - 1, everything & ~(2 * low - 1 | dead))
            if found is not None:
                return c, found, dead
            spent = before - budget.left
            if spent > 1 and inst.symmetries:
                orbits = orbits or _Symmetries(inst)
                for t in orbits.orbit((*prefix, c), spent):
                    if t[:-1] == prefix:
                        dead |= 1 << t[-1]
        return None

    def coverable(uncovered: int, r: int, allowed: int, root: bool = False) -> int | None:
        """A bitset of at most r candidates in `allowed` that covers
        `uncovered`, or None if there is none.  At the `root` of a value
        search, choose the first member by `probe` with an empty prefix."""
        budget.spend()
        if not uncovered:
            return 0
        size = uncovered.bit_count()
        if size > r * max_size:
            return None
        if weights and sum(w * (uncovered & o).bit_count() for o, w in weights) > r * scale:
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
        if root:
            step = probe((), uncovered, r, 0, 0, 0, need)
            return None if step is None else step[1] | 1 << step[0]
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
    if inst.symmetries and optimum > lower:
        weights, scale = _orbit_weights(inst)

    floor = 0  # the largest size known to have no cover
    try:
        # the counting bound first: far below the greedy size, one search at
        # `lower` spares the descent every size in between
        if lower <= optimum - 2:
            found = coverable(full, lower, everything, root=True)
            if found is None:
                floor = lower
            else:
                witness, optimum = found, found.bit_count()
        while optimum > floor + 1:
            smaller = coverable(full, optimum - 1, everything, root=True)
            if smaller is None:
                break
            witness, optimum = smaller, smaller.bit_count()
    except BudgetExceeded as exc:
        low = max(lower, floor + 1)
        raise BudgetExceeded(f"{exc}: optimum in [{low}, {optimum}]") from None

    # lex-least certificate: at each position the first probe after the
    # previous member.  `witness` is an optimal cover of `uncovered` by later
    # candidates, so its lowest member is taken without a search; that
    # spends a node, as a search would, so a certificate costs at least its
    # size.  The dead candidates stay dead at every later position.
    certificate: list[int] = []
    uncovered = full
    c = -1
    dead = 0  # candidates in no optimal cover through the certificate so far
    try:
        while uncovered:
            r = optimum - len(certificate)
            need = max(1, uncovered.bit_count() - (r - 1) * max_size)
            step = probe(tuple(certificate), uncovered, r, c + 1, witness, dead, need)
            if step is None:
                raise CheckFailed(
                    f"no cover of the optimal size {optimum} in the lexicographic pass"
                )
            c, witness, dead = step
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

