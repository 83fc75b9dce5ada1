"""Exact minimum set cover with deterministic certificates.

Two phases: branch-and-bound (greedy upper bound, branch on the uncovered
point with fewest covering candidates, prune with ceil(uncovered/max-size))
pins the optimal value; a lexicographic DFS then extracts the
lexicographically least certificate of that size.  Both phases share one
node budget, and a non-optimal answer is never returned: running out of
budget raises instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, CheckFailed, TooManySets
from .groups import INFINITE, ExtNat, finite

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class CoverInstance:
    """Candidates are duplicate-free with dominated (subset) sets removed,
    preserving first occurrence; `kept` maps back to caller positions."""

    universe_size: int
    candidates: tuple[frozenset[int], ...]
    masks: tuple[int, ...]
    kept: tuple[int, ...]
    feasible: bool


def make_instance(universe_size: int, candidate_sets) -> CoverInstance:
    if universe_size < 1:
        raise ValueError("universe must be nonempty")
    sets = [frozenset(s) for s in candidate_sets]
    for s in sets:
        if any(not 0 <= p < universe_size for p in s):
            raise ValueError("candidate point outside universe")
    masks = [sum(1 << p for p in s) for s in sets]
    kept: list[int] = []
    for i, m in enumerate(masks):
        if m == 0:
            continue
        if any(masks[j] | m == masks[j] for j in kept):
            continue  # duplicate or dominated by an already-kept set
        kept = [j for j in kept if masks[j] | m != m]
        kept.append(i)
    kept.sort()
    full = (1 << universe_size) - 1
    union = 0
    for j in kept:
        union |= masks[j]
    return CoverInstance(
        universe_size=universe_size,
        candidates=tuple(sets[j] for j in kept),
        masks=tuple(masks[j] for j in kept),
        kept=tuple(kept),
        feasible=union == full,
    )


@dataclass(frozen=True)
class CoverSolution:
    value: ExtNat
    certificate: tuple[int, ...] | None  # indices into instance candidates


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("cover search exceeded node budget")


def min_cover(inst: CoverInstance, node_budget: int = DEFAULT_NODE_BUDGET) -> CoverSolution:
    if not inst.feasible:
        return CoverSolution(INFINITE, None)
    masks = inst.masks
    n = len(masks)
    full = (1 << inst.universe_size) - 1
    budget = _Budget(node_budget)

    def popcount(x: int) -> int:
        return x.bit_count()

    max_size = max(popcount(m) for m in masks)

    # greedy upper bound (most new points, ties to the lowest index)
    covered = 0
    greedy: list[int] = []
    while covered != full:
        best = max(range(n), key=lambda i: (popcount(masks[i] & ~covered), -i))
        greedy.append(best)
        covered |= masks[best]
    best_size = len(greedy)

    point_cands = [
        tuple(i for i in range(n) if masks[i] >> p & 1)
        for p in range(inst.universe_size)
    ]

    def branch(covered: int, chosen: int):
        nonlocal best_size
        budget.spend()
        if covered == full:
            best_size = min(best_size, chosen)
            return
        uncovered = full & ~covered
        if chosen + (popcount(uncovered) + max_size - 1) // max_size >= best_size:
            return
        p = min(
            (q for q in range(inst.universe_size) if uncovered >> q & 1),
            key=lambda q: (len(point_cands[q]), q),
        )
        for c in point_cands[p]:
            branch(covered | masks[c], chosen + 1)

    branch(0, 0)
    optimum = best_size

    suffix_or = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]

    def lex_least(start: int, covered: int, remaining: int):
        budget.spend()
        if covered == full:
            return []
        if remaining == 0:
            return None
        uncovered = full & ~covered
        if uncovered & ~suffix_or[start]:
            return None
        if (popcount(uncovered) + max_size - 1) // max_size > remaining:
            return None
        for c in range(start, n):
            m = masks[c]
            # a member adding no new point cannot occur in a minimum cover
            if m & uncovered:
                rest = lex_least(c + 1, covered | m, remaining - 1)
                if rest is not None:
                    return [c, *rest]
        return None

    certificate = lex_least(0, 0, optimum)
    if certificate is None:
        raise CheckFailed(f"no cover of the optimal size {optimum} in the lexicographic pass")
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


def inclusion_exclusion_cardinality(subgroups) -> int:
    """|A_1 u ... u A_k| by the alternating sum over intersections."""
    subs = list(subgroups)
    if not subs:
        return 0
    if len(subs) > 20:
        raise TooManySets(f"{len(subs)} sets would need 2^{len(subs)} intersections")
    if len({s.parent_order for s in subs}) != 1:
        raise ValueError("subgroups must share a parent group")
    masks = [s.mask for s in subs]
    total = 0
    for pick in range(1, 1 << len(subs)):
        selected = [m for i, m in enumerate(masks) if pick >> i & 1]
        inter = selected[0]
        for m in selected[1:]:
            inter &= m
        total += (1 if len(selected) % 2 else -1) * inter.bit_count()
    return total
