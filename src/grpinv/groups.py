"""Finite groups as validated Cayley tables, built from group specs.

Elements are integers 0..n-1 with the identity fixed at 0.  Construction is
deterministic: a given spec always realizes the same table, so certificates
and JSON output are reproducible across runs.  Every table is validated
before it becomes a group, associativity included, exhaustively at every
order (Light's test over a generating set; see `_validate_table`).  Groups
are identified by their tables: equal tables validate once, in an
`lru_cache` of the last CACHE_SIZE valid tables, and make equal groups (see
`_finalize`).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .errors import InvalidSpec, OrderLimitExceeded

DEFAULT_MAX_ORDER = 128
HARD_MAX_ORDER = 720
# Entries kept by each content-keyed cache: the table store below and the
# lattice, embedding, subgroup-table and product caches keyed on groups.
CACHE_SIZE = 1024


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class Record(tuple):
    """Equality for immutable records built on `namedtuple`.

    A record class lists it before its namedtuple base, e.g.
    `class Cyclic(Record, namedtuple("Cyclic", "n")): __slots__ = ()`.  Records
    equal only records of their own class with equal fields, so Cyclic(4) is
    not Dihedral(4), nor the plain tuple (4,); they hash by their fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


# ---------------------------------------------------------------------------
# Extended naturals: the value domain of sigma, sigma_c and IC
# ---------------------------------------------------------------------------

class ExtNat(Record, namedtuple("ExtNat", "value")):
    """A positive integer or infinity (encoded as value=None).

    Total order puts every finite value below infinity; multiplication and
    addition are absorbing at infinity.
    """

    __slots__ = ()

    def __new__(cls, value: int | None):
        if value is not None and value < 1:
            raise ValueError(f"ExtNat must be positive or infinite, got {value}")
        return super().__new__(cls, value)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __lt__(self, other: "ExtNat") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __gt__(self, other: "ExtNat") -> bool:
        return other < self

    def __le__(self, other: "ExtNat") -> bool:
        return not other < self

    def __ge__(self, other: "ExtNat") -> bool:
        return not self < other

    def __mul__(self, other: "ExtNat") -> "ExtNat":
        if self.value is None or other.value is None:
            return INFINITE
        return ExtNat(self.value * other.value)

    def __add__(self, other: "ExtNat") -> "ExtNat":
        if self.value is None or other.value is None:
            return INFINITE
        return ExtNat(self.value + other.value)

    def __str__(self) -> str:
        return "infinite" if self.value is None else str(self.value)


INFINITE = ExtNat(None)


def finite(k: int) -> ExtNat:
    return ExtNat(k)


# ---------------------------------------------------------------------------
# Group specs (abstract syntax)
# ---------------------------------------------------------------------------

class Cyclic(Record, namedtuple("Cyclic", "n")):
    __slots__ = ()


class Dihedral(Record, namedtuple("Dihedral", "n")):
    __slots__ = ()  # order 2n, n >= 3


class GeneralizedQuaternion(Record, namedtuple("GeneralizedQuaternion", "order")):
    __slots__ = ()  # order 2^k, k >= 3


class SemidirectPQ(Record, namedtuple("SemidirectPQ", "q p")):
    __slots__ = ()  # p < q primes, p | q-1


class Product(Record, namedtuple("Product", "factors")):
    __slots__ = ()  # a tuple of GroupSpecs, e.g. Product((Cyclic(2),) * 3) for C2^3


class PermGroup(Record, namedtuple("PermGroup", "generators")):
    # cycles per generator, points >= 1, e.g. (((1,2,3),), ((1,2),))
    __slots__ = ()


GroupSpec = Cyclic | Dihedral | GeneralizedQuaternion | SemidirectPQ | Product | PermGroup


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Trial division by the first thirteen primes, then Miller-Rabin with
    them as bases, which is exact for n < 3.3 * 10**24 (and beyond that a
    spec's order passes any limit)."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if b * b > n:
            return True
        if n % b == 0:
            return False
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _maximal(masks) -> list[int]:
    """Ascending positions of the first occurrence of each nonzero mask that
    no other mask contains.

    The inclusion-maximal filter behind a cover instance's sets, the maximal
    cyclic subgroups of `lattice._census`, and `lattice.maximal_filter`, the
    tests' reference for what the lattice decides per orbit.  Masks
    go from the largest popcount down, and each is checked against the kept
    masks of larger popcount: distinct masks of one popcount never contain
    each other.
    """
    first: dict[int, int] = {}
    for i, m in enumerate(masks):
        if m:
            first.setdefault(m, i)
    kept: list[int] = []
    larger: list[int] = []  # the kept masks of popcount above `size`
    same: list[int] = []  # the kept masks of popcount `size`
    size = 0
    # Ties go in reverse input order: for the lattice's canonical order that
    # is descending masks, where a small subgroup meets a superset among the
    # kept masks about 12 times sooner than in ascending order (C2^7).
    for m in sorted(reversed(first), key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size = m.bit_count()
            larger += same
            same = []
        for k in larger:
            if m & k == m:
                break
        else:
            kept.append(first[m])
            same.append(m)
    kept.sort()
    return kept


def validate_spec(spec: GroupSpec) -> None:
    """Raise InvalidSpec if a parameter constraint is violated."""
    if isinstance(spec, Cyclic):
        if spec.n < 1:
            raise InvalidSpec(f"C{spec.n}: order must be >= 1")
    elif isinstance(spec, Dihedral):
        if spec.n < 3:
            raise InvalidSpec(f"D{spec.n}: dihedral parameter must be >= 3")
    elif isinstance(spec, GeneralizedQuaternion):
        m = spec.order
        if m < 8 or m & (m - 1):
            raise InvalidSpec(f"Q{m}: order must be a power of two >= 8")
    elif isinstance(spec, SemidirectPQ):
        q, p = spec.q, spec.p
        if not (_is_prime(p) and _is_prime(q)):
            raise InvalidSpec(f"SD({q},{p}): both parameters must be prime")
        if p >= q:
            raise InvalidSpec(f"SD({q},{p}): need p < q")
        if (q - 1) % p:
            raise InvalidSpec(f"SD({q},{p}): p must divide q-1")
    elif isinstance(spec, Product):
        if not spec.factors:
            raise InvalidSpec("a product needs at least one factor")
        for f in spec.factors:
            validate_spec(f)
    elif isinstance(spec, PermGroup):
        for cycles in spec.generators:
            seen: set[int] = set()
            for cyc in cycles:
                for pt in cyc:
                    if pt < 1:
                        raise InvalidSpec(f"cycle point {pt} must be >= 1")
                    if pt in seen:
                        raise InvalidSpec(f"point {pt} repeated within a generator")
                    seen.add(pt)
    else:
        raise InvalidSpec(f"unknown spec node {spec!r}")


def normalize_spec(spec: GroupSpec) -> GroupSpec:
    """Flatten nested Products and unwrap a one-factor Product.

    The realized table is independent of how a product is nested (indexing
    is positional), so normalization only pins a canonical AST for printing,
    equality and caching.
    """
    if not isinstance(spec, Product):
        return spec
    factors: list[GroupSpec] = []
    for f in map(normalize_spec, spec.factors):
        factors.extend(f.factors if isinstance(f, Product) else (f,))
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def spec_order(spec: GroupSpec) -> int | None:
    """Predicted group order; None for PermGroup (unknown until closure)."""
    if isinstance(spec, Cyclic):
        return spec.n
    if isinstance(spec, Dihedral):
        return 2 * spec.n
    if isinstance(spec, GeneralizedQuaternion):
        return spec.order
    if isinstance(spec, SemidirectPQ):
        return spec.p * spec.q
    if isinstance(spec, Product):
        order = 1
        for f in spec.factors:
            o = spec_order(f)
            if o is None:
                return None
            order *= o
        return order
    return None


def spec_text(spec: GroupSpec) -> str:
    """Canonical printed form, parseable by the CLI grammar.

    Products print flat, and runs of equal factors collapse to the ^ sugar,
    so Product((C2, C2, C3, C2)) prints as "C2^2 x C3 x C2".
    """
    spec = normalize_spec(spec)
    if isinstance(spec, Product):
        factors = spec.factors
        parts: list[str] = []
        i = 0
        while i < len(factors):
            j = i
            while j < len(factors) and factors[j] == factors[i]:
                j += 1
            text = spec_text(factors[i])
            parts.append(text if j - i == 1 else f"{text}^{j - i}")
            i = j
        return " x ".join(parts)
    if isinstance(spec, Cyclic):
        return f"C{spec.n}"
    if isinstance(spec, Dihedral):
        return f"D{spec.n}"
    if isinstance(spec, GeneralizedQuaternion):
        return f"Q{spec.order}"
    if isinstance(spec, SemidirectPQ):
        return f"SD({spec.q},{spec.p})"
    if isinstance(spec, PermGroup):
        gens = ";".join(
            "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in cycles) or "()"
            for cycles in spec.generators
        )
        return f"Perm[{gens}]"
    raise InvalidSpec(f"unprintable spec {spec!r}")


# ---------------------------------------------------------------------------
# FiniteGroup
# ---------------------------------------------------------------------------

class FiniteGroup(namedtuple("FiniteGroup", "label order table inverse elem_order table_hash")):
    """Immutable Cayley-table group with identity 0.

    Groups are equal when their tables are.  The label names one view of a
    table and takes no part in equality, so caches keyed on groups hit
    across relabelled copies while each copy prints its own label.
    `table_hash` is hash(table), computed once per stored table.
    """

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and (
            self.table is other.table or self.table == other.table
        )

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return self.table_hash

    @property
    def is_cyclic(self) -> bool:
        return self.order in self.elem_order

    @property
    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a))


def _validate_table(rows: tuple[tuple[int, ...], ...]) -> None:
    """Check that `rows` is a group's Cayley table with identity 0; raise
    ValueError otherwise, with a message that the caller prefixes with the
    group's label.

    Associativity is checked exhaustively by Light's test: (xs)y = x(sy) for
    every x, y and every s in a generating set.  The elements satisfying that
    identity for all x, y are closed under products, so it holds for all of
    them once it holds for generators.  The set is picked greedily (the
    smallest element not yet reached) and certified by closing {0} under
    x -> xs, which reaches exactly the left-normed products of generators and
    so assumes no associativity.  The cost is O(n^2) per generator, and a
    group needs at most log2(n) of them.
    """
    n = len(rows)
    elements = tuple(range(n))
    if (
        n == 0
        or set(map(len, rows)) != {n}
        or not set(elements).issuperset(chain.from_iterable(rows))
    ):
        raise ValueError("malformed Cayley table")
    if rows[0] != elements or next(zip(*rows)) != elements:
        raise ValueError("element 0 is not an identity")
    gens: list[int] = []
    reached = [0]
    seen = bytearray(n)
    seen[0] = 1
    s = seen.find(0)
    while s >= 0:
        gens.append(s)
        head = len(reached)
        for x in reached[:head]:
            y = rows[x][s]
            if not seen[y]:
                seen[y] = 1
                reached.append(y)
        while head < len(reached):
            row = rows[reached[head]]
            head += 1
            for t in gens:
                y = row[t]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
        s = seen.find(0)
    for s in gens:
        # for each x: the row of x*s, i.e. (x*s)*y over all y, against x*(s*y)
        s_then = itemgetter(*rows[s])
        for x, row in enumerate(rows):
            if rows[row[s]] != s_then(row):
                y = next(y for y in elements if rows[row[s]][y] != row[rows[s][y]])
                raise ValueError(f"operation is not associative at ({x},{s},{y})")


@lru_cache(maxsize=CACHE_SIZE)
def _checked(rows: tuple[tuple[int, ...], ...]) -> tuple:
    """(rows, inverse, element orders, hash of rows) for a valid table.

    Cached by content, so each distinct table is validated once while it
    stays among the last CACHE_SIZE, and equal tables share one rows object.
    A table that fails raises, and `lru_cache` keeps no exception.
    """
    _validate_table(rows)
    inverse = []
    for a, row in enumerate(rows):
        if 0 not in row:
            raise ValueError(f"element {a} has no inverse")
        inverse.append(row.index(0))
    orders = []
    for a in range(len(rows)):
        x = a
        m = 1
        while x != 0:
            x = rows[x][a]
            m += 1
        orders.append(m)
    return rows, tuple(inverse), tuple(orders), hash(rows)


def _finalize(label: str, table: list[list[int]]) -> FiniteGroup:
    """The group on `table`, labelled `label`.

    Every group on an equal table shares the checked rows (see `_checked`),
    so equality is mostly an identity test.
    """
    try:
        rows, inverse, orders, table_hash = _checked(tuple(map(tuple, table)))
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None
    return FiniteGroup(
        label=label,
        order=len(rows),
        table=rows,
        inverse=inverse,
        elem_order=orders,
        table_hash=table_hash,
    )


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _inverting_table(h: int, z: int) -> list[list[int]]:
    # <x, y | x^h, y x y^-1 = x^-1, y^2 = x^z>: z = 0 gives D_h, z = h/2 gives
    # Q_2h.  Elements x^i y^s are indexed s*h + i, and x^i y^s * x^j y^t is
    # x^(i+j) y^t for s = 0; for s = 1 it is x^(i-j) y for t = 0 and
    # x^(i-j+z) for t = 1, the entry x^(i-j) of row i + z
    rot = list(range(h))
    downs = [rot[i::-1] + rot[:i:-1] for i in rot]
    table = []
    for i in rot:
        up = rot[i:] + rot[:i]
        table.append(up + [x + h for x in up])
    for i in rot:
        table.append([x + h for x in downs[i]] + downs[(i + z) % h])
    return table


def _semidirect_table(q: int, p: int) -> list[list[int]]:
    """Non-abelian C_q x| C_p: pairs (i mod q, j mod p) indexed i*p + j.

    (i,j)*(i',j') = (i + r^j i' mod q, j+j' mod p) with r the smallest
    integer > 1 whose p-th power is 1 mod q; the smallest r makes the table
    canonical (all valid choices give isomorphic groups).
    """
    r = next(r for r in range(2, q) if pow(r, p, q) == 1)
    table = []
    for i in range(q):
        for j in range(p):
            rj = pow(r, j, q)
            tail = [(j + j2) % p for j2 in range(p)]
            table.append([(i + rj * i2) % q * p + k for i2 in range(q) for k in tail])
    return table


def direct_product(g: FiniteGroup, h: FiniteGroup, label: str | None = None) -> FiniteGroup:
    """Component-wise product; (a,b) is indexed a*|h| + b.

    The table is built once per pair of factor tables (see `_product`); each
    call returns a view of it under its own label.
    """
    return _product(g, h)._replace(label=label or f"{g.label} x {h.label}")


@lru_cache(maxsize=CACHE_SIZE)
def _product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    # (a,b)*(c,d) = (ac, bd) is indexed ac*m + bd, so the row of (a,b) is
    # row b of H shifted by ac*m, one block per c in the order of row a
    m = h.order
    shifted = [[[c * m + x for x in hb] for c in range(g.order)] for hb in h.table]
    table = [
        list(chain.from_iterable(map(blocks.__getitem__, ga)))
        for ga in g.table
        for blocks in shifted
    ]
    return _finalize(f"{g.label} x {h.label}", table)


def cycles_to_perm(cycles: tuple[tuple[int, ...], ...], points) -> tuple[int, ...]:
    """Disjoint cycles -> 0-based image tuple on `points`, an ascending
    sequence of every point the cycles name, whose i-th point becomes i."""
    at = {pt: i for i, pt in enumerate(points)}
    images = list(range(len(points)))
    for cyc in cycles:
        for k, pt in enumerate(cyc):
            images[at[pt]] = at[cyc[(k + 1) % len(cyc)]]
    return tuple(images)


def _perm_table(gens: list[tuple[int, ...]], degree: int, max_order: int) -> list[tuple[int, ...]]:
    """Breadth-first closure of generator products.

    Each generator is an image tuple on 0..degree-1.  Element 0 is the
    identity; indexing follows BFS discovery order under the given generator
    ordering, which makes the construction deterministic.

    With right[j][x] the index of x*g_j (a*b is x -> a(b(x))) and e_k = e_p*g_j
    for the element p that k was found from, column k of the table is column
    p looked up in right[j], since a*e_k = (a*e_p)*g_j.
    """
    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    right: list[list[int]] = [[] for _ in gens]
    parent = [(0, 0)]
    for head, cur in enumerate(elems):  # grows while it is walked: the BFS queue
        for j, g in enumerate(gens):
            nxt = tuple(map(cur.__getitem__, g))
            if nxt not in index:
                if len(elems) >= max_order:
                    raise OrderLimitExceeded(
                        f"permutation closure exceeds max order {max_order}"
                    )
                index[nxt] = len(elems)
                elems.append(nxt)
                parent.append((head, j))
            right[j].append(index[nxt])
    columns = [range(len(elems))]
    for p, j in parent[1:]:
        columns.append(list(map(right[j].__getitem__, columns[p])))
    return list(zip(*columns))


def build(spec: GroupSpec, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Realize a validated spec as a FiniteGroup.

    A product is built one factor at a time, and fails as soon as the running
    order would pass max_order, before any larger table is built.
    """
    validate_spec(spec)
    spec = normalize_spec(spec)
    label = spec_text(spec)
    predicted = None if isinstance(spec, Product) else spec_order(spec)
    if predicted is not None and predicted > max_order:
        raise OrderLimitExceeded(f"{label} has order {predicted} > max order {max_order}")
    if isinstance(spec, Cyclic):
        g = _finalize(label, _cyclic_table(spec.n))
    elif isinstance(spec, Dihedral):
        g = _finalize(label, _inverting_table(spec.n, 0))
    elif isinstance(spec, GeneralizedQuaternion):
        g = _finalize(label, _inverting_table(spec.order // 2, spec.order // 4))
    elif isinstance(spec, SemidirectPQ):
        g = _finalize(label, _semidirect_table(spec.q, spec.p))
    elif isinstance(spec, Product):
        g = None
        for f in spec.factors:
            try:
                h = build(f, max_order // (g.order if g else 1))
            except OrderLimitExceeded:
                raise OrderLimitExceeded(f"{label} has order > max order {max_order}") from None
            g = h if g is None else direct_product(g, h, label)
        predicted = spec_order(spec)  # at most max_order now, so cheap to multiply out
    elif isinstance(spec, PermGroup):
        # on the points the cycles name only: Perm[(1 999999999)] acts on 2
        points = sorted({pt for cycles in spec.generators for cyc in cycles for pt in cyc}) or [1]
        gens = [cycles_to_perm(c, points) for c in spec.generators]
        g = _finalize(label, _perm_table(gens, len(points), max_order))
    else:
        raise InvalidSpec(f"cannot build {spec!r}")
    if predicted is not None and g.order != predicted:
        raise ValueError(f"{label}: realized order {g.order} != predicted {predicted}")
    return g

