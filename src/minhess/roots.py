"""Root systems of the simple Lie types, realized over the simple-root basis.

A root is read and written as an integer coefficient vector over the simple
roots ``alpha_1 .. alpha_n`` (a plain tuple of ints), so all arithmetic is
exact.  Inside the package a root is its index: k < N names the k-th
positive root in (height, reverse-lex) order and k + N its negative, and
each ``RootSystem`` tabulates what the rest of the package asks of an index
(its support, its sort key, in type A its pair (i, j)) once, at
construction.  Simple indices are 1-based throughout the public API,
matching the standard numbering of the Dynkin diagrams (for type B the
short simple root is ``alpha_n``, for type C it is the long one, G_2 has
``alpha_1`` short).  ``parabolic`` labels each component of a sub-diagram
from its Cartan matrix alone, reading a chain from either end and a branched
diagram by its arms, checks the relabeling against the reference Cartan
matrix, and keeps the result per root system and set of simple roots.  The
same classification of the whole diagram decides whether a datum is of its
labelled type, so a ``RootSystem`` is never built under another type's name.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import add, mul
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Tuple, Union

from .errors import DomainError, EnumerationBoundError

Coeffs = Tuple[int, ...]
# a permutation of the 2N root indices: bytes when 2N <= 256, else a tuple
Perm = Union[bytes, Tuple[int, ...]]
_Matrix = Tuple[Tuple[int, ...], ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# positive roots per rank; 0 at a rank where the family has no simple system
POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}.get(n, 0),
    "F": lambda n: 24 if n == 4 else 0,
    "G": lambda n: 6 if n == 2 else 0,
}

WEYL_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}

DEFAULT_ENUMERATION_BOUND = 10**6  # the one bound on what any enumeration counts


def require_enumerable(count: int, label: str) -> None:
    """Refuse a count of what ``label`` names past the bound, read at the
    call, in EnumerationBoundError's one message shape."""
    if count > DEFAULT_ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"{label}: {count} entries exceed the enumeration bound {DEFAULT_ENUMERATION_BOUND}"
        )


def height(root: Coeffs) -> int:
    return sum(root)


def negate(root: Coeffs) -> Coeffs:
    return tuple(-c for c in root)


def is_positive(root: Coeffs) -> bool:
    """Sign of a genuine root (roots never have mixed-sign coefficients)."""
    return any(c > 0 for c in root)


def root_key(root: Coeffs) -> Tuple[int, Coeffs]:
    """Deterministic sort key: by height, then reverse-lexicographic coeffs.

    Orders the simple roots as alpha_1 < alpha_2 < ... within each height.
    """
    return (height(root), tuple(-c for c in root))


@lru_cache(maxsize=None)
def root_str(root: Coeffs) -> str:
    """Human-readable form like ``a1+2a2``, ``-a3`` or ``-(a1+a2)``; formatted
    once per distinct root, when first asked for."""
    if all(c == 0 for c in root):
        return "0"
    if not is_positive(root):
        inner = root_str(negate(root))
        return f"-{inner}" if "+" not in inner else f"-({inner})"
    parts = []
    for i, c in enumerate(root):
        if c == 0:
            continue
        parts.append(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}")
    return "+".join(parts)


class _CartanFields(NamedTuple):
    family: str
    rank: int
    matrix: _Matrix


class CartanDatum(_CartanFields):
    """A simple type label together with its Cartan matrix.

    ``matrix[i][j]`` is the pairing of alpha_{i+1} against the coroot of
    alpha_{j+1}; diagonal entries are 2 and off-diagonal entries lie in
    {0, -1, -2, -3}.
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int, matrix: _Matrix) -> CartanDatum:
        if family not in FAMILIES:
            raise DomainError(f"unknown family {family!r}")
        if len(matrix) != rank:
            raise DomainError("Cartan matrix size does not match rank")
        for i, row in enumerate(matrix):
            if len(row) != rank or row[i] != 2:
                raise DomainError("malformed Cartan matrix")
            for j, a in enumerate(row):
                if i != j and a not in (0, -1, -2, -3):
                    raise DomainError("off-diagonal Cartan entry out of range")
        return super().__new__(cls, family, rank, matrix)

    @classmethod
    def _make(cls, fields: Iterable) -> CartanDatum:
        return cls(*fields)  # so that _replace checks the new fields too

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"


def _tree_matrix(n: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for a, b in edges:
        m[a - 1][b - 1] = -1
        m[b - 1][a - 1] = -1
    return m


def _chain(n: int) -> List[Tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


@lru_cache(maxsize=None)
def cartan_datum(family: str, rank: int) -> CartanDatum:
    """Reference Cartan datum for a valid (family, rank) pair, built once.

    Degenerate low ranks are normalized to their A-type isomorphs:
    B_1 = C_1 = A_1 and D_3 = A_3.  Invalid pairs raise DomainError, and so
    does a rank whose root table passes DEFAULT_ENUMERATION_BOUND entries.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    if rank < 1:
        raise DomainError("rank must be positive")
    if family in "ABCD":
        require_enumerable(POSITIVE_COUNT[family](rank) * rank, f"{family}{rank} root table")
    if family == "A":
        return CartanDatum("A", rank, tuple(map(tuple, _tree_matrix(rank, _chain(rank)))))
    if family in ("B", "C"):
        if rank == 1:
            return cartan_datum("A", 1)
        m = _tree_matrix(rank, _chain(rank))
        if family == "B":
            m[rank - 2][rank - 1] = -2
        else:
            m[rank - 1][rank - 2] = -2
        return CartanDatum(family, rank, tuple(map(tuple, m)))
    if family == "D":
        if rank == 3:
            return cartan_datum("A", 3)
        if rank < 4:
            raise DomainError(f"D_{rank} is not a simple root system")
        edges = _chain(rank - 1) + [(rank - 2, rank)]
        return CartanDatum("D", rank, tuple(map(tuple, _tree_matrix(rank, edges))))
    if family == "E":
        if rank not in (6, 7, 8):
            raise DomainError(f"E_{rank} is not a simple root system")
        edges = [(1, 3), (2, 4)] + _chain(rank)[2:]
        return CartanDatum("E", rank, tuple(map(tuple, _tree_matrix(rank, edges))))
    if family == "F":
        if rank != 4:
            raise DomainError(f"F_{rank} is not a simple root system")
        m = _tree_matrix(4, _chain(4))
        m[1][2] = -2
        return CartanDatum("F", 4, tuple(map(tuple, m)))
    if rank != 2:
        raise DomainError(f"G_{rank} is not a simple root system")
    return CartanDatum("G", 2, ((2, -1), (-3, 2)))


def weyl_order(family: str, rank: int) -> int:
    return WEYL_ORDER[family](rank)


class RootSystem:
    """An irreducible root system, closed under its simple reflections.

    Immutable after construction; all query methods are pure.  Positive
    roots are stored in the deterministic (height, reverse-lex) order.
    """

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self.rank = cartan.rank
        n = self.rank
        self.simple_roots: Tuple[Coeffs, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        self._coroot_columns = tuple(zip(*cartan.matrix))
        expected = POSITIVE_COUNT[cartan.family](n)
        reflections = self._reflection_closure(expected)
        # a finite closure of the expected size may still be another type
        # (E6's matrix labelled B6; C2 is classified as B2 on both sides), or
        # no Cartan matrix at all (a zero whose transpose entry is not zero)
        if (
            len(reflections) != expected
            or any(
                (a == 0) != (b == 0)
                for row, column in zip(cartan.matrix, self._coroot_columns)
                for a, b in zip(row, column)
            )
            or _diagram_types(cartan.matrix)
            != _diagram_types(cartan_datum(cartan.family, n).matrix)
        ):
            raise DomainError(f"{cartan} is not a Cartan matrix of type {cartan.name}")
        self.positive_roots: Tuple[Coeffs, ...] = tuple(sorted(reflections, key=root_key))
        if self.positive_roots[:n] != self.simple_roots:
            raise RuntimeError("simple roots do not lead the positive root order")
        # Weyl elements are permutations of root indices: k < npos names
        # positive_roots[k] and k + npos its negative
        self.npos = len(self.positive_roots)
        self.root_list: Tuple[Coeffs, ...] = self.positive_roots + tuple(
            negate(r) for r in self.positive_roots
        )
        self.root_index: Dict[Coeffs, int] = {r: k for k, r in enumerate(self.root_list)}
        self.roots: FrozenSet[Coeffs] = frozenset(self.root_list)
        N = self.npos
        halves = [
            [self.root_index[reflections[r][i]] for r in self.positive_roots]
            for i in range(n)
        ]
        # the one storage of this system's permutations: bytes when every
        # index fits in a byte, so that weyl composes by bytes.translate
        # through perm_pad (256 - 2N zero bytes), else a tuple
        self.perm_type = bytes if 2 * N <= 256 else tuple
        self.perm_pad = bytes(256 - 2 * N) if self.perm_type is bytes else None
        self.identity_perm: Perm = self.perm_type(range(2 * N))
        self.simple_perms: Tuple[Perm, ...] = tuple(
            self.perm_type(half + [(k + N) % (2 * N) for k in half]) for half in halves
        )
        # bit i - 1 of support_mask[k] is set when alpha_i occurs in root k
        self.support_mask: Tuple[int, ...] = tuple(
            sum(1 << i for i, c in enumerate(r) if c) for r in self.root_list
        )
        # type A: pairs[k] = (i, j) with root k = eps_i - eps_j
        self.pairs: Tuple[Tuple[int, int], ...] = ()
        if cartan.family == "A":
            # alpha_i + ... + alpha_{j-1} = eps_i - eps_j
            supports = [[i + 1 for i, c in enumerate(r) if c] for r in self.positive_roots]
            pos = [(support[0], support[-1] + 1) for support in supports]
            self.pairs = tuple(pos) + tuple((j, i) for i, j in pos)
        # index_keys[k] sorts root index k in root_key order: the negatives
        # from index 2N - 1 down to N, then the positives from 0 up
        self.index_keys: Tuple[int, ...] = tuple(range(N)) + tuple(range(-1, -N - 1, -1))
        self.highest_root: Coeffs = self.positive_roots[-1]
        if height(self.highest_root) != max(height(r) for r in self.positive_roots):
            raise RuntimeError("highest root is not of maximal height")

    def _reflection_closure(self, limit: int) -> Dict[Coeffs, List[Coeffs]]:
        """Each positive root with its images under s_1 .. s_n; it stops
        once it holds more than limit roots, which a Cartan matrix not of
        finite type (with infinitely many) reaches after finitely many."""
        reflections: Dict[Coeffs, List[Coeffs]] = {}
        frontier = set(self.simple_roots)
        while frontier and len(reflections) <= limit:
            for r in frontier:
                reflections[r] = [self.reflect_simple(r, i) for i in range(1, self.rank + 1)]
            frontier = {
                image
                for r in frontier
                for image in reflections[r]
                if image not in reflections and all(c >= 0 for c in image)
            }
        return reflections

    # -- elementary root arithmetic -------------------------------------

    def pairing(self, root: Coeffs, i: int) -> int:
        """Pairing of ``root`` against the coroot of alpha_i (1-based)."""
        self.check_simple((i,))
        return sum(map(mul, root, self._coroot_columns[i - 1]))

    def reflect_simple(self, root: Coeffs, i: int) -> Coeffs:
        """Image of ``root`` under the simple reflection s_i."""
        p = self.pairing(root, i)
        if p == 0:
            return root
        out = list(root)
        out[i - 1] -= p
        return tuple(out)

    def check_root(self, vec: Coeffs) -> Coeffs:
        v = tuple(vec)
        if v not in self.roots:
            raise DomainError(f"{v} is not a root of {self.cartan.name}")
        return v

    def check_simple(self, indices: Iterable[int]) -> None:
        """Refuse any index that does not name a simple root."""
        for i in indices:
            if not 1 <= i <= self.rank:
                raise DomainError(f"simple index {i} out of range for {self.cartan.name}")

    def simple_root(self, i: int) -> Coeffs:
        self.check_simple((i,))
        return self.simple_roots[i - 1]

    @staticmethod
    def simple_mask(indices: Iterable[int]) -> int:
        """The simple indices as a mask in the bits of ``support_mask``."""
        return sum(1 << (i - 1) for i in frozenset(indices))

    def weyl_order(self) -> int:
        return weyl_order(self.cartan.family, self.rank)

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan.name})"


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of a simple type, Bourbaki numbering."""
    return from_cartan(cartan_datum(family, rank))


@lru_cache(maxsize=None)
def from_cartan(datum: CartanDatum) -> RootSystem:
    """The root system of a Cartan datum, built once per datum: repeated
    construction returns the same (immutable) instance, so elements built
    through independent configurations interoperate."""
    return RootSystem(datum)


def bracket_set(
    rs: RootSystem, left: Iterable[Coeffs], right: Iterable[Coeffs]
) -> Tuple[Coeffs, ...]:
    """All roots expressible as a sum of one root from each input set, in
    root_key order; every input is checked to be a root first."""
    left = [rs.check_root(r) for r in left]
    right = [rs.check_root(r) for r in right]
    roots = rs.roots
    out = {s for a in left for b in right if (s := tuple(map(add, a, b))) in roots}
    return tuple(sorted(out, key=root_key))


# -- parabolic subsystems and component classification -------------------


class Component(NamedTuple):
    """A connected component of a parabolic sub-diagram.

    ``indices[k]`` is the ambient simple index playing the role of the
    canonical simple root alpha_{k+1} of the classified reference type.
    """

    indices: Tuple[int, ...]
    datum: CartanDatum

    def to_canonical(self, ambient: Iterable[int]) -> FrozenSet[int]:
        pos = {amb: k + 1 for k, amb in enumerate(self.indices)}
        return frozenset(pos[a] for a in ambient if a in pos)


class ParabolicSubsystem(NamedTuple):
    J: FrozenSet[int]
    components: Tuple[Component, ...]

    def weyl_order(self) -> int:
        out = 1
        for comp in self.components:
            out *= weyl_order(comp.datum.family, comp.datum.rank)
        return out


def parabolic(rs: RootSystem, J: Iterable[int]) -> ParabolicSubsystem:
    """The subsystem spanned by a subset of simple roots, with its
    connected components classified into canonically labeled simple types.
    Cached per root system and set J, so every spelling of J shares one
    immutable result; an index out of range is refused on every call."""
    return _parabolic(rs, frozenset(J))


@lru_cache(maxsize=None)
def _parabolic(rs: RootSystem, J: FrozenSet[int]) -> ParabolicSubsystem:
    rs.check_simple(J)
    C = rs.cartan.matrix
    comps = [_classify_component(C, nodes) for nodes in _connected_components(C, J)]
    comps.sort(key=lambda c: min(c.indices))
    return ParabolicSubsystem(J, tuple(comps))


def _diagram_types(matrix: _Matrix) -> Tuple[CartanDatum, ...]:
    """The classified type of each connected component of the whole
    diagram of a Cartan matrix, by least simple index."""
    nodes = frozenset(range(1, len(matrix) + 1))
    return tuple(_classify_component(matrix, c).datum for c in _connected_components(matrix, nodes))


def _connected_components(C: _Matrix, J: FrozenSet[int]) -> List[List[int]]:
    remaining = set(J)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        stack = [seed]
        while stack:
            a = stack.pop()
            for b in remaining - comp:
                if C[a - 1][b - 1] != 0:
                    comp.add(b)
                    stack.append(b)
        comps.append(sorted(comp))
        remaining -= comp
    return comps


def _classify_component(C: _Matrix, nodes: List[int]) -> Component:
    """Classify a connected sub-diagram and produce its canonical relabeling,
    with no label read.  A diagram without a branch point is a chain: it is
    walked from its lower end, then from the other, and named by the first
    walk whose Cartan matrix is a reference one, B tried before C so that a
    rank-2 double bond is B_2 (C_2 and B_2 are the same system).
    """
    k = len(nodes)
    adj = {a: [b for b in nodes if b != a and C[a - 1][b - 1] != 0] for a in nodes}
    branch = [x for x in nodes if len(adj[x]) == 3]
    if not branch:
        chain = _walk_chain(adj, start=min(x for x in nodes if len(adj[x]) <= 1))
        walks = (tuple(chain), tuple(reversed(chain)))
        families = "ABC" + "F" * (k == 4) + "G" * (k == 2)
        return _checked_component(C, [(f, order) for f in families for order in walks])
    # simply laced with a single branch point
    b = branch[0]
    arms = []
    for first in adj[b]:
        arm = [first]
        prev = b
        while len(adj[arm[-1]]) == 2:
            nxt = [x for x in adj[arm[-1]] if x != prev][0]
            prev = arm[-1]
            arm.append(nxt)
        arms.append(arm)
    arms.sort(key=lambda a: (len(a), a[-1]))
    lengths = tuple(len(a) for a in arms)
    if lengths[0] == 1 and lengths[1] == 1:
        # D_k: two short arms are alpha_{k-1}, alpha_k; the long arm runs
        # back to alpha_1
        long_arm = arms[2]
        order = list(reversed(long_arm)) + [b] + [arms[0][0], arms[1][0]]
        return _checked_component(C, [("D", tuple(order))])
    if lengths[:2] == (1, 2) and lengths[2] in (2, 3, 4):
        # E_k: the short arm is alpha_2, the two-node arm runs alpha_3,
        # alpha_1 and the long arm alpha_5 onward
        order = (arms[1][1], arms[0][0], arms[1][0], b) + tuple(arms[2])
        return _checked_component(C, [("E", order)])
    raise DomainError(f"sub-diagram on {nodes} is not of finite type")


def _walk_chain(adj: Dict[int, List[int]], start: int) -> List[int]:
    chain = [start]
    seen = {start}
    while True:
        nxt = [x for x in adj[chain[-1]] if x not in seen]
        if not nxt:
            return chain
        if len(nxt) > 1:
            raise DomainError("not a chain")
        chain.append(nxt[0])
        seen.add(nxt[0])


def _checked_component(C: _Matrix, candidates: Iterable[Tuple[str, Tuple[int, ...]]]) -> Component:
    """The first candidate (family, order) under which the sub-diagram's
    Cartan matrix is the reference matrix of that family: the one statement
    of "this order is that family"."""
    for family, order in candidates:
        datum = cartan_datum(family, len(order))
        if all(
            C[a - 1][b - 1] == x
            for a, row in zip(order, datum.matrix)
            for b, x in zip(order, row)
        ):
            return Component(order, datum)
    raise RuntimeError(f"no relabeling of {sorted(order)} matches a reference type")
