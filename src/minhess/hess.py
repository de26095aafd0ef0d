"""Cell combinatorics of the minimal indecomposable regular Hessenberg variety.

A configuration is an ambient simple root system together with a subset J of
simple roots naming the regular element (in type A, equivalently a strong
composition of n).  The module decides which Schubert cells meet the variety,
computes closure relations and Poincare polynomials, and decomposes an
admissible w = y_K v once: ``decompose_admissible`` gives K, v, Delta(v),
v^{-1}(K), the descent factorization and the cell dimension, and the
smoothness routes read them from it.  Delta(v) and J_w are each read as
one set intersection: the root indices at hand against the positive roots
supported on J (or on des(w)), a table built once per root system and
set of simple roots.  Only the last decomposition is kept,
so the routes run on one element in turn decompose it once, and nothing
outlives the next element.  One enumeration of admissible cells
serves the whole variety and every Levi: by the Levi correspondence, the
closure of w's cell is tau_w times the variety of the Levi of des(w) with
J_w in place of J.  The module is the only owner of the closure order (v's
cell lies in the closure of w's when des(v) lies in des(w) and w^{-1} v in
W_des(w)), which ``closure_covers`` gives as the covering relations among a
set of cells.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError
from .roots import ParabolicSubsystem, Perm, RootSystem, build_root_system, parabolic
from .weyl import (
    Composition,
    WeylElement,
    _compose,
    descent_decomposition,
    enumerate_min_reps,
    from_one_line,
    is_min_rep,
    longest_element,
)


class _HessFields(NamedTuple):
    rs: RootSystem
    J: FrozenSet[int]
    mu: Optional[Composition]


class HessConfig(_HessFields):
    """Root system, J naming the regular element, and mu: J's composition in
    type A, else None.  Built from rs and J alone; mu is derived from them."""

    __slots__ = ()

    def __new__(cls, rs: RootSystem, J: FrozenSet[int]) -> HessConfig:
        rs.check_simple(J)
        mu = Composition.from_J(rs.rank + 1, J) if rs.cartan.family == "A" else None
        return super().__new__(cls, rs, J, mu)

    def __getnewargs__(self) -> Tuple[RootSystem, FrozenSet[int]]:
        return self.rs, self.J  # so that copy and pickle rebuild through __new__

    @classmethod
    def _make(cls, fields: Iterable) -> HessConfig:
        rs, J, _ = fields  # _replace derives mu again from the new rs and J
        return cls(rs, J)


def hess_config(rs: RootSystem, J: Iterable[int]) -> HessConfig:
    return HessConfig(rs, frozenset(J))


def config_from_mu(mu: Sequence[int]) -> HessConfig:
    """The type A configuration of a composition, given as a Composition or
    as its parts.  Configurations are built once per parts, as root systems
    are per Cartan datum, so a known composition builds nothing; an invalid
    composition is refused on every call, since a refusal is never cached."""
    return _type_a_config(mu.parts if isinstance(mu, Composition) else tuple(mu))


@lru_cache(maxsize=None)
def _type_a_config(parts: Tuple[int, ...]) -> HessConfig:
    comp = Composition(parts)
    if comp.n < 2:
        raise DomainError(
            f"composition {comp.parts} sums to {comp.n}; a type A root system needs n >= 2"
        )
    return HessConfig(build_root_system("A", comp.n - 1), comp.to_J())


def typeA_point(w, mu) -> Tuple[WeylElement, HessConfig]:
    """The type A configuration of the composition mu, and w, given as a
    WeylElement or in one-line notation, as an element of its root system."""
    cfg = config_from_mu(mu)
    if not isinstance(w, WeylElement):
        w = from_one_line(cfg.rs, tuple(w))
    _require_same_system(w, cfg)
    return w, cfg


def _require_same_system(w: WeylElement, cfg: HessConfig) -> None:
    if w.rs is not cfg.rs:
        raise DomainError(f"{w!r} lies in {w.rs.cartan.name}, not in {cfg.rs.cartan.name}")


def is_admissible(w: WeylElement, cfg: HessConfig) -> bool:
    """Whether the Schubert cell of w meets the Hessenberg variety: every
    root of J is carried by w^{-1} into the positives or the negative simples."""
    _require_same_system(w, cfg)
    rs = cfg.rs
    # w.perm.index(j - 1) is the index of w^{-1}(alpha_j); negative simple
    # roots have indices npos .. npos + rank - 1
    return all(w.perm.index(j - 1) < rs.npos + rs.rank for j in cfg.J)


def require_admissible(w: WeylElement, cfg: HessConfig) -> None:
    if not is_admissible(w, cfg):
        raise DomainError(f"{w!r} is not admissible for J={sorted(cfg.J)}")


def delta_v(v: WeylElement, cfg: HessConfig) -> FrozenSet[int]:
    """The subset of J spanning the induced minimal Hessenberg space on the
    Levi: the simple roots of J hit by v applied to the simple roots."""
    _require_same_system(v, cfg)
    if not is_min_rep(v, cfg.J):
        raise DomainError("delta_v requires a shortest right coset representative")
    return _simple_among(cfg.rs, v.perm[: cfg.rs.rank], ~cfg.rs.simple_mask(cfg.J))


def _simple_among(rs: RootSystem, ks: Iterable[int], outside: int) -> FrozenSet[int]:
    """The simple indices among the positive root indices ks supported on a
    set K of simple roots, given the complement outside of K's mask, where
    the theory makes every such root simple: v(Delta) meeting J for
    Delta(v), tau^{-1}(J) meeting the Levi of des(w) for J_w.  The hits are
    one set intersection with K's table; this is the one statement of the
    check that each of them is simple."""
    hits = _supported_within(rs, outside).intersection(ks)
    if hits and max(hits) >= rs.rank:
        K = [i + 1 for i in range(rs.rank) if not outside >> i & 1]
        raise RuntimeError(f"a root supported on {K} is not simple")
    return frozenset(map((1).__add__, hits))


@lru_cache(maxsize=None)
def _supported_within(rs: RootSystem, outside: int) -> FrozenSet[int]:
    """The positive root indices whose support avoids outside, built once
    per root system and mask."""
    return frozenset(k for k in range(rs.npos) if not rs.support_mask[k] & outside)


class AdmissibleDecomposition(NamedTuple):
    """Everything the structure theory attaches to one admissible element
    w = y_K v: delta_v is Delta(v), and des(w) splits as des(v) u vinv_K
    with vinv_K = v^{-1}(K)."""

    w: WeylElement
    K: FrozenSet[int]
    v: WeylElement
    tau: WeylElement
    des: FrozenSet[int]
    y_des: WeylElement
    Jw: FrozenSet[int]
    delta_v: FrozenSet[int]
    vinv_K: FrozenSet[int]

    @property
    def levi(self) -> ParabolicSubsystem:
        """The Levi of des(w), classified when asked for."""
        return parabolic(self.w.rs, self.des)

    @property
    def levi_components(self) -> Tuple[Tuple[Tuple[int, ...], str], ...]:
        return tuple((c.indices, c.datum.name) for c in self.levi.components)

    @property
    def dimension(self) -> int:
        return len(self.des)


@lru_cache(maxsize=1)
def decompose_admissible(w: WeylElement, cfg: HessConfig) -> AdmissibleDecomposition:
    """w = y_K v, where K, the left descents of w in J, are those of its W_J
    factor (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4): v = y_K w
    is shortest in its coset exactly when y_K is that factor.

    Every fact is read once, from the permutations the call holds:
    admissibility and K from w^{-1} (the index of w^{-1}(alpha_j) is
    positive, or a negative simple root for j in K), the shortest-coset
    check from v^{-1} = w^{-1} y_K; ``descent_decomposition`` checks its
    factorization by lengths alone.

    The last result is kept, and a call with an equal w (same root system
    and permutation) and an equal configuration returns it unchanged: the
    smoothness routes on one element share one decomposition.  Only the
    last is kept, since the routes visit one element at a time; a refusal
    is never kept, so it is raised on every call."""
    _require_same_system(w, cfg)
    rs = cfg.rs
    N, J = rs.npos, cfg.J
    winv = w.inverse()
    # winv.perm[j - 1] is the index of w^{-1}(alpha_j): w is admissible
    # when each is positive or a negative simple root (an index below
    # N + rank), and the j of the latter are K
    K = frozenset(j for j in J if winv.perm[j - 1] >= N)
    if any(winv.perm[j - 1] >= N + rs.rank for j in K):
        raise DomainError(f"{w!r} is not admissible for J={sorted(J)}")
    y = longest_element(rs, K)
    v = y * w  # y is an involution
    vinv = winv * y
    # vinv.perm[j - 1] is the index of v^{-1}(alpha_j)
    if any(vinv.perm[j - 1] >= N for j in J):
        raise RuntimeError("coset factor is not the longest element of its support")
    delta = _simple_among(rs, v.perm[: rs.rank], ~rs.simple_mask(J))
    if not K <= delta:
        raise RuntimeError("K is not contained in Delta(v)")
    des = w.descents()
    tau, y_des = descent_decomposition(w)
    tau_inv = _compose(rs, y_des.perm, winv.perm)  # y_des * w^-1
    # tau_inv[j - 1] is the index of tau^{-1}(alpha_j)
    tau_images = [tau_inv[j - 1] for j in J]
    if any(k >= N for k in tau_images):
        raise RuntimeError("tau is not a shortest right coset representative mod J")
    # J_w: the simple roots of the Levi of des among tau^{-1}(J)
    Jw = _simple_among(rs, tau_images, ~rs.simple_mask(des))
    # consistency of the two factorizations: y_des(alpha_k) for k in J_w
    # against v^{-1}(-alpha_k) for k in K
    left = {y_des.perm[k - 1] for k in Jw}
    right = {vinv.perm[N + k - 1] for k in K}
    if left != right:
        raise RuntimeError("descent and coset factorizations are inconsistent")
    vinv_K = frozenset(vinv.perm[k - 1] + 1 for k in K)
    if any(i > rs.rank for i in vinv_K):
        raise RuntimeError("v^{-1}(K) is not a set of simple roots")
    v_des = v.descents()
    if des != v_des | vinv_K or v_des & vinv_K:
        raise RuntimeError("descent set does not split as des(v) u v^{-1}(K)")
    return AdmissibleDecomposition(w, K, v, tau, des, y_des, Jw, delta, vinv_K)


def _admissible(
    rs: RootSystem, gens: Iterable[int], J: FrozenSet[int]
) -> Iterator[Tuple[WeylElement, WeylElement, FrozenSet[int]]]:
    """The elements of W_gens admissible for J (a subset of gens), as triples
    (w, v, K) with w = y_K v reduced: shortest representatives v of W_J in
    W_gens in enumeration order, then subsets K of Delta(v) by (size, sorted
    elements).  DEFAULT_ENUMERATION_BOUND counts the cosets W_J \\ W_gens.

    Every w carries its canonical word: v's comes from the enumeration, and
    the others share one table of stripped prefixes, which lives as long as
    this generator, as does the table of the y_K by K."""
    gens = sorted(gens)
    idx = [i - 1 for i in gens]
    outside = ~rs.simple_mask(J)
    known: Dict[Perm, Tuple[int, ...]] = {}
    ys: Dict[Tuple[int, ...], WeylElement] = {}
    for v in enumerate_min_reps(rs, J, within=gens):
        dv = sorted(_simple_among(rs, map(v.perm.__getitem__, idx), outside))
        yield v, v, frozenset()
        for size in range(1, len(dv) + 1):
            for K in itertools.combinations(dv, size):
                y = ys.get(K)
                if y is None:
                    y = ys[K] = longest_element(rs, K)
                w = WeylElement(rs, _compose(rs, y.perm, v.perm))
                w.word(known)
                yield w, v, frozenset(K)


def enumerate_admissible(
    cfg: HessConfig,
) -> Iterator[Tuple[WeylElement, WeylElement, FrozenSet[int]]]:
    """All admissible elements as triples (w, v, K), w = y_K v reduced, in the
    order of the coset enumeration; DEFAULT_ENUMERATION_BOUND counts W_J \\ W."""
    yield from _admissible(cfg.rs, range(1, cfg.rs.rank + 1), cfg.J)


class ClosureCell(NamedTuple):
    v: WeylElement
    x: WeylElement
    dim: int


def closure_intersecting_cells(w: WeylElement, cfg: HessConfig) -> Tuple[ClosureCell, ...]:
    """The Schubert cells meeting the closure of w's Hessenberg cell, by
    (dimension, canonical word).

    By the Levi correspondence these are the v = tau_w x with x admissible
    for J_w in the Levi of des(w); the intersection with the cell of v has
    dimension equal to the descent count of x.  DEFAULT_ENUMERATION_BOUND
    counts the cosets W_{J_w} \\ W_{des(w)}.
    """
    dec = decompose_admissible(w, cfg)
    known: Dict[Perm, Tuple[int, ...]] = {}
    cells = (
        ClosureCell(v=dec.tau * x, x=x, dim=len(x.descents()))
        for x, _, _ in _admissible(cfg.rs, dec.des, dec.Jw)
    )
    return tuple(sorted(cells, key=lambda c: (c.dim, c.v.word(known))))


def _cells_below(
    b: WeylElement, cells: Sequence[WeylElement], descents: Sequence[FrozenSet[int]]
) -> List[int]:
    """The k with cells[k] in the closure of b's cell, for admissible cells
    with descent sets descents: des(a) lies in des(b) and b^{-1} a in
    W_des(b), that is, no inversion of b^{-1} a has a simple root outside
    des(b) in its support.  This is the one statement of the closure order."""
    rs = b.rs
    N, support = rs.npos, rs.support_mask
    des_b = b.descents()
    outside = ~rs.simple_mask(des_b)
    b_inv = b.inverse()
    below = []
    for k, (a, des_a) in enumerate(zip(cells, descents)):
        if des_a <= des_b:
            p = (b_inv * a).perm
            if not any(support[r] & outside for r in range(N) if p[r] >= N):
                below.append(k)
    return below


def closure_covers(cells: Sequence[WeylElement]) -> List[Tuple[WeylElement, WeylElement]]:
    """The covering pairs (a, b) of the closure order among admissible cells:
    a's cell lies in the closure of b's with no other given cell in between.

    Descents are computed once per cell and inverses once per b; below[k]
    holds the cells under cell k as a bitmask, and the covers of b are the
    cells under b that no other cell under b hides.
    """
    descents = [c.descents() for c in cells]
    lower = [[k for k in _cells_below(b, cells, descents) if k != j] for j, b in enumerate(cells)]
    below = [sum(1 << k for k in ks) for ks in lower]
    covers = []
    for b, ks in zip(cells, lower):
        hidden = 0
        for k in ks:
            hidden |= below[k]
        covers.extend((cells[k], b) for k in ks if not hidden >> k & 1)
    return covers


def poincare_polynomial(cfg: HessConfig) -> Tuple[int, ...]:
    """Coefficient list c_0..c_d, where c_k counts the admissible elements
    with k descents (equivalently, the k-dimensional cells).

    des(y_K v) is des(v) and v^{-1}(K) disjointly, so each representative v
    gives binom(|Delta(v)|, s) elements with |des(v)| + s descents, counted
    without building them; the coefficients sum to the number of admissible
    elements.  DEFAULT_ENUMERATION_BOUND counts the cosets W_J \\ W."""
    rs = cfg.rs
    outside = ~rs.simple_mask(cfg.J)
    coeffs: Counter = Counter()
    for v in enumerate_min_reps(rs, cfg.J):
        m = len(_simple_among(rs, v.perm[: rs.rank], outside))
        d = len(v.descents())
        for s in range(m + 1):
            coeffs[d + s] += comb(m, s)
    return tuple(coeffs[k] for k in range(max(coeffs) + 1))
