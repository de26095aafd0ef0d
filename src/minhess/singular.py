"""Smooth/singular classification of torus-fixed points and of
Hessenberg-Schubert varieties, across all simple types.

The fixed-point question reduces to the Peterson variety of the Levi named
by J, whose smooth fixed points come from root data (``_smooth_K``): Delta,
and the cominuscule walls with no shared-linear witness, the witness that
the fig1 case table states.  The no-linear-term set is read off the highest
root, so both sets answer any correctly built ``CartanDatum`` in its own
labels.  Type A admits an equivalent one-line criterion via block structure
and avoidance of the patterns 123 and 2143, and the variety-level question
is decided by a bracket condition on simple roots.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError
from .hess import HessConfig, decompose_admissible, require_admissible, typeA_point
from .roots import (
    CartanDatum,
    Coeffs,
    ParabolicSubsystem,
    RootSystem,
    bracket_set,
    build_root_system,
    from_cartan,
    is_positive,
    negate,
    parabolic,
    require_enumerable,
)
from .weyl import Composition, WeylElement, longest_element, one_line

SMOOTH = "smooth"
SINGULAR = "singular"

# reasons
SMOOTH_BY_CRITERION = "SmoothByCriterion"
DELTA_V_MISMATCH = "DeltaVMismatch"
PETERSON_W_STAR = "PetersonWStar"
PATTERN_HIT = "PatternHit"
BLOCK_SPLIT = "BlockSplit"
BRACKET_NONEMPTY = "BracketNonempty"
_SINGULAR_REASONS = frozenset(
    {DELTA_V_MISMATCH, PETERSON_W_STAR, PATTERN_HIT, BLOCK_SPLIT, BRACKET_NONEMPTY}
)


class _VerdictFields(NamedTuple):
    verdict: str
    reason: str
    citations: Tuple[str, ...]
    detail: Tuple = ()


class SmoothnessVerdict(_VerdictFields):
    __slots__ = ()

    def __new__(
        cls, verdict: str, reason: str, citations: Tuple[str, ...], detail: Tuple = ()
    ) -> SmoothnessVerdict:
        if (reason in _SINGULAR_REASONS) != (verdict == SINGULAR):
            raise RuntimeError("verdict/reason mismatch")
        if not citations:
            raise RuntimeError("classification verdicts must carry citations")
        return super().__new__(cls, verdict, reason, citations, detail)

    @classmethod
    def _make(cls, fields: Iterable) -> SmoothnessVerdict:
        return cls(*fields)  # so that _replace checks the new fields too

    @property
    def is_smooth(self) -> bool:
        return self.verdict == SMOOTH


# -- the singular fixed-point index sets ------------------------------------


def _normalize(datum: CartanDatum, K: Iterable[int]) -> FrozenSet[int]:
    """K as a set, checked to lie in the component's simple roots."""
    Kset = frozenset(K)
    if not Kset <= set(range(1, datum.rank + 1)):
        raise DomainError("K is not a subset of the component's simple roots")
    return Kset


def w_star_member(component: CartanDatum, K: Iterable[int]) -> bool:
    """Whether K, in the component's own 1-based labels, indexes a
    singular fixed point of its Peterson variety: K not in ``_smooth_K``."""
    return _normalize(component, K) not in _smooth_K(component)


@lru_cache(maxsize=None)
def _cominuscule_walls(component: CartanDatum) -> Dict[int, Optional[Tuple[Coeffs, int, int]]]:
    """Each beta with theta_beta = 1, with the first shared-linear witness
    (gamma, a1, a2) of its wall Delta minus beta, or None when it has none.
    A witness is two negative roots eta = gamma + alpha_a with eta_beta != 0
    whose only simple root alpha_a with eta - alpha_a a root gives the one
    gamma for both; each one found must pass ``_shared_linear_row``."""
    rs = from_cartan(component)
    above: Dict[Coeffs, List[Tuple[int, Coeffs]]] = {}  # rho: [(a, rho + alpha_a) a root]
    for sigma in rs.positive_roots:
        for a, c in enumerate(sigma, start=1):
            rho = sigma[: a - 1] + (c - 1,) + sigma[a:]
            if c and rho in rs.roots:
                above.setdefault(rho, []).append((a, sigma))
    # eta = -rho with its one a; gamma = -sigma (the lowest root has no a)
    sole = [(rho, up[0]) for rho, up in above.items() if len(up) == 1]
    walls: Dict[int, Optional[Tuple[Coeffs, int, int]]] = {}
    for beta in (b for b, c in enumerate(rs.highest_root, start=1) if c == 1):
        walls[beta] = None
        seen: Dict[Coeffs, int] = {}
        for rho, (a, sigma) in sole:
            if rho[beta - 1] and seen.setdefault(sigma, a) != a:
                walls[beta] = (negate(sigma), seen[sigma], a)
                if not _shared_linear_row(rs, beta, *walls[beta]).ok:
                    raise RuntimeError(f"{component.name}: the witness for beta={beta} fails")
                break
    return walls


@lru_cache(maxsize=None)
def _smooth_K(component: CartanDatum) -> FrozenSet[FrozenSet[int]]:
    """The K whose fixed point is smooth: Delta, and each cominuscule wall
    with no shared-linear witness.  Every other K is singular."""
    full = frozenset(range(1, component.rank + 1))
    walls = _cominuscule_walls(component)
    return frozenset([full, *(full - {b} for b, witness in walls.items() if witness is None)])


def w_star_star_member(component: CartanDatum, K: Iterable[int]) -> bool:
    """Whether K indexes a cell that is singular for the stronger reason
    that its distinguished patch generator has no linear term: every K but
    Delta and the walls Delta minus beta with theta_beta = 1."""
    missing = frozenset(range(1, component.rank + 1)) - _normalize(component, K)
    if len(missing) != 1:
        return bool(missing)
    (beta,) = missing
    return from_cartan(component).highest_root[beta - 1] != 1


def cominuscule_check(component: CartanDatum, K: Iterable[int]) -> bool:
    """Whether y_K carries the lowest root to a negative simple root.

    Holds exactly when K omits a single node whose coefficient in the
    highest root is 1 (a cominuscule node).
    """
    rs = from_cartan(component)
    Kset = frozenset(K)
    y = longest_element(rs, Kset)
    # the lowest root has index 2N - 1; the negative simples are N .. N + rank - 1
    return rs.npos <= y.perm[2 * rs.npos - 1] < rs.npos + rs.rank


# -- fixed points of Peterson and Hessenberg varieties -----------------------


def peterson_fixed_point_smooth(sub: ParabolicSubsystem, K: Iterable[int]) -> SmoothnessVerdict:
    """Smoothness of the fixed point y_K in the Peterson variety of the
    parabolic: smooth iff no connected component puts its slice of K in the
    singular index set."""
    Kset = frozenset(K)
    if not Kset <= sub.J:
        raise DomainError("K must be contained in J")
    for comp in sub.components:
        K_local = comp.to_canonical(Kset)
        if w_star_member(comp.datum, K_local):
            return SmoothnessVerdict(
                SINGULAR,
                PETERSON_W_STAR,
                ("peterson-singular-set",),
                detail=(comp.datum.name, tuple(sorted(K_local))),
            )
    return SmoothnessVerdict(SMOOTH, SMOOTH_BY_CRITERION, ("peterson-singular-set",))


def hess_fixed_point_smooth(w: WeylElement, cfg: HessConfig) -> SmoothnessVerdict:
    """Smoothness of the fixed point of w, by reduction to the Peterson
    variety of the Levi named by J."""
    dec = decompose_admissible(w, cfg)
    if dec.delta_v != cfg.J:
        return SmoothnessVerdict(
            SINGULAR,
            DELTA_V_MISMATCH,
            ("levi-reduction", "delta-v-criterion"),
            detail=(tuple(sorted(dec.delta_v)), tuple(sorted(cfg.J))),
        )
    inner = peterson_fixed_point_smooth(parabolic(cfg.rs, cfg.J), dec.K)
    return SmoothnessVerdict(
        inner.verdict,
        inner.reason,
        ("levi-reduction", "delta-v-criterion") + inner.citations,
        detail=inner.detail,
    )


# -- the type A route ---------------------------------------------------------


def contains_pattern(seq: Sequence[int], pattern: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """First index tuple (in lexicographic order) realizing the pattern as an
    order-isomorphic subsequence, or None.  Naive scan; block sizes are small."""
    rel = _order_relation(tuple(pattern))
    for idx in itertools.combinations(range(len(seq)), len(pattern)):
        if all(seq[idx[a]] < seq[idx[b]] for a, b in rel):
            return idx
    return None


@lru_cache(maxsize=None)
def _order_relation(pattern: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """The position pairs (a, b) with pattern[a] < pattern[b], built once
    per pattern."""
    k = len(pattern)
    return tuple((a, b) for a in range(k) for b in range(k) if pattern[a] < pattern[b])


def _block_windows(w_line: Sequence[int], mu: Composition) -> List[Tuple[int, Tuple[int, ...]]]:
    """Per block: (block number, positions of its values in the one-line)."""
    pos = [0] * (len(w_line) + 1)  # pos[v]: the position of the value v
    for i, v in enumerate(w_line):
        pos[v] = i
    return [
        (p, tuple(sorted(pos[lo : hi + 1]))) for p, (lo, hi) in enumerate(mu.blocks(), start=1)
    ]


def typeA_fixed_point_smooth(w, mu) -> SmoothnessVerdict:
    """One-line criterion for smoothness of a permutation flag: each block's
    values must sit in consecutive positions, and the induced pattern within
    each block must avoid 123 and 2143.  A flag outside the variety is
    refused with a DomainError, as by the other routes.
    """
    element, cfg = typeA_point(w, mu)
    require_admissible(element, cfg)
    line = one_line(element)
    windows = _block_windows(line, cfg.mu)
    for p, positions in windows:
        if positions[-1] - positions[0] != len(positions) - 1:
            return SmoothnessVerdict(
                SINGULAR,
                BLOCK_SPLIT,
                ("block-pattern-criterion",),
                detail=(p, positions),
            )
    for p, positions in windows:
        induced = [line[i] for i in positions]
        for pattern in ((1, 2, 3), (2, 1, 4, 3)):
            hit = contains_pattern(induced, pattern)
            if hit is not None:
                where = tuple(positions[i] + 1 for i in hit)  # 1-based
                return SmoothnessVerdict(
                    SINGULAR,
                    PATTERN_HIT,
                    ("block-pattern-criterion",),
                    detail=("".join(map(str, pattern)), where),
                )
    return SmoothnessVerdict(SMOOTH, SMOOTH_BY_CRITERION, ("block-pattern-criterion",))


def count_smooth_flags(mu) -> int:
    """Closed-form count of smooth permutation flags."""
    mu = Composition.of(mu)
    threes = sum(1 for p in mu.parts if p >= 3)
    twos = sum(1 for p in mu.parts if p == 2)
    return factorial(mu.length) * 3**threes * 2**twos


# -- Hessenberg-Schubert varieties -------------------------------------------


def hess_schubert_smooth(w: WeylElement, cfg: HessConfig) -> SmoothnessVerdict:
    """Smoothness of the closure of w's cell: smooth iff no root is a sum of
    an element of v^{-1}(K) and a descent of w."""
    dec = decompose_admissible(w, cfg)
    rs = cfg.rs
    left = [rs.simple_root(i) for i in sorted(dec.vinv_K)]
    right = [rs.simple_root(i) for i in sorted(dec.des)]
    witnesses = bracket_set(rs, left, right)
    if witnesses:
        return SmoothnessVerdict(
            SINGULAR,
            BRACKET_NONEMPTY,
            ("bracket-criterion",),
            detail=(witnesses[0],),
        )
    return SmoothnessVerdict(SMOOTH, SMOOTH_BY_CRITERION, ("bracket-criterion",))


def typeA_hess_schubert_smooth(w, mu) -> SmoothnessVerdict:
    """One-line form of the bracket criterion: every i with alpha_i in K must
    appear as ...a, i+1, i, b... with a < i and i+1 < b (boundary values
    w(0)=0, w(n+1)=n+1).  A reference for hess_schubert_smooth, so it finds
    K on its own: the i in J with i+1 left of i, the left descents of w in
    J, are K for w = y_K v (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 2.4)."""
    element, cfg = typeA_point(w, mu)
    require_admissible(element, cfg)
    line = one_line(element)
    padded = (0,) + line + (len(line) + 1,)  # padded[p] = w(p) for p = 0 .. n+1
    pos = {v: p for p, v in enumerate(padded)}
    K = sorted(i for i in cfg.J if pos[i + 1] < pos[i])
    for i in K:
        p = pos[i + 1]
        if padded[p + 1] != i:
            raise RuntimeError("i does not immediately follow i+1 for alpha_i in K")
        a, b = padded[p - 1], padded[p + 2]
        if not (a < i and i + 1 < b):
            return SmoothnessVerdict(
                SINGULAR,
                BRACKET_NONEMPTY,
                ("adjacent-transposition-criterion",),
                detail=(i, a, b),
            )
    return SmoothnessVerdict(
        SMOOTH, SMOOTH_BY_CRITERION, ("adjacent-transposition-criterion",)
    )


# -- whole singular locus of a Peterson variety ------------------------------


def peterson_singular_locus(component: CartanDatum) -> Tuple[Tuple[int, ...], ...]:
    """All K, in the component's own labels, whose cell lies in the singular
    locus; 2^rank subsets K past the enumeration bound are refused."""
    require_enumerable(2**component.rank, f"{component.name} Peterson subsets")
    smooth = _smooth_K(component)
    universe = range(1, component.rank + 1)
    return tuple(
        K
        for size in range(component.rank + 1)
        for K in itertools.combinations(universe, size)
        if frozenset(K) not in smooth
    )


# -- the shared-linear-term case table ----------------------------------------


class SharedLinearRow(NamedTuple):
    beta: int
    checks: Tuple[Tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.checks)


def _shared_linear_cases(family: str, rank: int) -> List[Tuple[int, Coeffs, int, int]]:
    """Rows (beta, gamma, alpha1, alpha2) of the case table, instantiated at
    the given rank.  gamma is returned as a coefficient vector."""
    n = rank

    def vec(entries: Dict[int, int]) -> Coeffs:
        return tuple(entries.get(i, 0) for i in range(1, n + 1))

    rs = build_root_system(family, rank)
    theta = rs.highest_root
    minus_theta = negate(theta)

    def shift(base: Coeffs, *adds: int) -> Coeffs:
        out = list(base)
        for a in adds:
            out[a - 1] += 1
        return tuple(out)

    if family == "A":
        if rank < 3:
            raise DomainError("the type A rows require rank at least 3")
        return [(j, minus_theta, 1, n) for j in range(2, n)]
    if family == "C":
        if rank < 3:
            raise DomainError("the type C rows require rank at least 3")
        return [(n, shift(minus_theta, 1), 1, 2)]
    if family == "D":
        if rank < 4:
            raise DomainError("the type D rows require rank at least 4")
        gamma1 = vec({i: -1 for i in range(1, n + 1)})
        gamma2 = shift(minus_theta, 2)
        return [
            (1, gamma1, n - 1, n),
            (n - 1, gamma2, 1, 3),
            (n, gamma2, 1, 3),
        ]
    if family == "E" and rank == 6:
        gamma = shift(minus_theta, 2, 4)
        return [(1, gamma, 3, 5), (6, gamma, 5, 3)]
    if family == "E" and rank == 7:
        gamma = shift(minus_theta, 1, 3, 4)
        return [(7, gamma, 2, 5)]
    raise DomainError(f"{family}{rank} has no rows in the shared-linear case table")


def _shared_linear_row(
    rs: RootSystem, beta: int, gamma: Coeffs, a1: int, a2: int
) -> SharedLinearRow:
    """One case-table row with its checks: both eta = gamma + alpha_a roots
    are negative, lie outside the parabolic on K = Delta minus beta and are
    not the lowest root; both recover the shared root gamma; no other simple
    root can be subtracted from either eta inside the root system; and beta
    is a cominuscule node."""
    theta = rs.highest_root

    def plus(root: Coeffs, a: int, sign: int = 1) -> Coeffs:
        return tuple(c + sign * s for c, s in zip(root, rs.simple_root(a)))

    eta1, eta2 = plus(gamma, a1), plus(gamma, a2)
    checks: List[Tuple[str, bool]] = []
    checks.append(("gamma_is_root", gamma in rs.roots))
    checks.append(("etas_distinct", eta1 != eta2))
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        ok = (
            eta in rs.roots
            and not is_positive(eta)
            and eta[beta - 1] != 0  # not supported on K
            and eta != negate(theta)
        )
        checks.append((f"{name}_in_range", ok))
    checks.append(
        ("shared_difference", plus(eta1, a1, -1) == plus(eta2, a2, -1) == gamma)
    )
    for name, eta, al in (("eta1", eta1, a1), ("eta2", eta2, a2)):
        sole = all(
            plus(eta, i, -1) not in rs.roots for i in range(1, rs.rank + 1) if i != al
        )
        checks.append((f"{name}_unique_linear", sole))
    checks.append(("beta_cominuscule", theta[beta - 1] == 1))
    return SharedLinearRow(beta, tuple(checks))


def verify_shared_linear_table(family: str, rank: int) -> Tuple[SharedLinearRow, ...]:
    """Instantiate and check every case-table row for one (family, rank)."""
    rs = build_root_system(family, rank)
    return tuple(
        _shared_linear_row(rs, *case) for case in _shared_linear_cases(family, rank)
    )
