"""Cell combinatorics of the minimal indecomposable regular Hessenberg variety.

A configuration is an ambient simple root system together with a subset J of
simple roots naming the regular element (in type A, equivalently a strong
composition of n).  The module decides which Schubert cells meet the variety,
produces the full decomposition data of an admissible element, and computes
closure relations and Poincare polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import DomainError
from .roots import ParabolicSubsystem, RootSystem, build_root_system, parabolic
from .weyl import (
    DEFAULT_ENUMERATION_BOUND,
    Composition,
    WeylElement,
    descent_decomposition,
    enumerate_min_reps,
    enumerate_parabolic_group,
    from_one_line,
    in_parabolic,
    is_min_rep,
    longest_element,
    min_right_coset_rep,
)


@dataclass(frozen=True)
class HessConfig:
    rs: RootSystem
    J: FrozenSet[int]
    mu: Optional[Composition] = None

    def __post_init__(self) -> None:
        for i in self.J:
            if not 1 <= i <= self.rs.rank:
                raise DomainError(f"simple index {i} out of range")
        if self.mu is not None and self.mu.to_J() != self.J:
            raise DomainError("composition and J do not match")

    @property
    def is_type_a(self) -> bool:
        return self.rs.cartan.family == "A"


def hess_config(rs: RootSystem, J: Iterable[int]) -> HessConfig:
    Jset = frozenset(J)
    mu = Composition.from_J(rs.rank + 1, Jset) if rs.cartan.family == "A" else None
    return HessConfig(rs, Jset, mu)


def config_from_mu(mu: Sequence[int]) -> HessConfig:
    comp = mu if isinstance(mu, Composition) else Composition(tuple(mu))
    rs = build_root_system("A", comp.n - 1)
    return HessConfig(rs, comp.to_J(), comp)


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
    rs = cfg.rs
    if not is_min_rep(v, cfg.J):
        raise DomainError("delta_v requires a shortest right coset representative")
    outside = ~rs.simple_mask(cfg.J)
    out = set()
    for k in v.perm[: rs.rank]:
        if k < rs.npos and not rs.support_mask[k] & outside:
            if k >= rs.rank:
                raise RuntimeError("v(Delta) meets the parabolic in a non-simple root")
            out.add(k + 1)
    return frozenset(out)


@dataclass(frozen=True)
class AdmissibleDecomposition:
    """Everything the structure theory attaches to one admissible element."""

    w: WeylElement
    K: FrozenSet[int]
    v: WeylElement
    tau: WeylElement
    des: FrozenSet[int]
    y_des: WeylElement
    Jw: FrozenSet[int]
    levi: ParabolicSubsystem

    @property
    def levi_components(self) -> Tuple[Tuple[Tuple[int, ...], str], ...]:
        return tuple((c.indices, c.datum.name) for c in self.levi.components)

    @property
    def dimension(self) -> int:
        return len(self.des)


def decompose_admissible(w: WeylElement, cfg: HessConfig) -> AdmissibleDecomposition:
    require_admissible(w, cfg)
    rs = cfg.rs
    y, v = min_right_coset_rep(w, cfg.J)
    K = y.descents()
    if y != longest_element(rs, K):
        raise RuntimeError("coset factor is not the longest element of its support")
    if not K <= delta_v(v, cfg):
        raise RuntimeError("K is not contained in Delta(v)")
    tau, y_des = descent_decomposition(w)
    des = w.descents()
    if not is_min_rep(tau, cfg.J):
        raise RuntimeError("tau is not a shortest right coset representative mod J")
    tau_inv = tau.inverse().perm
    outside = ~rs.simple_mask(des)
    Jw = set()
    for j in cfg.J:
        k = tau_inv[j - 1]
        if not rs.support_mask[k] & outside:
            if k >= rs.rank:
                raise RuntimeError("tau^{-1}(J) meets the Levi in a non-simple root")
            Jw.add(k + 1)
    Jw = frozenset(Jw)
    if not Jw <= des:
        raise RuntimeError("J_w is not contained in des(w)")
    # consistency of the two factorizations: y_des(alpha_k) for k in J_w
    # against v^{-1}(-alpha_k) for k in K
    vinv = v.inverse()
    left = {y_des.perm[k - 1] for k in Jw}
    right = {vinv.perm[rs.npos + k - 1] for k in K}
    if left != right:
        raise RuntimeError("descent and coset factorizations are inconsistent")
    vinv_K = set()
    for k in K:
        image = vinv.perm[k - 1]
        if image >= rs.rank:
            raise RuntimeError("v^{-1}(K) is not a set of simple roots")
        vinv_K.add(image + 1)
    if des != v.descents() | vinv_K or (v.descents() & vinv_K):
        raise RuntimeError("descent set does not split as des(v) u v^{-1}(K)")
    return AdmissibleDecomposition(
        w=w,
        K=K,
        v=v,
        tau=tau,
        des=des,
        y_des=y_des,
        Jw=Jw,
        levi=parabolic(rs, des),
    )


def cell_dimension(w: WeylElement, cfg: HessConfig) -> int:
    require_admissible(w, cfg)
    return len(w.descents())


def enumerate_admissible(
    cfg: HessConfig, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Iterator[Tuple[WeylElement, WeylElement, FrozenSet[int]]]:
    """All admissible elements, as triples (w, v, K) with w = y_K v reduced.

    Deterministic order: coset representatives in enumeration order, then
    subsets K of Delta(v) by (size, sorted elements).
    """
    rs = cfg.rs
    for v in enumerate_min_reps(rs, cfg.J, bound):
        dv = sorted(delta_v(v, cfg))
        for size in range(len(dv) + 1):
            for K in itertools.combinations(dv, size):
                w = longest_element(rs, K) * v if K else v
                yield w, v, frozenset(K)


def admissible_count(cfg: HessConfig, bound: int = DEFAULT_ENUMERATION_BOUND) -> int:
    return sum(
        2 ** len(delta_v(v, cfg)) for v in enumerate_min_reps(cfg.rs, cfg.J, bound)
    )


@dataclass(frozen=True)
class ClosureCell:
    v: WeylElement
    x: WeylElement
    dim: int


def closure_intersecting_cells(
    w: WeylElement, cfg: HessConfig, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Tuple[ClosureCell, ...]:
    """The Schubert cells meeting the closure of w's Hessenberg cell.

    These are exactly the admissible v = tau_w x with x in the descent
    parabolic of w; the intersection with the cell of v has dimension equal
    to the descent count of x.
    """
    require_admissible(w, cfg)
    tau, _ = descent_decomposition(w)
    out = []
    for x in enumerate_parabolic_group(cfg.rs, w.descents(), bound):
        v = tau * x
        if is_admissible(v, cfg):
            out.append(ClosureCell(v=v, x=x, dim=len(x.descents())))
    return tuple(sorted(out, key=lambda c: (c.dim, c.v.word())))


def cell_contained_in_closure(v: WeylElement, w: WeylElement, cfg: HessConfig) -> bool:
    """Whether v's Hessenberg cell lies inside the closure of w's."""
    require_admissible(w, cfg)
    if not is_admissible(v, cfg):
        return False
    des_w = w.descents()
    if not v.descents() <= des_w:
        return False
    return in_parabolic(w.inverse() * v, des_w)


def poincare_polynomial(
    cfg: HessConfig, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Tuple[int, ...]:
    """Coefficient list c_0..c_d, where c_k counts the admissible elements
    with k descents (equivalently, the k-dimensional cells)."""
    coeffs: Dict[int, int] = {}
    top = 0
    for w, _, _ in enumerate_admissible(cfg, bound):
        k = len(w.descents())
        coeffs[k] = coeffs.get(k, 0) + 1
        top = max(top, k)
    return tuple(coeffs.get(k, 0) for k in range(top + 1))
