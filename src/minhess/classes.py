"""K-theory and cohomology class representatives of Hessenberg-Schubert
varieties, kept in exact factored form.

A class is a rational scalar times a multiset of negative roots: each factor
stands for (1 - [L_alpha]) in K-theory or for the Chern character of L_alpha
in cohomology.  In type A the cohomology form expands to a polynomial in the
Chern roots x_1..x_n via -(eps_i - eps_j) -> x_i - x_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Tuple

from .errors import DomainError
from .hess import HessConfig, require_admissible
from .roots import Coeffs, RootSystem, parabolic
from .weyl import WeylElement, root_pair

K_THEORY = "k_theory"
COHOMOLOGY = "cohomology"


@dataclass(frozen=True)
class ClassExpression:
    scalar: Fraction
    factor_roots: Tuple[Coeffs, ...]  # negative roots, deterministic order
    form: str

    def __post_init__(self) -> None:
        if self.form not in (K_THEORY, COHOMOLOGY):
            raise DomainError(f"unknown form {self.form!r}")


def _subgroup_order(rs: RootSystem, I: Iterable[int]) -> int:
    return parabolic(rs, I).weyl_order()


def _factors(rs: RootSystem, indices: Iterable[int]) -> Tuple[Coeffs, ...]:
    return tuple(rs.root_list[k] for k in sorted(indices, key=rs.index_key))


def hess_schubert_class(w: WeylElement, cfg: HessConfig, form: str = COHOMOLOGY) -> ClassExpression:
    """Class of the closure of w's Hessenberg cell in the ambient flag
    variety: scalar |W_des|/|W| with one factor per negative root outside
    the negated descent set."""
    require_admissible(w, cfg)
    rs = cfg.rs
    des = w.descents()
    scalar = Fraction(_subgroup_order(rs, des), rs.weyl_order())
    N = rs.npos
    factors = _factors(rs, set(range(N, 2 * N)) - {N + i - 1 for i in des})
    return ClassExpression(scalar, factors, form)


def levi_flag_class(I: Iterable[int], rs: RootSystem, form: str = K_THEORY) -> ClassExpression:
    """Class of the embedded flag variety of the standard Levi on I."""
    Iset = frozenset(I)
    scalar = Fraction(_subgroup_order(rs, Iset), rs.weyl_order())
    outside = ~rs.simple_mask(Iset)
    N = rs.npos
    factors = _factors(rs, (k + N for k in range(N) if rs.support_mask[k] & outside))
    return ClassExpression(scalar, factors, form)


def peterson_dual_class(K: Iterable[int], rs: RootSystem) -> ClassExpression:
    """Dual class of a Peterson cell closure: only negative simple-root
    factors survive the restriction."""
    Kset = frozenset(K)
    rs.check_simple(Kset)
    scalar = Fraction(_subgroup_order(rs, Kset), rs.weyl_order())
    factors = _factors(rs, (rs.npos + i - 1 for i in range(1, rs.rank + 1) if i not in Kset))
    return ClassExpression(scalar, factors, COHOMOLOGY)


# -- type A expansion -------------------------------------------------------

Monomial = Tuple[int, ...]


@dataclass(frozen=True)
class ChernPolynomial:
    """Exact polynomial in the Chern roots x_1..x_n (type A only)."""

    n: int
    coeffs: Tuple[Tuple[Monomial, Fraction], ...]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mono, c in self.coeffs:
            vars_ = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(mono)
                if e
            )
            if not vars_:
                parts.append(str(c))
            elif c == 1:
                parts.append(vars_)
            elif c == -1:
                parts.append(f"-{vars_}")
            else:
                parts.append(f"{c}*{vars_}")
        return " + ".join(parts).replace("+ -", "- ")


def _poly_from_dict(n: int, d: Dict[Monomial, Fraction]) -> ChernPolynomial:
    items = tuple(sorted(((m, c) for m, c in d.items() if c != 0), reverse=True))
    return ChernPolynomial(n, items)


def poly_constant(n: int, c: Fraction) -> ChernPolynomial:
    if c == 0:
        return ChernPolynomial(n, ())
    return ChernPolynomial(n, (((0,) * n, Fraction(c)),))


def poly_mul(p: ChernPolynomial, q: ChernPolynomial) -> ChernPolynomial:
    out: Dict[Monomial, Fraction] = {}
    for m1, c1 in p.coeffs:
        for m2, c2 in q.coeffs:
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return _poly_from_dict(p.n, out)


def _linear_factor(n: int, i: int, j: int) -> ChernPolynomial:
    """x_i - x_j, 1-based."""
    mi = tuple(1 if k == i - 1 else 0 for k in range(n))
    mj = tuple(1 if k == j - 1 else 0 for k in range(n))
    return _poly_from_dict(n, {mi: Fraction(1), mj: Fraction(-1)})


def expand_typeA(expr: ClassExpression, rs: RootSystem) -> ChernPolynomial:
    """Expanded Chern-root polynomial of a cohomology-form class."""
    if expr.form != COHOMOLOGY:
        raise DomainError("only cohomology-form classes expand to polynomials")
    if rs.cartan.family != "A":
        raise DomainError("polynomial expansion requires a type A ambient")
    n = rs.rank + 1
    out = poly_constant(n, expr.scalar)
    for root in expr.factor_roots:
        j, i = root_pair(rs, root)  # root = -(eps_i - eps_j)
        out = poly_mul(out, _linear_factor(n, i, j))
    return out
