"""K-theory and cohomology class representatives of Hessenberg-Schubert
varieties, kept in exact factored form.

A class is a rational scalar times a multiset of negative roots: each factor
stands for (1 - [L_alpha]) in K-theory or for the Chern character of L_alpha
in cohomology.  In type A the cohomology form expands to a polynomial in the
Chern roots x_1..x_n via -(eps_i - eps_j) -> x_i - x_j.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, NamedTuple, Tuple

from .errors import DomainError
from .hess import HessConfig, require_admissible
from .roots import Coeffs, RootSystem, parabolic, require_enumerable
from .weyl import WeylElement, root_pair

K_THEORY = "k_theory"
COHOMOLOGY = "cohomology"


class _ClassFields(NamedTuple):
    scalar: Fraction
    factor_roots: Tuple[Coeffs, ...]  # negative roots, deterministic order
    form: str


class ClassExpression(_ClassFields):
    __slots__ = ()

    def __new__(
        cls, scalar: Fraction, factor_roots: Tuple[Coeffs, ...], form: str
    ) -> ClassExpression:
        if form not in (K_THEORY, COHOMOLOGY):
            raise DomainError(f"unknown form {form!r}")
        return super().__new__(cls, scalar, factor_roots, form)

    @classmethod
    def _make(cls, fields: Iterable) -> ClassExpression:
        return cls(*fields)  # so that _replace checks the new form too


def _class(
    rs: RootSystem, S: FrozenSet[int], negatives: Iterable[int], form: str
) -> ClassExpression:
    """Scalar |W_S|/|W| times the negative roots with the given indices, in
    root order."""
    scalar = Fraction(parabolic(rs, S).weyl_order(), rs.weyl_order())
    factors = tuple(rs.root_list[k] for k in sorted(negatives, key=rs.index_keys.__getitem__))
    return ClassExpression(scalar, factors, form)


def hess_schubert_class(w: WeylElement, cfg: HessConfig, form: str = COHOMOLOGY) -> ClassExpression:
    """Class of the closure of w's Hessenberg cell in the ambient flag
    variety: scalar |W_des|/|W| with one factor per negative root outside
    the negated descent set."""
    require_admissible(w, cfg)
    des = w.descents()
    N = cfg.rs.npos  # simple root i has index i - 1
    return _class(cfg.rs, des, (N + k for k in range(N) if k + 1 not in des), form)


def levi_flag_class(I: Iterable[int], rs: RootSystem, form: str = K_THEORY) -> ClassExpression:
    """Class of the embedded flag variety of the standard Levi on I."""
    Iset = frozenset(I)
    rs.check_simple(Iset)
    outside = ~rs.simple_mask(Iset)
    N = rs.npos
    return _class(rs, Iset, (N + k for k in range(N) if rs.support_mask[k] & outside), form)


def peterson_dual_class(K: Iterable[int], rs: RootSystem) -> ClassExpression:
    """Dual class of a Peterson cell closure: only negative simple-root
    factors survive the restriction."""
    Kset = frozenset(K)
    return _class(rs, Kset, (rs.npos + k for k in range(rs.rank) if k + 1 not in Kset), COHOMOLOGY)


# -- type A expansion -------------------------------------------------------

Monomial = Tuple[int, ...]


class ChernPolynomial(NamedTuple):
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


def expand_typeA(expr: ClassExpression, rs: RootSystem) -> ChernPolynomial:
    """Expanded Chern-root polynomial of a cohomology-form class, multiplied
    out one factor at a time; a running table past the bound is refused."""
    if expr.form != COHOMOLOGY:
        raise DomainError("only cohomology-form classes expand to polynomials")
    if rs.cartan.family != "A":
        raise DomainError("polynomial expansion requires a type A ambient")
    n = rs.rank + 1
    terms: Dict[Monomial, Fraction] = {(0,) * n: Fraction(expr.scalar)} if expr.scalar else {}
    for root in expr.factor_roots:
        j, i = root_pair(rs, root)  # root = -(eps_i - eps_j): times x_i - x_j
        product: Dict[Monomial, Fraction] = {}
        for m, c in terms.items():
            for k, term in ((i - 1, c), (j - 1, -c)):
                raised = m[:k] + (m[k] + 1,) + m[k + 1 :]
                product[raised] = product.get(raised, 0) + term
        terms = {m: c for m, c in product.items() if c}
        require_enumerable(len(terms), f"{rs.cartan.name} Chern expansion")
    return ChernPolynomial(n, tuple(sorted(terms.items(), reverse=True)))
