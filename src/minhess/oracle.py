"""Independent type A verification engine.

Everything here works with explicit matrices over exact numbers: the
regular element X is a matrix, the coordinate chart at a fixed point is the
generic unipotent element I + Z with Z = sum_k z_k E_k over the chart's matrix
units, and smoothness is decided by the rank of the Jacobian of the chart's
defining equations.  No result from the rest of the package feeds the
computation, which is the point: verdicts can be cross-checked against the
combinatorial routes.

To first order (I + Z)^-1 X (I + Z) = X + [X, Z], so the linear parts of the
defining equations, which are all the Jacobian needs, are the entries of the
commutator [X, Z].  A row of [X, Z] has at most three nonzero entries at a
fixed point, so the rows are filled from the nonzeros of X, kept free of
zeros as they are built, stored as sparse rows and ranked by exact integer
elimination on them, the only elimination here.  The rank of the last
matrix is kept in a one-entry memo keyed by its rows, so the closed form,
whose rows equal the conjugation's, takes the rank already found.  The rows
are the entries the point must leave zero to lie in the Hessenberg space,
so the chart's constant terms decide membership: one test on them refuses
a point outside the variety for both Jacobians and the closed form.  Every
entry point sets up its chart the same way, and no result from ``hess`` is
consulted.

X has the eigenvalues l-1, l-3, ..., 1-l.  X, its nonzero pattern (the
nonzeros of each row and of each column, from which the commutator rows
are filled) and the configuration are built once per composition: X as an
immutable table of ints, the configuration through ``hess.config_from_mu``.
At a cell point, the same helper reads the pattern off the recentered
matrix on every call.  Entries stay ``int`` unless an entry of a translate
u1 is non-integral, and only then are ``Fraction``: at a fixed point, and
at an integral u1, every entry is an ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from .errors import DomainError
from .hess import HessConfig, typeA_point
from .roots import Coeffs, RootSystem
from .singular import SINGULAR, SMOOTH
from .weyl import Composition

DEFAULT_SIZE_BOUND = 6

CELL_POINT_NOTE = (
    "full rank certifies a smooth point; a rank deficit certifies a singular "
    "point of the local chart model"
)


# -- exact matrices ------------------------------------------------------------

# an int wherever the inputs allow it, else a Fraction
Entry = Union[int, Fraction]
Matrix = Sequence[Sequence[Entry]]
# the (position, value) pairs of a row's or column's nonzeros, in order
Nonzeros = Tuple[Tuple[int, Entry], ...]
# a matrix's nonzeros per row, then per column
Pattern = Tuple[Tuple[Nonzeros, ...], Tuple[Nonzeros, ...]]


def rank(sparse_rows: Iterable[Iterable[Tuple[int, Entry]]]) -> int:
    """Rank by exact integer elimination on sparse rows of (column, value)
    pairs, the oracle's only elimination.  Each row with a nonzero value
    becomes a {column: int} row: as it is when every value in the matrix is
    an int, else scaled by the lowest common denominator of its entries.  A
    pivot row is set aside, and only the rows nonzero in the column of its
    first entry are combined with it, each result divided by the gcd of its
    entries."""
    rows = [nz for nz in ({c: x for c, x in row if x} for row in sparse_rows) if nz]
    if not all(type(x) is int for row in rows for x in row.values()):
        for k, nz in enumerate(rows):
            lcd = lcm(*(x.denominator for x in nz.values()))
            rows[k] = {c: x.numerator * (lcd // x.denominator) for c, x in nz.items()}
    r = 0
    while rows:
        top = rows.pop()
        col, pv = next(iter(top.items()))
        r += 1
        for k, row in enumerate(rows):
            f = row.get(col)
            if f is None:
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            new = {c: a * x for c, x in row.items()}
            for c, y in top.items():
                new[c] = new.get(c, 0) - b * y
            g = gcd(*new.values()) or 1
            rows[k] = {c: x // g for c, x in new.items() if x}
        rows = [row for row in rows if row]
    return r


# the closed form's rows equal the conjugation's ranked just before it, so
# the last matrix's rank is kept, keyed by its stored rows' values
@lru_cache(maxsize=1)
def _stored_rank(stored: Tuple[Nonzeros, ...]) -> int:
    """The rank of a Jacobian's stored rows, remembered for one matrix."""
    return rank(stored)


def _unipotent_conjugate(U: Matrix, M: Matrix) -> Matrix:
    """U^-1 M U for unit upper triangular U, solving U R = M U from the last
    row up; the unit diagonal means no step divides."""
    n = len(U)
    R = [[sum(M[i][k] * U[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    for i in range(n - 2, -1, -1):
        for k in range(i + 1, n):
            if U[i][k]:
                R[i] = [r - U[i][k] * s for r, s in zip(R[i], R[k])]
    return R


# -- the regular element -----------------------------------------------------


def require_size(n: int) -> None:
    """Refuse an n above DEFAULT_SIZE_BOUND."""
    if n > DEFAULT_SIZE_BOUND:
        raise DomainError(f"n={n} exceeds the size bound {DEFAULT_SIZE_BOUND}")


def _exact(value) -> Entry:
    """An entry of u1 as an int if it is an integer, else as a Fraction."""
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def regular_matrix(mu) -> Matrix:
    """X = diag + N for a composition: the diagonal is constant exactly on
    the blocks, with the centered integers l-1, l-3, ..., 1-l as its values,
    so a two-block composition gets the classical (1, -1) pair; N has a 1 in
    position (i, i+1) for every alpha_i inside a block.  X is a tuple of int
    rows, shared by every call with the same composition.  An n above
    DEFAULT_SIZE_BOUND is refused before anything is built."""
    comp = Composition.of(mu)
    require_size(comp.n)
    return _regular_table(comp)[0]


# at most one table per composition with n <= DEFAULT_SIZE_BOUND
@lru_cache(maxsize=None)
def _regular_table(comp: Composition) -> Tuple[Matrix, Pattern]:
    """X for comp, and its nonzeros, both built once."""
    ell = comp.length
    diag = [s for s, part in zip(range(ell - 1, -ell, -2), comp.parts) for _ in range(part)]
    X = [[0] * comp.n for _ in range(comp.n)]
    for i, s in enumerate(diag):
        X[i][i] = s
    for i in comp.to_J():
        X[i - 1][i] = 1
    X = tuple(map(tuple, X))
    return X, _nonzeros(X)


def _nonzeros(base: Matrix) -> Pattern:
    """The nonzeros of each row and of each column of base."""
    in_row = tuple(tuple((a, x) for a, x in enumerate(r) if x) for r in base)
    in_col = tuple(
        tuple((b, r[j]) for b, r in enumerate(base) if r[j]) for j in range(len(base))
    )
    return in_row, in_col


# -- charts and Jacobians ----------------------------------------------------


def _chart(w, mu) -> Tuple[Matrix, HessConfig, List[int], List[int]]:
    """The regular element X of mu, its configuration, and the chart at w:
    the indices of the row roots w(Phi^- minus the negative simples) and of
    the column roots w(Phi^-), both in the package's deterministic root
    order.  An n above the size bound is refused before X or its root system
    is built."""
    comp = Composition.of(mu)
    X = regular_matrix(comp)
    element, cfg = typeA_point(w, comp)
    rs = cfg.rs
    key = rs.index_keys.__getitem__
    rows = sorted(element.perm[rs.npos + rs.rank :], key=key)
    cols = sorted(element.perm[rs.npos :], key=key)
    return X, cfg, rows, cols


def _require_in_variety(base: Matrix, cfg: HessConfig, rows: List[int], point: str) -> None:
    """Refuse the point unless every chart row eta = (i, j) has a zero
    constant term base[i][j]: the rows eta = w(eps_a - eps_b), a > b + 1, are
    exactly the entries P^-1 base P must leave zero to lie in the Hessenberg
    space.  The oracle's one membership test."""
    if any(base[i - 1][j - 1] for i, j in map(cfg.rs.pairs.__getitem__, rows)):
        raise DomainError(f"the {point} does not lie in the variety")


class JacobianResult(NamedTuple):
    rows: Tuple[Coeffs, ...]
    cols: Tuple[Coeffs, ...]
    # per row, the (column, value) pairs of its nonzeros in column order;
    # a value is an int when every input to the chart is an integer
    sparse_rows: Tuple[Tuple[Tuple[int, Entry], ...], ...]
    rank: int
    verdict: str
    note: str = ""

    @property
    def matrix(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The dense view of the sparse rows as Fractions, for library
        callers, the tests and the benchmark; the CLI prints its own dense
        rows, built from ``sparse_rows``."""
        dense = []
        for entries in self.sparse_rows:
            row = [Fraction(0)] * len(self.cols)
            for k, x in entries:
                row[k] = Fraction(x)
            dense.append(tuple(row))
        return tuple(dense)

    @property
    def is_smooth(self) -> bool:
        return self.verdict == SMOOTH


def _ranked(
    rs: RootSystem, rows: List[int], cols: List[int], sparse: List[Dict[int, Entry]],
    note: str,
) -> JacobianResult:
    """The Jacobian with its rank and verdict, rows and columns as roots;
    each row of sparse holds only nonzero values."""
    stored = tuple(tuple(sorted(row.items())) for row in sparse)
    rk = _stored_rank(stored)
    verdict = SMOOTH if rk == len(rows) else SINGULAR
    roots = [tuple(map(rs.root_list.__getitem__, ks)) for ks in (rows, cols)]
    return JacobianResult(*roots, stored, rk, verdict, note)


def _jacobian_from_conjugation(
    cfg: HessConfig, rows: List[int], cols: List[int], base: Matrix, pattern: Pattern,
    point: str, note: str = "",
) -> JacobianResult:
    """Linear parts of the defining equations of the chart, read off the
    commutator [base, Z]: the coefficient of z_gamma, gamma = (a, b), in the
    entry eta = (i, j) is base[i][a] [b = j] - [i = a] base[b][j], so row eta
    touches only the columns (a, j) with base[i][a] != 0 and (i, b) with
    base[b][j] != 0; pattern is base's ``_nonzeros``, and an entry that
    cancels is dropped.  A nonzero constant term puts the point outside the
    variety."""
    _require_in_variety(base, cfg, rows, point)
    pairs = cfg.rs.pairs
    column = {(a - 1, b - 1): k for k, (a, b) in enumerate(map(pairs.__getitem__, cols))}
    in_row, in_col = pattern
    sparse: List[Dict[int, Entry]] = []
    for eta in rows:
        i, j = pairs[eta]
        i, j = i - 1, j - 1
        row: Dict[int, Entry] = {}
        for a, x in in_row[i]:
            k = column.get((a, j))
            if k is not None:
                row[k] = x
        for b, y in in_col[j]:
            k = column.get((i, b))
            if k is not None:
                x = row.pop(k, 0) - y
                if x:
                    row[k] = x
        sparse.append(row)
    return _ranked(cfg.rs, rows, cols, sparse, note)


def jacobian_at_fixed_point(w, mu) -> JacobianResult:
    """Jacobian of the chart equations at the torus-fixed point of w.

    Rows are indexed by the non-simple negative roots moved by w, columns by
    the chart variables; the point is smooth exactly when the matrix has
    full row rank.
    """
    X, cfg, rows, cols = _chart(w, mu)
    return _jacobian_from_conjugation(
        cfg, rows, cols, X, _regular_table(cfg.mu)[1], "fixed point"
    )


def linear_terms_closed_form(w, mu) -> JacobianResult:
    """The same Jacobian assembled entry by entry, with no conjugation.

    The (eta, gamma) entry is the eigenvalue difference eta(diag) on the
    diagonal, minus the elementary-matrix structure constant whenever eta
    differs from gamma by a block simple root; a zero of either is left
    out.  Kept independent of the commutator of explicit matrices so the two
    can be compared entrywise, and ranked once when they agree.
    """
    X, cfg, rows, cols = _chart(w, mu)
    _require_in_variety(X, cfg, rows, "fixed point")
    pairs = cfg.rs.pairs
    column = {pairs[gamma]: k for k, gamma in enumerate(cols)}
    block_simples = {(a, a + 1) for a in cfg.J}
    sparse = []
    for eta in map(pairs.__getitem__, rows):
        i, j = eta
        diff = X[i - 1][i - 1] - X[j - 1][j - 1]
        row = {column[eta]: diff} if diff else {}
        # eta - gamma is a simple root alpha only for gamma = (i+1, j), (i, j-1)
        for gamma, alpha in (((i + 1, j), (i, i + 1)), ((i, j - 1), (j - 1, j))):
            k = column.get(gamma)
            if k is not None and alpha in block_simples:
                c = _structure_constant(gamma, alpha, eta)
                if c:
                    row[k] = -c
        sparse.append(row)
    return _ranked(cfg.rs, rows, cols, sparse, "")


def _structure_constant(
    gamma: Tuple[int, int], alpha: Tuple[int, int], eta: Tuple[int, int]
) -> int:
    """Coefficient of the eta matrix unit in [E_gamma, E_alpha], for type A
    roots given as pairs (i, j) for eps_i - eps_j."""
    (a, b), (c, d) = gamma, alpha
    return int(b == c and (a, d) == eta) - int(d == a and (c, b) == eta)


def jacobian_at_cell_point(w, mu, u1: Sequence[Sequence]) -> JacobianResult:
    """Jacobian at the translated point u1.wB of w's cell.

    The chart is recentered by conjugating the regular element by u1 first,
    since (U P)^-1 X (U P) = P^-1 (U^-1 X U) P; the recentered chart's
    constant terms decide whether the translated point lies in the variety.
    Entries stay ``int`` unless an entry of u1 is non-integral, so an
    integral u1 gives the fixed point's entry types.
    """
    X, cfg, rows, cols = _chart(w, mu)
    n = len(X)
    U = [[_exact(x) for x in row] for row in u1]
    if len(U) != n or any(len(row) != n for row in U):
        raise DomainError("u1 has the wrong shape")
    for i in range(n):
        if U[i][i] != 1 or any(U[i][j] != 0 for j in range(i)):
            raise DomainError("u1 must be unipotent upper triangular")
    recentered = _unipotent_conjugate(U, X)
    return _jacobian_from_conjugation(
        cfg, rows, cols, recentered, _nonzeros(recentered), "translated point",
        CELL_POINT_NOTE,
    )
