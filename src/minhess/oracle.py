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
commutator [X, Z].  At a fixed point its row eta depends only on the
composition and eta, so two tables of the rows for every root eta are built
once per composition, neither read from the other: the conjugation's, by
one commutator-row helper from the nonzeros of X, and the closed form's,
from eigenvalue differences and structure constants.  A fixed-point
Jacobian reads its table's chart rows at the chart's columns, and a cell
point runs the same helper on the recentered matrix.  The chart is kept
for the last point.  Rows are stored sparse and zero-free, and ranked by
exact integer elimination, the only elimination here, once every row with
a column of its own is peeled off.  The rank of the last matrix is kept in
a one-entry memo keyed by its rows, so the closed form, whose rows equal
the conjugation's, takes the rank already found.  The rows are the entries
the point must leave zero to lie in the Hessenberg space, so the chart's
constant terms decide membership: one test, on every call, refuses a point
outside the variety for every entry point.  Nothing from ``hess`` is
consulted.  X has the eigenvalues l-1, l-3, ..., 1-l.  Entries stay ``int``
unless an entry of a translate u1 is non-integral, and only then are
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from .errors import DomainError
from .hess import HessConfig, config_from_mu, typeA_point
from .roots import Coeffs, RootSystem
from .singular import SINGULAR, SMOOTH
from .weyl import Composition, WeylElement, _pair_index

CELL_POINT_NOTE = (
    "full rank certifies a smooth point; a rank deficit certifies a singular "
    "point of the local chart model"
)


# -- exact matrices ------------------------------------------------------------

# an int wherever the inputs allow it, else a Fraction
Entry = Union[int, Fraction]
Matrix = Sequence[Sequence[Entry]]
# the (column, value) pairs of a row's nonzeros, in column order
Nonzeros = Tuple[Tuple[int, Entry], ...]
# (root index gamma, value) for each nonzero coefficient of z_gamma in an entry of [X, Z]
Row = Tuple[Tuple[int, Entry], ...]


def rank(sparse_rows: Iterable[Iterable[Tuple[int, Entry]]]) -> int:
    """Rank by exact integer elimination on sparse rows of (column, value)
    pairs, the oracle's only elimination.  A row with a nonzero in a column
    no other row touches is independent of the rest, so each such row is
    counted and dropped, until none is left.  Each remaining row becomes a
    {column: int} row: as it is when every value is an int, else scaled by
    the lowest common denominator of its entries.  A pivot row is set aside,
    and only the rows nonzero in the column of its first entry are combined
    with it, each result divided by the gcd of its entries."""
    rows = [nz for nz in ({c: x for c, x in row if x} for row in sparse_rows) if nz]
    r = 0
    while rows:
        seen, shared = set(), set()
        for row in rows:
            shared |= seen.intersection(row)
            seen.update(row)
        if len(shared) == len(seen):
            break
        kept = [row for row in rows if shared.issuperset(row)]
        r += len(rows) - len(kept)
        rows = kept
    if not all(type(x) is int for row in rows for x in row.values()):
        for k, nz in enumerate(rows):
            lcd = lcm(*(x.denominator for x in nz.values()))
            rows[k] = {c: x.numerator * (lcd // x.denominator) for c, x in nz.items()}
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
    rows, shared by every call with the same composition.  An n that
    ``config_from_mu`` refuses, below 2 or with an A_{n-1} root table over
    DEFAULT_ENUMERATION_BOUND (n >= 127), is refused before X is built."""
    return _regular_table(config_from_mu(mu).mu)


# one table per composition config_from_mu admits, so n <= 126
@lru_cache(maxsize=None)
def _regular_table(comp: Composition) -> Matrix:
    """X for comp, built once."""
    ell = comp.length
    diag = [s for s, part in zip(range(ell - 1, -ell, -2), comp.parts) for _ in range(part)]
    X = [[0] * comp.n for _ in range(comp.n)]
    for i, s in enumerate(diag):
        X[i][i] = s
    for i in comp.to_J():
        X[i - 1][i] = 1
    return tuple(map(tuple, X))


# -- row tables, charts and Jacobians ------------------------------------------


def _commutator_rows(base: Matrix, rs: RootSystem, etas: Iterable[int]) -> List[Row]:
    """Row eta of [base, Z] for each root index eta, Z over every root: the
    coefficient of z_gamma, gamma = (a, b), in the entry eta = (i, j) is
    base[i][a] [b = j] - [i = a] base[b][j], so row eta touches only the
    gamma = (a, j) with base[i][a] != 0 and (i, b) with base[b][j] != 0; an
    entry that cancels is dropped."""
    index = _pair_index(rs)
    rows = []
    for i, j in map(rs.pairs.__getitem__, etas):
        touched = {(a, j) for a, x in enumerate(base[i - 1], 1) if x}
        touched.update((i, b) for b, r in enumerate(base, 1) if r[j - 1])
        row = []
        for a, b in touched & index.keys():
            x = (base[i - 1][a - 1] if b == j else 0) - (base[b - 1][j - 1] if a == i else 0)
            if x:
                row.append((index[a, b], x))
        rows.append(tuple(row))
    return rows


def _closed_form_rows(X: Matrix, cfg: HessConfig) -> List[Row]:
    """Row eta of [X, Z] for every root eta, assembled with no conjugation:
    the eigenvalue difference eta(diag) at z_eta, minus the elementary-matrix
    structure constant at z_gamma whenever eta differs from gamma by a
    block simple root; a zero of either is left out."""
    index = _pair_index(cfg.rs)
    block_simples = {(a, a + 1) for a in cfg.J}
    rows = []
    for eta in cfg.rs.pairs:
        i, j = eta
        diff = X[i - 1][i - 1] - X[j - 1][j - 1]
        row = {index[eta]: diff} if diff else {}
        # eta - gamma is a simple root alpha only for gamma = (i+1, j), (i, j-1)
        for gamma, alpha in (((i + 1, j), (i, i + 1)), ((i, j - 1), (j - 1, j))):
            k = index.get(gamma)
            if k is not None and alpha in block_simples:
                c = _structure_constant(gamma, alpha, eta)
                if c:
                    row[k] = -c
        rows.append(tuple(row.items()))
    return rows


# two tables per composition config_from_mu admits, neither read from the
# other, so the Jacobian's two constructions stay independent
@lru_cache(maxsize=None)
def _row_tables(comp: Composition) -> Tuple[List[Row], List[Row]]:
    """Every row of [X, Z] by root: by conjugation, and by the closed form."""
    X, cfg = _regular_table(comp), config_from_mu(comp)
    return _commutator_rows(X, cfg.rs, range(len(cfg.rs.pairs))), _closed_form_rows(X, cfg)


class _Chart(NamedTuple):
    """The chart at w, in root order: the row roots w(Phi^- minus the negative
    simples) as indices and 0-based matrix units, the position of each
    column root w(Phi^-), and the row and column roots."""
    rows: Tuple[int, ...]
    units: Tuple[Tuple[int, int], ...]
    column: Dict[int, int]
    roots: Tuple[Tuple[Coeffs, ...], Tuple[Coeffs, ...]]


def _chart(w, mu) -> Tuple[HessConfig, _Chart]:
    """mu's configuration and the chart at w, for any n whose root system
    ``config_from_mu`` builds; it refuses n >= 127 before w is read."""
    element, cfg = typeA_point(w, mu)
    return cfg, _chart_at(element, cfg)


# one chart, for the point the routes last asked about
@lru_cache(maxsize=1)
def _chart_at(element: WeylElement, cfg: HessConfig) -> _Chart:
    rs = cfg.rs
    key = rs.index_keys.__getitem__
    rows = tuple(sorted(element.perm[rs.npos + rs.rank :], key=key))
    cols = sorted(element.perm[rs.npos :], key=key)
    units = tuple((i - 1, j - 1) for i, j in map(rs.pairs.__getitem__, rows))
    roots = tuple(tuple(map(rs.root_list.__getitem__, ks)) for ks in (rows, cols))
    return _Chart(rows, units, {gamma: k for k, gamma in enumerate(cols)}, roots)


def _require_in_variety(base: Matrix, chart: _Chart, point: str) -> None:
    """Refuse the point unless every chart row eta = (i, j) has a zero
    constant term base[i][j]: the rows eta = w(eps_a - eps_b), a > b + 1, are
    exactly the entries P^-1 base P must leave zero to lie in the Hessenberg
    space.  The oracle's one membership test, run on every call."""
    if any(base[i][j] for i, j in chart.units):
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


def _ranked(chart: _Chart, rows: Iterable[Row], note: str = "") -> JacobianResult:
    """The Jacobian with its rank and verdict, the chart's rows of [base, Z]
    read at the chart's columns and stored in column order."""
    column = chart.column
    stored = tuple(tuple(sorted([(column[g], x) for g, x in row if g in column]))
                   for row in rows)
    rk = _stored_rank(stored)
    verdict = SMOOTH if rk == len(stored) else SINGULAR
    return JacobianResult(*chart.roots, stored, rk, verdict, note)


def jacobian_at_fixed_point(w, mu) -> JacobianResult:
    """Jacobian of the chart equations at the torus-fixed point of w.

    Rows are indexed by the non-simple negative roots moved by w, columns by
    the chart variables; the point is smooth exactly when the matrix has
    full row rank.
    """
    cfg, chart = _chart(w, mu)
    _require_in_variety(_regular_table(cfg.mu), chart, "fixed point")
    return _ranked(chart, map(_row_tables(cfg.mu)[0].__getitem__, chart.rows))


def linear_terms_closed_form(w, mu) -> JacobianResult:
    """The same Jacobian assembled entry by entry by ``_closed_form_rows``,
    with no conjugation, so that the two can be compared entrywise; it is
    ranked once when they agree."""
    cfg, chart = _chart(w, mu)
    _require_in_variety(_regular_table(cfg.mu), chart, "fixed point")
    return _ranked(chart, map(_row_tables(cfg.mu)[1].__getitem__, chart.rows))


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
    cfg, chart = _chart(w, mu)
    X = _regular_table(cfg.mu)
    n = len(X)
    U = [[_exact(x) for x in row] for row in u1]
    if len(U) != n or any(len(row) != n for row in U):
        raise DomainError("u1 has the wrong shape")
    for i in range(n):
        if U[i][i] != 1 or any(U[i][j] != 0 for j in range(i)):
            raise DomainError("u1 must be unipotent upper triangular")
    recentered = _unipotent_conjugate(U, X)
    _require_in_variety(recentered, chart, "translated point")
    return _ranked(chart, _commutator_rows(recentered, cfg.rs, chart.rows), CELL_POINT_NOTE)
