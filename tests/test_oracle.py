"""The exact Jacobian engine: regression against the worked chart, the
commutator form against exact conjugation, the dual-path identity between
the commutator and the assembled linear terms, a pinned hash of both
Jacobians' matrices, the sparse integer elimination (the oracle's only one)
against Gauss-Jordan, membership decided without hess, and invariance
properties of the verdict."""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minhess import hess, oracle, singular, verification
from minhess.cli import _u1_entry, main
from minhess.errors import DomainError, EnumerationBoundError
from minhess.weyl import compositions, from_one_line, one_line
from references import matrix_admissible


SAMPLE_MUS = [(2, 2), (3, 1), (1, 2, 1), (2, 1, 2)]
FRACTIONAL = [Fraction(3, 2), Fraction(0), Fraction(-7, 3), Fraction(5, 4), Fraction(-1, 5)]


def matrix_unit(root):
    """The 0-based (i, j) with root = eps_i - eps_j, read off its support."""
    support = [k for k, c in enumerate(root) if c]
    first, last = support[0], support[-1] + 1
    return (first, last) if root[first] > 0 else (last, first)


def regular_at(mu, values):
    """The oracle's X for mu with the given eigenvalues on its blocks in
    place of l-1, l-3, ..., 1-l."""
    diag = [s for s, part in zip(values, mu) for _ in range(part)]
    return [
        [diag[i] if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(oracle.regular_matrix(mu))
    ]


def jacobian_at(w, mu, X):
    """The fixed-point Jacobian of w with X as the regular element, through
    the oracle's chart and commutator."""
    cfg, chart = oracle._chart(w, mu)
    return oracle._ranked(chart, oracle._commutator_rows(X, cfg.rs, chart.rows))


def matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def unipotent(n, entries):
    """I plus the given {(i, j): value} off-diagonal entries."""
    return [[entries.get((i, j), Fraction(int(i == j))) for j in range(n)] for i in range(n)]


# -- the commutator form ---------------------------------------------------------


def linear_coefficient(X, a, b):
    """The t-linear coefficient C_1 of (I - tE_ab) X (I + tE_ab).

    The conjugate is X + t C_1 + t^2 C_2, so (M(t) - X) / t = C_1 + t C_2
    at two rational values of t determines C_1 exactly.
    """
    n = len(X)
    t1, t2 = Fraction(1, 3), Fraction(-5, 2)
    slopes = []
    for t in (t1, t2):
        M = matmul(matmul(unipotent(n, {(a, b): -t}), X), unipotent(n, {(a, b): t}))
        slopes.append([[(M[i][j] - X[i][j]) / t for j in range(n)] for i in range(n)])
    return [
        [(t2 * s1 - t1 * s2) / (t2 - t1) for s1, s2 in zip(r1, r2)]
        for r1, r2 in zip(*slopes)
    ]


def assert_columns_are_linear_terms(res, base):
    """Column k of the Jacobian is the t-linear coefficient of conjugating
    the base matrix by I + tE_k, read on the rows' matrix units."""
    for k, gamma in enumerate(res.cols):
        C = linear_coefficient(base, *matrix_unit(gamma))
        for row, eta in zip(res.matrix, res.rows):
            i, j = matrix_unit(eta)
            assert base[i][j] == 0  # no constant term at the point
            assert row[k] == C[i][j]


def test_columns_are_linear_terms_of_exact_conjugation():
    """Column k is the t-linear coefficient of (I - tE_k) X (I + tE_k)."""
    for mu in SAMPLE_MUS:
        X = regular_at(mu, FRACTIONAL[: len(mu)])
        for w, _, _ in hess.enumerate_admissible(hess.config_from_mu(mu)):
            assert_columns_are_linear_terms(jacobian_at(w, mu, X), X)


def dual_matmul(A, B):
    """Product of matrices over the dual numbers a + b*eps, eps^2 = 0."""
    n = len(A)
    return [
        [
            (
                sum(A[i][k][0] * B[k][j][0] for k in range(n)),
                sum(A[i][k][0] * B[k][j][1] + A[i][k][1] * B[k][j][0] for k in range(n)),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def dual_unipotent(n, i, j, value):
    """I + value * eps * E_ij over the dual numbers."""
    return [
        [(Fraction(int(r == c)), value if (r, c) == (i, j) else Fraction(0)) for c in range(n)]
        for r in range(n)
    ]


def test_linear_terms_do_not_depend_on_factor_order():
    """The product of the factors I + z_k E_k is I + Z to first order, in
    any order: along z = eps * c the conjugate's linear part is the
    Jacobian applied to c."""
    rng = random.Random(7)
    for mu in SAMPLE_MUS:
        X = [[(x, Fraction(0)) for x in row] for row in oracle.regular_matrix(mu)]
        n = len(X)
        for w, _, _ in hess.enumerate_admissible(hess.config_from_mu(mu)):
            res = oracle.jacobian_at_fixed_point(w, mu)
            c = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in res.cols]
            order = list(range(len(res.cols)))
            rng.shuffle(order)
            u = uinv = dual_unipotent(n, 0, 0, Fraction(0))  # the identity
            for k in order:
                a, b = matrix_unit(res.cols[k])
                u = dual_matmul(u, dual_unipotent(n, a, b, c[k]))
                uinv = dual_matmul(dual_unipotent(n, a, b, -c[k]), uinv)
            M = dual_matmul(dual_matmul(uinv, X), u)
            for row, eta in zip(res.matrix, res.rows):
                i, j = matrix_unit(eta)
                assert M[i][j] == (0, sum(x * ck for x, ck in zip(row, c)))


# -- sparse integer rank ----------------------------------------------------------
# oracle.rank, the oracle's only elimination, against a plain Fraction
# Gauss-Jordan kept here as the reference.


def sparse(matrix):
    """Dense rows as the sparse rows oracle.rank takes: (column, value)
    pairs of the nonzero entries, the form JacobianResult stores."""
    return [tuple((c, x) for c, x in enumerate(row) if x) for row in matrix]


def gauss_jordan_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


fractions_small = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@st.composite
def rational_matrices(draw):
    """Random rational matrices, padded with zero rows and with rows that
    are rational combinations of earlier ones, in shuffled order."""
    ncols = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(fractions_small, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        rows.append([Fraction(0)] * ncols)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        coeffs = draw(st.lists(fractions_small, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_bareiss_rank_matches_gauss_jordan(matrix):
    assert oracle.rank(sparse(matrix)) == gauss_jordan_rank(matrix)


fractions_large = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def jacobian_shaped_matrices(draw):
    """Rows shaped like a Jacobian row at a fixed point (at most three
    nonzeros among up to 21 columns), with large numerators and
    denominators, then rows that combine earlier ones, in shuffled order."""
    ncols = draw(st.integers(1, 21))
    rows = []
    for _ in range(draw(st.integers(0, 15))):
        row = [Fraction(0)] * ncols
        for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3, unique=True)):
            row[c] = draw(fractions_large)
        rows.append(row)
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        terms = draw(st.lists(
            st.tuples(st.sampled_from(rows), fractions_large), min_size=1, max_size=3
        ))
        rows.append([sum(c * row[j] for row, c in terms) for j in range(ncols)])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(jacobian_shaped_matrices())
def test_rank_of_jacobian_shaped_matrices(matrix):
    assert oracle.rank(sparse(matrix)) == gauss_jordan_rank(matrix)


@st.composite
def peelable_matrices(draw):
    """Rows over some shared columns and rational combinations of them,
    with some rows given a column of their own (a nonzero no other row
    has), in shuffled order: the rows the pre-pass peels before the
    elimination."""
    shared = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.lists(fractions_small, min_size=shared, max_size=shared), min_size=1, max_size=5
    ))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(fractions_small, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(shared)])
    owners = draw(st.lists(st.integers(0, len(rows) - 1), unique=True))
    nonzero = fractions_small.filter(bool)
    own = [
        [draw(nonzero) if k == owner else Fraction(0) for owner in owners]
        for k in range(len(rows))
    ]
    return draw(st.permutations([row + extra for row, extra in zip(rows, own)]))


@settings(max_examples=200, deadline=None)
@given(peelable_matrices())
def test_rank_of_peelable_matrices(matrix):
    assert oracle.rank(sparse(matrix)) == gauss_jordan_rank(matrix)


def rank_and_gcd_calls(monkeypatch, rows):
    """oracle.rank of the rows, and the number of gcds its elimination
    took: none when the pre-pass peeled every row."""
    calls = []
    monkeypatch.setattr(oracle, "gcd", lambda *xs: calls.append(xs) or gcd(*xs))
    r = oracle.rank(rows)
    monkeypatch.undo()
    return r, len(calls)


@pytest.mark.parametrize("fractions", [False, True])
def test_the_pre_pass_peels_what_has_a_column_of_its_own(monkeypatch, fractions):
    """Each case against Gauss-Jordan, with int values and with Fraction
    ones (each row and each column scaled by its own fraction, which keeps
    the rank): peeling cascades until no row is left (each peel frees a
    column of the next row), nothing peels and the elimination does all the
    work, and a peel leaves a dependent remainder."""
    def rows(*dense):
        if fractions:
            dense = [
                [x * Fraction(k + 1, k + 3) * Fraction(c + 2, 5) for c, x in enumerate(row)]
                for k, row in enumerate(dense)
            ]
        return sparse(dense)

    cascade = rows([3, 1, 0, 0], [0, 2, 5, 0], [0, 0, 4, 1], [0, 0, 0, 6])
    assert rank_and_gcd_calls(monkeypatch, cascade) == (4, 0)
    # every column is shared by two rows: an odd cycle of full rank
    cycle = rows([1, 2, 0], [0, 3, 1], [4, 0, 5])
    r, gcds = rank_and_gcd_calls(monkeypatch, cycle)
    assert r == 3 and gcds > 0
    # the first row owns column 0; the last is the sum of the two before it
    remainder = rows([1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 3, 4], [0, 1, 5, 4])
    r, gcds = rank_and_gcd_calls(monkeypatch, remainder)
    assert r == 3 and gcds > 0
    for matrix in (cascade, cycle, remainder):
        dense = [[Fraction(0)] * 4 for _ in matrix]
        for row, entries in zip(dense, matrix):
            for c, x in entries:
                row[c] = Fraction(x)
        assert oracle.rank(matrix) == gauss_jordan_rank(dense)


def test_rank_of_every_jacobian_matches_gauss_jordan():
    """Every fixed-point Jacobian with n <= 5, at the default and at
    fractional eigenvalues, and the Jacobian at each seeded cell point that
    lies in the variety."""
    results = []
    for n in range(2, 6):
        for mu in compositions(n):
            X = regular_at(mu, FRACTIONAL[: len(mu)])
            for w, _, _ in hess.enumerate_admissible(hess.config_from_mu(mu)):
                results.append(oracle.jacobian_at_fixed_point(w, mu))
                results.append(jacobian_at(w, mu, X))
    for w, mu, _, U, inside in seeded_cell_points():
        if inside:
            results.append(oracle.jacobian_at_cell_point(w, mu, U))
    for res in results:
        assert res.rank == gauss_jordan_rank(res.matrix)
        assert list(res.sparse_rows) == sparse(res.matrix)


def test_jacobian_matrices_are_pinned():
    """(rows, cols, repr(matrix), rank, verdict) of both Jacobians over every
    admissible (w, mu) with n <= 4, hashed; the benchmark's answer digest
    hashes the same repr, so a change to it fails here first."""
    h = hashlib.sha256()
    for n in range(2, 5):
        for mu in compositions(n):
            for w, _, _ in hess.enumerate_admissible(hess.config_from_mu(mu)):
                for res in (
                    oracle.jacobian_at_fixed_point(w, mu),
                    oracle.linear_terms_closed_form(w, mu),
                ):
                    h.update(repr(
                        (res.rows, res.cols, repr(res.matrix), res.rank, res.verdict)
                    ).encode())
    assert h.hexdigest() == (
        "5a65feb9f422494aef3b813693055f41aa729e8866e5ac1fcc4bbad2a82aa7a9"
    )


# -- the regular element --------------------------------------------------------


def test_regular_matrix_shape():
    X = oracle.regular_matrix((3, 1))
    assert [X[i][i] for i in range(4)] == [1, 1, 1, -1]
    assert X[0][1] == X[1][2] == 1 and X[2][3] == 0
    X22 = oracle.regular_matrix((2, 2))
    assert [X22[i][i] for i in range(4)] == [1, 1, -1, -1]
    # alpha(S) vanishes exactly on the block simple roots
    for mu in [(2, 2), (3, 1), (1, 3), (4,)]:
        X = oracle.regular_matrix(mu)
        J = hess.config_from_mu(mu).J
        for i in range(1, len(X)):
            assert (X[i - 1][i - 1] == X[i][i]) == (i in J)


def test_regular_matrix_is_one_table_of_ints_per_composition():
    """X holds int entries, and every spelling of a composition shares its
    one table."""
    X = oracle.regular_matrix((2, 1))
    assert X == ((1, 1, 0), (0, 1, 0), (0, 0, -1))
    assert all(type(x) is int for row in X for x in row)
    assert oracle.regular_matrix([2, 1]) is X


def test_size_bound_is_checked_before_x_is_built(monkeypatch):
    """An n whose A_{n-1} root table passes the enumeration bound is refused
    before the regular element is built or cached."""
    def refuse(*args):
        raise AssertionError("X was built")

    monkeypatch.setattr(oracle, "_regular_table", refuse)
    with pytest.raises(EnumerationBoundError, match="root table"):
        matrix_admissible(range(1, 3001), (3000,))
    with pytest.raises(EnumerationBoundError, match="root table"):
        oracle.jacobian_at_fixed_point(range(1, 3001), [3000])
    for mu in [(3000,), (127,)]:
        with pytest.raises(EnumerationBoundError, match="root table"):
            oracle.regular_matrix(mu)


# -- fixed-point Jacobians -------------------------------------------------------


def entry_types(res):
    return {type(x) for row in res.sparse_rows for _, x in row}


def test_default_eigenvalue_jacobians_hold_ints():
    """At the default eigenvalues both Jacobians store int entries, while
    the dense matrix is all Fractions."""
    for n in range(2, 6):
        for mu in compositions(n):
            for w, _, _ in hess.enumerate_admissible(hess.config_from_mu(mu)):
                for res in (
                    oracle.jacobian_at_fixed_point(w, mu),
                    oracle.linear_terms_closed_form(w, mu),
                ):
                    assert entry_types(res) <= {int}
                    assert {type(x) for row in res.matrix for x in row} <= {Fraction}


def typed_rows(res):
    return [[(k, x, type(x)) for k, x in row] for row in res.sparse_rows]


def test_rational_eigenvalues_and_cell_points_give_fractions():
    """A rational eigenvalue gives the Fraction eigenvalue differences and a
    non-integral translate u1 gives Fractions, either comparing equal to the
    int Jacobian wherever the values agree; an integral translate keeps the
    fixed point's int entries."""
    w, mu = (1, 3, 2, 4), (3, 1)
    res = jacobian_at(w, mu, regular_at(mu, [Fraction(1, 2), Fraction(-1, 3)]))
    assert entry_types(res) == {int, Fraction}
    entries = {
        (res.rows[r], res.cols[k]): x for r, row in enumerate(res.sparse_rows) for k, x in row
    }
    assert entries == {
        ((0, 0, -1), (0, 0, -1)): Fraction(-5, 6),
        ((0, 0, -1), (0, -1, -1)): -1,
        ((-1, -1, -1), (-1, -1, -1)): Fraction(-5, 6),
        ((-1, 0, 0), (-1, -1, 0)): 1,
    }
    assert {type(x) for row in res.matrix for x in row} == {Fraction}
    at_fixed = oracle.jacobian_at_fixed_point(w, mu)
    assert jacobian_at(w, mu, regular_at(mu, [Fraction(1), Fraction(-1)])) == at_fixed
    assert entry_types(at_fixed) == {int}
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    shifted = [row[:] for row in eye]
    shifted[0][2] = 2  # a translate whose Jacobian is the fixed point's
    for u1 in (eye, shifted):
        for spelled in (u1, [[Fraction(x) for x in row] for row in u1]):
            at_cell = oracle.jacobian_at_cell_point(w, mu, spelled)
            assert at_cell._replace(note="") == at_fixed
            assert typed_rows(at_cell) == typed_rows(at_fixed)
            assert at_cell.matrix == at_fixed.matrix
    moved = oracle.jacobian_at_cell_point((3, 2, 1, 4), (2, 2), chart_translate(Fraction(1, 2), 1))
    # Fractions where the entry 1/2 reaches, ints elsewhere
    assert entry_types(moved) == {int, Fraction} and moved.is_smooth


def test_integral_u1_entries_print_the_same_bytes(capsys):
    """An integral --u1 entry reads as the same int however it is written."""
    assert {(x, type(x)) for x in map(_u1_entry, (2, 2.0, "2.0", "4/2"))} == {(2, int)}
    outputs = set()
    for entry in ("2", '"2.0"', '"4/2"', "2.0"):
        u1 = f"[[1,{entry},0],[0,1,0],[0,0,1]]"
        assert main(["oracle", "--mu", "2,1", "--w", "213", "--u1", u1]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_jacobian_regression_s2():
    res = oracle.jacobian_at_fixed_point((1, 3, 2, 4), (3, 1))
    assert res.rank == 3 and res.is_smooth
    assert res.rows == ((-1, -1, -1), (0, 0, -1), (-1, 0, 0))
    assert res.cols == (
        (-1, -1, -1),
        (0, -1, -1),
        (-1, -1, 0),
        (0, 0, -1),
        (-1, 0, 0),
        (0, 1, 0),
    )
    named = {
        ((0, 0, -1), (0, 0, -1)): Fraction(-2),
        ((0, 0, -1), (0, -1, -1)): Fraction(-1),
        ((-1, -1, -1), (-1, -1, -1)): Fraction(-2),
        ((-1, 0, 0), (-1, -1, 0)): Fraction(1),
    }
    for i, row_root in enumerate(res.rows):
        for j, col_root in enumerate(res.cols):
            assert res.matrix[i][j] == named.get((row_root, col_root), 0)


def test_closed_form_regression_rows():
    res = oracle.linear_terms_closed_form((1, 3, 2, 4), (3, 1))
    # the minus-alpha_3 row: eigenvalue difference -2 plus one bracket term
    row = res.matrix[res.rows.index((0, 0, -1))]
    by_col = {res.cols[j]: row[j] for j in range(len(res.cols))}
    assert by_col[(0, 0, -1)] == -2
    assert by_col[(0, -1, -1)] == -1
    assert sum(1 for v in by_col.values() if v != 0) == 2


def test_lowest_root_row_vanishes_for_peterson():
    """When the lowest root indexes a generator and the semisimple part is
    absent, that row of the Jacobian is zero."""
    res = oracle.jacobian_at_fixed_point((1, 2, 3, 4), (4,))
    theta_row = res.matrix[res.rows.index((-1, -1, -1))]
    assert all(v == 0 for v in theta_row)
    assert not res.is_smooth  # the identity flag of the Peterson variety


def test_identity_with_semisimple_regular_element():
    res = oracle.jacobian_at_fixed_point((1, 2, 3, 4), (1, 1, 1, 1))
    for i, eta in enumerate(res.rows):
        for j, gamma in enumerate(res.cols):
            if eta == gamma:
                assert res.matrix[i][j] != 0
            else:
                assert res.matrix[i][j] == 0
    assert res.is_smooth


def test_w0_always_smooth():
    for mu in [(2, 2), (3, 1), (4,), (1, 1, 1, 1), (2, 1, 1)]:
        n = sum(mu)
        res = oracle.jacobian_at_fixed_point(tuple(range(n, 0, -1)), mu)
        assert res.is_smooth


def test_shape_counts():
    for mu in [(2, 2), (3, 2), (1, 2, 2)]:
        n = sum(mu)
        res = oracle.jacobian_at_fixed_point(tuple(range(n, 0, -1)), mu)
        negatives = n * (n - 1) // 2
        assert len(res.cols) == negatives
        assert len(res.rows) == negatives - (n - 1)


def test_rejects_inadmissible_and_oversize():
    with pytest.raises(DomainError):
        oracle.jacobian_at_fixed_point((3, 2, 4, 1), (2, 2))
    with pytest.raises(DomainError, match="does not lie in the variety"):
        oracle.linear_terms_closed_form((3, 2, 4, 1), (2, 2))
    # n = 7 answers, and w0's fixed point is smooth, as the Levi route
    # finds; n = 127 is refused, its root table being over the bound
    res = oracle.jacobian_at_fixed_point(tuple(range(7, 0, -1)), (7,))
    assert (res.verdict, res.rank, len(res.rows), len(res.cols)) == ("smooth", 15, 15, 21)
    cfg = hess.config_from_mu((7,))
    w0 = from_one_line(cfg.rs, tuple(range(7, 0, -1)))
    assert singular.hess_fixed_point_smooth(w0, cfg).is_smooth
    assert matrix_admissible(tuple(range(1, 8)), (7,))
    with pytest.raises(EnumerationBoundError, match="root table"):
        matrix_admissible(tuple(range(1, 128)), (127,))


def assert_rows_are_zero_free(res):
    """Each stored row holds only nonzero values, at strictly increasing
    columns: both fills drop a zero as it arises."""
    for row in res.sparse_rows:
        assert all(x != 0 for _, x in row), row
        assert all(a < b for (a, _), (b, _) in zip(row, row[1:])), row


@pytest.mark.parametrize("n", range(2, 6))
def test_dual_path_identity(n):
    """The commutator and the assembled closed form agree entrywise."""
    for mu in compositions(n):
        cfg = hess.config_from_mu(mu)
        for w, _, _ in hess.enumerate_admissible(cfg):
            conj = oracle.jacobian_at_fixed_point(w, mu)
            closed = oracle.linear_terms_closed_form(w, mu)
            assert conj.rows == closed.rows and conj.cols == closed.cols
            assert conj.matrix == closed.matrix
            assert_rows_are_zero_free(conj)
            assert_rows_are_zero_free(closed)


def test_s_assignment_independence():
    for mu in [(2, 2), (3, 1), (2, 1, 1)]:
        cfg = hess.config_from_mu(mu)
        alt = regular_at(mu, range(10, 10 + len(mu)))
        for w, _, _ in hess.enumerate_admissible(cfg):
            a = oracle.jacobian_at_fixed_point(w, mu)
            b = jacobian_at(w, mu, alt)
            assert a.verdict == b.verdict and a.rank == b.rank


@pytest.mark.parametrize("n", range(2, 6))
def test_oracle_agrees_with_combinatorial_routes(n):
    for mu in compositions(n):
        cfg = hess.config_from_mu(mu)
        for w, _, _ in hess.enumerate_admissible(cfg):
            res = oracle.jacobian_at_fixed_point(w, mu)
            assert res.verdict == singular.hess_fixed_point_smooth(w, cfg).verdict
            assert res.verdict == singular.typeA_fixed_point_smooth(w, mu).verdict


# -- admissibility through matrices ---------------------------------------------


def test_admissibility_matrix_examples():
    assert matrix_admissible((3, 4, 2, 1), (2, 2))
    assert not matrix_admissible((3, 2, 4, 1), (2, 2))
    assert matrix_admissible((1, 2, 3, 4), (2, 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_admissibility_matrix_matches_root_test(n):
    for mu in compositions(n):
        cfg = hess.config_from_mu(mu)
        for perm in itertools.permutations(range(1, n + 1)):
            w = from_one_line(cfg.rs, perm)
            assert matrix_admissible(perm, mu) == hess.is_admissible(w, cfg)


def test_oracle_decides_membership_without_hess(monkeypatch):
    """With hess.is_admissible made to fail in every module that holds it,
    the Jacobians and the chart's membership test still answer inside
    the variety and refuse outside it: the oracle's membership tests are its
    own."""
    cases = []
    for mu in SAMPLE_MUS:
        cfg = hess.config_from_mu(mu)
        for perm in itertools.permutations(range(1, sum(mu) + 1)):
            cases.append((perm, mu, hess.is_admissible(from_one_line(cfg.rs, perm), cfg)))
    points = list(itertools.islice(seeded_cell_points(), 80))

    def refuse(*args):
        raise AssertionError("hess.is_admissible was consulted")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "minhess" and hasattr(module, "is_admissible"):
            monkeypatch.setattr(module, "is_admissible", refuse)
    assert sorted(set(inside for _, _, inside in cases)) == [False, True]
    for perm, mu, inside in cases:
        eye = [[int(i == j) for j in range(len(perm))] for i in range(len(perm))]
        assert matrix_admissible(perm, mu) == inside
        for build in (
            oracle.jacobian_at_fixed_point,
            oracle.linear_terms_closed_form,
            lambda w, mu: oracle.jacobian_at_cell_point(w, mu, eye),
        ):
            if inside:
                build(perm, mu)
            else:
                with pytest.raises(DomainError, match="does not lie in the variety"):
                    build(perm, mu)
    for w, mu, _, U, inside in points:
        if inside:
            oracle.jacobian_at_cell_point(w, mu, U)
        else:
            with pytest.raises(DomainError, match="translated point does not lie"):
                oracle.jacobian_at_cell_point(w, mu, U)


# -- cell points -----------------------------------------------------------------


def chart_translate(x12, x23):
    x12, x23 = Fraction(x12), Fraction(x23)
    return [
        [1, x12, x12 * x23 - Fraction(1, 2) * x23, 0],
        [0, 1, x23, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_cell_point_family():
    for x12 in (0, 1, -2):
        res0 = oracle.jacobian_at_cell_point((3, 2, 1, 4), (2, 2), chart_translate(x12, 0))
        res1 = oracle.jacobian_at_cell_point((3, 2, 1, 4), (2, 2), chart_translate(x12, 1))
        assert not res0.is_smooth
        assert res1.is_smooth
        assert res0.note and res1.note


def test_cell_point_identity_reduces_to_fixed_point():
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    at_cell = oracle.jacobian_at_cell_point((3, 2, 1, 4), (2, 2), eye)
    at_fixed = oracle.jacobian_at_fixed_point((3, 2, 1, 4), (2, 2))
    assert at_cell.matrix == at_fixed.matrix
    assert at_cell.verdict == at_fixed.verdict == "singular"


def test_cell_point_rejects_points_outside_variety():
    bad = [
        [1, 1, 7, 0],  # breaks the chart constraint on the (1,3) entry
        [0, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    with pytest.raises(DomainError):
        oracle.jacobian_at_cell_point((3, 2, 1, 4), (2, 2), bad)
    lower = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(DomainError):
        oracle.jacobian_at_cell_point((3, 2, 1, 4), (2, 2), lower)
    for shape in ([[1, 0], [0, 1]], [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]):
        with pytest.raises(DomainError, match="wrong shape"):
            oracle.jacobian_at_cell_point((3, 2, 1, 4), (2, 2), shape)


def inverse(A):
    """Fraction Gauss-Jordan inverse of an invertible matrix."""
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def seeded_cell_points():
    """Four seeded random translates U for every admissible (w, mu) with
    n <= 4, with X and whether the point lies in the variety: (U P)^-1 X
    (U P) stays in the Hessenberg space."""
    rng = random.Random(5)
    for n in range(2, 5):
        for mu in compositions(n):
            X = oracle.regular_matrix(mu)
            for w, _, _ in hess.enumerate_admissible(hess.config_from_mu(mu)):
                line = one_line(w)
                P = [[Fraction(int(r == line[c] - 1)) for c in range(n)] for r in range(n)]
                for _ in range(4):
                    U = unipotent(n, {
                        (i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
                    })
                    g = matmul(U, P)
                    moved = matmul(matmul(inverse(g), X), g)
                    inside = all(moved[i][j] == 0 for i in range(n) for j in range(i - 1))
                    yield w, mu, X, U, inside


def test_cell_points_agree_with_exact_conjugation():
    """At the seeded cell points the point is refused exactly when it leaves
    the variety, and otherwise each column of the Jacobian is a linear term
    of conjugating U^-1 X U."""
    seen = {True: 0, False: 0}
    for w, mu, X, U, inside in seeded_cell_points():
        seen[inside] += 1
        if not inside:
            with pytest.raises(DomainError, match="does not lie in the variety"):
                oracle.jacobian_at_cell_point(w, mu, U)
            continue
        res = oracle.jacobian_at_cell_point(w, mu, U)
        assert res.note == oracle.CELL_POINT_NOTE
        assert_rows_are_zero_free(res)
        assert_columns_are_linear_terms(res, matmul(matmul(inverse(U), X), U))
    assert min(seen.values()) >= 100, seen


def test_rank_of_int_rows_equals_rank_of_the_same_rows_as_fractions():
    """Seeded integer rows, with rows that are integer combinations of
    earlier ones, ranked as ints, as Fractions, and with each entry drawn
    as either; rows scaled by a rational must rank the same too."""
    rng = random.Random(19)
    for _ in range(300):
        ncols = rng.randint(1, 12)
        rows = [
            [rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(ncols)]
            for _ in range(rng.randint(0, 8))
        ]
        for _ in range(rng.randint(0, 3) if rows else 0):
            picks = [(rng.choice(rows), rng.randint(-3, 3)) for _ in range(2)]
            rows.append([sum(c * row[j] for row, c in picks) for j in range(ncols)])
        rng.shuffle(rows)
        expect = gauss_jordan_rank(rows)
        as_fractions = [[Fraction(x) for x in row] for row in rows]
        mixed = [[rng.choice([x, Fraction(x)]) for x in row] for row in rows]
        scaled = [[Fraction(x, d) for x in row] for row, d in zip(rows, itertools.count(2))]
        for form in (rows, as_fractions, mixed, scaled):
            assert oracle.rank(sparse(form)) == expect


def test_rank_helper():
    assert oracle.rank(sparse([])) == 0
    assert oracle.rank(sparse([[Fraction(0), Fraction(0)]])) == 0
    m = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert oracle.rank(sparse(m)) == 2


def test_rank_of_explicit_zeros_and_empty_rows():
    """An explicit zero value counts as absent, and an empty row, or one
    holding only zeros, adds nothing to the rank."""
    one, zero = Fraction(1), Fraction(0)
    assert oracle.rank([(), ()]) == 0
    assert oracle.rank([((0, zero), (2, zero))]) == 0
    assert oracle.rank([(), ((3, one),), ()]) == 1
    # the zero at column 0 must not be taken as the pivot
    assert oracle.rank([((0, zero), (1, one)), ((0, one), (1, one))]) == 2
    assert oracle.rank([((0, zero), (1, Fraction(1, 2))), ((1, Fraction(-3)),), ()]) == 1


def test_the_closed_form_takes_the_conjugations_rank(monkeypatch):
    """The memo holds one matrix.  With it cleared, the conjugation
    Jacobian and then the closed form at one point run one elimination
    between them; a different matrix next is ranked afresh, and so is the
    first one after it."""
    assert oracle._stored_rank.cache_info().maxsize == 1
    calls = []
    eliminate = oracle.rank

    def counted(rows):
        calls.append(rows)
        return eliminate(rows)

    oracle._stored_rank.cache_clear()
    monkeypatch.setattr(oracle, "rank", counted)
    conj = oracle.jacobian_at_fixed_point((3, 4, 2, 1), (2, 2))
    closed = oracle.linear_terms_closed_form((3, 4, 2, 1), (2, 2))
    assert len(calls) == 1
    assert closed.sparse_rows == conj.sparse_rows and closed.rank == conj.rank
    other = oracle.jacobian_at_fixed_point((3, 4, 1, 2), (2, 2))
    assert other.sparse_rows != conj.sparse_rows
    assert len(calls) == 2
    assert other.rank == gauss_jordan_rank(other.matrix)
    assert oracle.jacobian_at_fixed_point((3, 4, 2, 1), (2, 2)).rank == conj.rank
    assert len(calls) == 3


def test_one_chart_per_point_caches_no_refusal():
    """The chart memo holds one chart.  A point outside the variety is
    refused by both fixed-point routes on every call, with its chart
    cached; an admissible point after it gets the Jacobian it gets with the
    memo cleared."""
    assert oracle._chart_at.cache_info().maxsize == 1
    inside, outside, mu = (3, 4, 2, 1), (3, 2, 4, 1), (2, 2)
    routes = (oracle.jacobian_at_fixed_point, oracle.linear_terms_closed_form)
    first = [route(inside, mu) for route in routes]
    for _ in range(3):
        for route in routes:
            with pytest.raises(DomainError, match="does not lie in the variety"):
                route(outside, mu)
    again = [route(inside, mu) for route in routes]
    oracle._chart_at.cache_clear()
    cleared = [route(inside, mu) for route in routes]
    assert again == cleared == first


def test_the_row_tables_hide_no_planted_defect(monkeypatch):
    """With the structure constant negated and the per-composition tables
    rebuilt, the cross-validation's dual-path check fails; with it restored
    and the tables rebuilt again, the check passes."""
    def dual_path():
        (check,) = (
            c for c in verification.suite_cross_validate(4) if c.name == "jacobian-dual-path"
        )
        return check.ok

    constant = oracle._structure_constant
    try:
        monkeypatch.setattr(oracle, "_structure_constant", lambda *args: -constant(*args))
        oracle._row_tables.cache_clear()
        assert not dual_path()
    finally:
        monkeypatch.undo()
        oracle._row_tables.cache_clear()
    assert dual_path()
