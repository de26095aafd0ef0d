"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line so the suite
doubles as a checklist (run with ``pytest -s tests/test_acceptance.py``).
Expected values are frozen here: table data from the worked examples,
counts from independent recurrences, and matrices from the documented
deterministic root order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from minhess import classes, hess, oracle, singular, verification
from minhess.roots import build_root_system, cartan_datum, negate, parabolic, root_key
from minhess.weyl import (
    Composition,
    WeylElement,
    compositions,
    enumerate_min_reps,
    from_one_line,
    longest_element,
    one_line,
    one_line_str,
)
from references import support


def report(number: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@lru_cache(maxsize=1)
def smoothness_sweep(top_n: int = 5):
    """Shared exhaustive sweep: per admissible (w, mu), the three verdicts
    and whether the two Jacobian constructions agreed entrywise."""
    rows = []
    for n in range(2, top_n + 1):
        for mu in compositions(n):
            cfg = hess.config_from_mu(mu)
            for w, _, _ in hess.enumerate_admissible(cfg):
                general = singular.hess_fixed_point_smooth(w, cfg).verdict
                pattern = singular.typeA_fixed_point_smooth(w, mu).verdict
                jet = oracle.jacobian_at_fixed_point(w, mu)
                closed = oracle.linear_terms_closed_form(w, mu)
                dual_ok = (
                    jet.rows == closed.rows
                    and jet.cols == closed.cols
                    and jet.matrix == closed.matrix
                )
                rows.append((mu, one_line(w), general, pattern, jet.verdict, dual_ok))
    return rows


def test_criterion_01_delta_v_tables():
    cfg = hess.config_from_mu((2, 2))
    expected_a3 = {
        "1234": {1, 3},
        "1324": set(),
        "3124": {1},
        "1342": {3},
        "3142": set(),
        "3412": {1, 3},
    }
    got_a3 = {
        one_line_str(v): set(hess.delta_v(v, cfg))
        for v in enumerate_min_reps(cfg.rs, cfg.J)
    }
    ok = got_a3 == expected_a3

    b4 = build_root_system("B", 4)
    cfgB = hess.hess_config(b4, [1, 2, 4])
    v0 = longest_element(b4, [1, 2, 4]) * longest_element(b4, [1, 2, 3, 4])
    b4_table = [
        ([], {1, 2, 4}),
        ([3], {1}),
        ([3, 4], {1}),
        ([3, 2], {2}),
        ([3, 4, 3], {1, 4}),
        ([3, 2, 1], {1, 2}),
    ]
    for word, expect in b4_table:
        ok = ok and set(hess.delta_v(WeylElement.from_word(b4, word), cfgB)) == expect
    ok = ok and set(hess.delta_v(v0, cfgB)) == {1, 2, 4}
    reps = list(enumerate_min_reps(b4, cfgB.J))
    ok = ok and len(reps) == 32 and v0 in reps and v0.length() == max(v.length() for v in reps)
    report(1, "coset tables", ok)


def test_criterion_02_decomposition_tables():
    b4 = build_root_system("B", 4)
    cfgB = hess.hess_config(b4, [1, 2, 4])
    ok = True

    d = hess.decompose_admissible(WeylElement.from_word(b4, [1, 3, 4]), cfgB)
    ok = ok and d.K == frozenset({1}) and d.v == WeylElement.from_word(b4, [3, 4])
    ok = ok and d.des == frozenset({1, 4}) and d.y_des == WeylElement.from_word(b4, [1, 4])
    ok = ok and d.tau == WeylElement.from_word(b4, [3]) and d.Jw == frozenset({1})

    w = WeylElement.from_word(b4, [1, 2, 1, 3, 2, 1])
    d = hess.decompose_admissible(w, cfgB)
    ok = ok and d.K == frozenset({1, 2}) and d.v == WeylElement.from_word(b4, [3, 2, 1])
    ok = ok and d.des == frozenset({1, 2, 3}) and d.y_des == w
    ok = ok and d.tau == WeylElement.identity(b4) and d.Jw == frozenset({1, 2})

    cfg = hess.config_from_mu((2, 2))
    rs = cfg.rs
    flags = {
        "3421": True, "3241": False, "3412": True,
        "3214": True, "3142": True, "3124": True,
    }
    for line, expect in flags.items():
        w = from_one_line(rs, tuple(int(c) for c in line))
        ok = ok and hess.is_admissible(w, cfg) == expect
    cells = hess.closure_intersecting_cells(from_one_line(rs, (3, 4, 2, 1)), cfg)
    x_by_v = {one_line_str(c.v): one_line_str(c.x) for c in cells}
    ok = ok and x_by_v == {
        "3421": "1432",
        "3412": "1423",
        "3214": "1324",
        "3142": "1243",
        "3124": "1234",
    }
    report(2, "decomposition tables", ok)


def test_criterion_03_smoothness_triple_cross_validation():
    rows = smoothness_sweep()
    ok = all(general == pattern == jet for _, _, general, pattern, jet, _ in rows)
    ok = ok and len(rows) == 1080
    report(3, "smoothness triple cross-validation", ok)


def test_criterion_04_jacobian_regression():
    res = oracle.jacobian_at_fixed_point((1, 3, 2, 4), (3, 1))
    named = {
        ((0, 0, -1), (0, 0, -1)): Fraction(-2),
        ((0, 0, -1), (0, -1, -1)): Fraction(-1),
        ((-1, -1, -1), (-1, -1, -1)): Fraction(-2),
        ((-1, 0, 0), (-1, -1, 0)): Fraction(1),
    }
    ok = len(res.rows) == 3 and len(res.cols) == 6
    for i, row_root in enumerate(res.rows):
        for j, col_root in enumerate(res.cols):
            ok = ok and res.matrix[i][j] == named.get((row_root, col_root), 0)
    ok = ok and res.rank == 3 and res.is_smooth
    report(4, "jacobian regression", ok)


def test_criterion_05_counting():
    ok = singular.count_smooth_flags((4, 3, 1)) == 54
    for n in range(2, 7):
        for mu in compositions(n):
            cfg = hess.config_from_mu(mu)
            enumerated = sum(
                1
                for w, _, _ in hess.enumerate_admissible(cfg)
                if singular.typeA_fixed_point_smooth(w, mu).is_smooth
            )
            ok = ok and enumerated == singular.count_smooth_flags(mu)
    report(5, "smooth flag counting", ok)


def test_criterion_06_specific_flags():
    cases = [
        ((5, 6, 4, 3, 2, 1), (4, 2), "smooth"),
        ((6, 5, 1, 3, 2, 4), (4, 2), "singular"),
        ((5, 2, 1, 6, 3, 4), (4, 2), "singular"),
        ((7, 6, 5, 8, 2, 1, 4, 3), (4, 3, 1), "singular"),
        ((5, 6, 7, 8, 3, 2, 1, 4), (4, 3, 1), "singular"),
        ((7, 6, 5, 8, 3, 2, 1, 4), (4, 3, 1), "smooth"),
    ]
    ok = all(
        singular.typeA_fixed_point_smooth(line, mu).verdict == expect
        for line, mu, expect in cases
    )
    report(6, "specific flags", ok)


def test_criterion_07_cominuscule_consistency():
    families = [
        ("A", range(1, 9)),
        ("B", range(2, 9)),
        ("C", range(2, 9)),
        ("D", range(4, 9)),
        ("E", (6, 7, 8)),
        ("F", (4,)),
        ("G", (2,)),
    ]
    ok = True
    e8_subsets = 0
    for family, ranks in families:
        for rank in ranks:
            datum = cartan_datum(family, rank)
            theta = build_root_system(family, rank).highest_root
            for size in range(rank):
                for K in itertools.combinations(range(1, rank + 1), size):
                    if (family, rank) == ("E", 8):
                        e8_subsets += 1
                    lands = singular.cominuscule_check(datum, K)
                    missing = set(range(1, rank + 1)) - set(K)
                    node = len(missing) == 1 and theta[missing.pop() - 1] == 1
                    star2 = singular.w_star_star_member(datum, K)
                    ok = ok and lands == node and lands != star2
    ok = ok and e8_subsets == 255  # all proper subsets, no group enumeration
    report(7, "cominuscule consistency", ok)


def test_criterion_08_shared_linear_table():
    reps = [("A", r) for r in (3, 4, 5, 6)]
    reps += [("C", r) for r in (3, 4, 5)]
    reps += [("D", r) for r in (4, 5, 6)]
    reps += [("E", 6), ("E", 7)]
    ok = True
    for family, rank in reps:
        for row in singular.verify_shared_linear_table(family, rank):
            if (family, rank, row.beta) == ("D", 4, 3):
                # documented defect: at rank 4 the generic witness of this
                # row lands inside the parabolic.  The row's claim survives
                # via the symmetric witness, checked below; everything else
                # about the instance must still hold.
                failing = [name for name, flag in row.checks if not flag]
                ok = ok and failing == ["eta2_in_range"]
            else:
                ok = ok and row.ok
    rs = build_root_system("D", 4)
    theta = rs.highest_root
    gamma = tuple(s - t for t, s in zip(theta, rs.simple_root(2)))
    K = {1, 2, 4}
    for alpha, other in ((1, (2, 3, 4)), (4, (2, 3, 1))):
        eta = tuple(g + s for g, s in zip(gamma, rs.simple_root(alpha)))
        ok = ok and eta in rs.roots and not support(eta) <= K
        ok = ok and eta != negate(theta)
        ok = ok and all(
            tuple(e - s for e, s in zip(eta, rs.simple_root(i))) not in rs.roots
            for i in other
        )
    report(8, "shared linear-term table", ok)


def test_criterion_09_class_regression():
    cfg = hess.config_from_mu((2, 2))
    w = from_one_line(cfg.rs, (3, 4, 2, 1))
    poly = classes.expand_typeA(classes.hess_schubert_class(w, cfg), cfg.rs)
    # degree < 5 in each variable, so the values on {0..4}^4 fix the polynomial
    ok = all(max(m) < 5 for m, _ in poly.coeffs) and all(
        sum(c * prod(x**e for x, e in zip(p, m)) for m, c in poly.coeffs)
        == Fraction((p[0] - p[1]) * (p[0] - p[2]) * (p[0] - p[3]) * (p[1] - p[3]), 4)
        for p in itertools.product(range(5), repeat=4)
    )

    for family, rank in [("A", 3), ("A", 4), ("B", 3), ("C", 3), ("B", 4), ("D", 4), ("G", 2), ("F", 4)]:
        rs = build_root_system(family, rank)
        for size in range(rank + 1):
            for J in itertools.combinations(range(1, rank + 1), size):
                cfgJ = hess.hess_config(rs, J)
                for v, _, _ in hess.enumerate_admissible(cfgJ):
                    expr = classes.hess_schubert_class(v, cfgJ)
                    des = v.descents()
                    levi = classes.levi_flag_class(des, rs)
                    inside = tuple(
                        negate(r)
                        for r in rs.positive_roots
                        if support(r) <= des and sum(r) > 1
                    )
                    ok = ok and expr.scalar == levi.scalar
                    ok = ok and sorted(expr.factor_roots, key=root_key) == sorted(
                        levi.factor_roots + inside, key=root_key
                    )
    report(9, "class regression", ok)


def test_criterion_10_cell_point_oracle():
    ok = True
    for x12 in (0, 1, -2):
        for x23, expect in ((0, "singular"), (1, "smooth")):
            x12f, x23f = Fraction(x12), Fraction(x23)
            u1 = [
                [1, x12f, x12f * x23f - Fraction(1, 2) * x23f, 0],
                [0, 1, x23f, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ]
            res = oracle.jacobian_at_cell_point((3, 2, 1, 4), (2, 2), u1)
            ok = ok and res.verdict == expect
    report(10, "cell-point oracle", ok)


def test_criterion_11_hess_schubert_smoothness():
    b4 = build_root_system("B", 4)
    cfgB = hess.hess_config(b4, [1, 2, 4])
    ok = singular.hess_schubert_smooth(
        WeylElement.from_word(b4, [1, 3, 4]), cfgB
    ).is_smooth
    ok = ok and not singular.hess_schubert_smooth(
        WeylElement.from_word(b4, [1, 2, 1, 3, 2, 1]), cfgB
    ).is_smooth

    # the bracket criterion against its one-line form, and against the oracle
    # on the blocks of des(w) through the Levi correspondence
    verdicts, levi_verdicts = set(), {}
    for n in range(2, 6):
        for mu in compositions(n):
            cfg = hess.config_from_mu(mu)
            for w, _, _ in hess.enumerate_admissible(cfg):
                bracket = singular.hess_schubert_smooth(w, cfg)
                verdicts.add(bracket.verdict)
                ok = ok and (
                    bracket.verdict == singular.typeA_hess_schubert_smooth(w, mu).verdict
                    and bracket.is_smooth
                    == verification._levi_oracle_smooth(one_line(w), mu, levi_verdicts)
                )
    ok = ok and verdicts == {"smooth", "singular"}

    final_rows = [
        ((8, 1, 2, 3, 5, 6, 7, 4), "smooth"),
        ((8, 2, 1, 3, 5, 6, 7, 4), "singular"),
        ((8, 1, 3, 2, 5, 6, 7, 4), "smooth"),
        ((8, 3, 2, 1, 5, 6, 7, 4), "singular"),
        ((8, 1, 3, 2, 6, 5, 7, 4), "smooth"),
    ]
    for line, expect in final_rows:
        ok = ok and singular.typeA_hess_schubert_smooth(line, (4, 3, 1)).verdict == expect
    report(11, "hessenberg-schubert smoothness", ok)


def test_criterion_12_structural_properties():
    ok = True
    for n in range(2, 7):
        rs = build_root_system("A", n - 1)
        peterson = hess.poincare_polynomial(hess.hess_config(rs, range(1, n)))
        ok = ok and list(peterson) == [comb(n - 1, k) for k in range(n)]
    # Eulerian rows from the standard recurrence, independent of the package
    rows = {1: [1]}
    for n in range(2, 7):
        prev = rows[n - 1]
        rows[n] = [
            (k + 1) * (prev[k] if k < len(prev) else 0)
            + (n - k) * (prev[k - 1] if k >= 1 else 0)
            for k in range(n)
        ]
        rs = build_root_system("A", n - 1)
        toric = hess.poincare_polynomial(hess.hess_config(rs, []))
        ok = ok and list(toric) == rows[n]
    ok = ok and all(dual for *_, dual in smoothness_sweep())
    report(12, "structural properties", ok)
