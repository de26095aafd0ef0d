"""Class formulas: regression against the worked example, factored
consistency between the Levi form and the global form, and expansion
properties."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from minhess import classes, hess, roots
from minhess.errors import DomainError, EnumerationBoundError
from minhess.roots import build_root_system, negate, root_key
from minhess.weyl import WeylElement, compositions, from_one_line, longest_element
from references import support


def test_class_3421_factors_and_scalar():
    cfg = hess.config_from_mu((2, 2))
    w = from_one_line(cfg.rs, (3, 4, 2, 1))
    expr = classes.hess_schubert_class(w, cfg)
    assert expr.scalar == Fraction(1, 4)
    assert set(expr.factor_roots) == {
        (-1, 0, 0),
        (-1, -1, 0),
        (-1, -1, -1),
        (0, -1, -1),
    }


def test_class_w0_and_identity():
    cfg = hess.config_from_mu((2, 2))
    rs = cfg.rs
    w0 = longest_element(rs, [1, 2, 3])
    expr = classes.hess_schubert_class(w0, cfg)
    assert expr.scalar == 1
    simples = {negate(rs.simple_root(i)) for i in (1, 2, 3)}
    assert set(expr.factor_roots) == set(rs.root_list[rs.npos:]) - simples
    e = WeylElement.identity(rs)
    expr = classes.hess_schubert_class(e, cfg)
    assert expr.scalar == Fraction(1, 24)
    assert set(expr.factor_roots) == set(rs.root_list[rs.npos:])


def test_class_requires_admissible():
    cfg = hess.config_from_mu((2, 2))
    with pytest.raises(DomainError):
        classes.hess_schubert_class(from_one_line(cfg.rs, (3, 2, 4, 1)), cfg)


def value(poly, point):
    """The expanded polynomial at an integer point."""
    return sum(c * prod(x**e for x, e in zip(point, m)) for m, c in poly.coeffs)


def test_expand_3421_matches_reference():
    cfg = hess.config_from_mu((2, 2))
    w = from_one_line(cfg.rs, (3, 4, 2, 1))
    poly = classes.expand_typeA(classes.hess_schubert_class(w, cfg), cfg.rs)
    assert {sum(m) for m, _ in poly.coeffs} == {4}  # homogeneous of degree 4
    # degree < 5 in each variable, so the values on {0..4}^4 fix the polynomial
    for p in itertools.product(range(5), repeat=4):
        ref = Fraction((p[0] - p[1]) * (p[0] - p[2]) * (p[0] - p[3]) * (p[1] - p[3]), 4)
        assert value(poly, p) == ref


def test_expand_equals_the_factored_class_at_seeded_points():
    """Every admissible class with n <= 4, at seeded integer points: a
    negative root -(eps_i - eps_j), i < j, has -1 at simple indices
    i..j - 1 and stands for x_i - x_j."""
    rng = random.Random(0)
    checked = 0
    for n in range(2, 5):
        for mu in compositions(n):
            cfg = hess.config_from_mu(mu)
            for w, _, _ in hess.enumerate_admissible(cfg):
                expr = classes.hess_schubert_class(w, cfg)
                poly = classes.expand_typeA(expr, cfg.rs)
                pairs = [(min(support(r)), max(support(r)) + 1) for r in expr.factor_roots]
                for _ in range(3):
                    x = [rng.randint(-50, 50) for _ in range(n)]
                    ref = expr.scalar * prod(x[i - 1] - x[j - 1] for i, j in pairs)
                    assert value(poly, x) == ref
                checked += 1
    assert checked == 148


def test_expand_edge_cases():
    rs = build_root_system("A", 1)
    single = classes.ClassExpression(
        Fraction(1, 2), ((-1,),), classes.COHOMOLOGY
    )
    poly = classes.expand_typeA(single, rs)
    assert dict(poly.coeffs) == {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2)}
    empty = classes.ClassExpression(Fraction(3, 7), (), classes.COHOMOLOGY)
    assert dict(classes.expand_typeA(empty, rs).coeffs) == {(0, 0): Fraction(3, 7)}
    ktheory = classes.ClassExpression(Fraction(1), (), classes.K_THEORY)
    with pytest.raises(DomainError):
        classes.expand_typeA(ktheory, rs)
    with pytest.raises(DomainError):
        classes.expand_typeA(empty, build_root_system("B", 2))


def test_levi_flag_class_examples():
    cfg = hess.config_from_mu((2, 2))
    rs = cfg.rs
    full = classes.levi_flag_class([1, 2, 3], rs)
    assert full.scalar == 1 and not full.factor_roots
    empty = classes.levi_flag_class([], rs)
    assert empty.scalar == Fraction(1, 24)
    assert set(empty.factor_roots) == set(rs.root_list[rs.npos:])
    lv = classes.levi_flag_class([2, 3], rs)
    assert lv.scalar == Fraction(1, 4)
    assert set(lv.factor_roots) == {(-1, 0, 0), (-1, -1, 0), (-1, -1, -1)}


def test_peterson_dual_class_examples():
    a2 = build_root_system("A", 2)
    expr = classes.peterson_dual_class([1], a2)
    assert expr.scalar == Fraction(1, 3)
    assert expr.factor_roots == ((0, -1),)
    full = classes.peterson_dual_class([1, 2], a2)
    assert full.scalar == 1 and not full.factor_roots
    bottom = classes.peterson_dual_class([], a2)
    assert bottom.scalar == Fraction(1, 6)
    assert set(bottom.factor_roots) == {(-1, 0), (0, -1)}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_factored_consistency_identity(family, rank):
    """The global product splits as the Levi flag class times the factors
    supported inside the descent parabolic."""
    rs = build_root_system(family, rank)
    for size in range(rank + 1):
        for J in itertools.combinations(range(1, rank + 1), size):
            cfg = hess.hess_config(rs, J)
            for w, _, _ in hess.enumerate_admissible(cfg):
                expr = classes.hess_schubert_class(w, cfg)
                des = w.descents()
                levi = classes.levi_flag_class(des, rs)
                inside = sorted(
                    (
                        negate(r)
                        for r in rs.positive_roots
                        if support(r) <= des and sum(r) > 1
                    ),
                    key=root_key,
                )
                assert expr.scalar == levi.scalar
                assert sorted(expr.factor_roots, key=root_key) == sorted(
                    levi.factor_roots + tuple(inside), key=root_key
                )
                assert 0 < expr.scalar <= 1
                assert (expr.scalar == 1) == (des == frozenset(range(1, rank + 1)))
                assert len(expr.factor_roots) == len(rs.positive_roots) - len(des)


def test_expand_symmetry_under_diagram_flip():
    """Conjugating by the order-reversing symmetry permutes the Chern roots
    x_i -> -x_{n+1-i}; the expanded class transforms accordingly."""
    cfg = hess.config_from_mu((2, 2))
    rs = cfg.rs
    n = 4
    for w, _, _ in hess.enumerate_admissible(cfg):
        expr = classes.hess_schubert_class(w, cfg)
        poly = classes.expand_typeA(expr, rs)
        w0 = longest_element(rs, [1, 2, 3])
        flipped = w0 * w * w0
        if not hess.is_admissible(flipped, cfg):
            continue
        poly2 = classes.expand_typeA(
            classes.hess_schubert_class(flipped, cfg), rs
        )
        # substitute x_i -> -x_{n+1-i} in poly and compare
        transformed = {}
        for mono, c in poly.coeffs:
            new_mono = tuple(reversed(mono))
            sign = (-1) ** sum(mono)
            transformed[new_mono] = transformed.get(new_mono, Fraction(0)) + sign * c
        assert {m: c for m, c in poly2.coeffs} == {
            m: c for m, c in transformed.items() if c
        }


def test_expansion_refuses_a_running_table_past_the_bound(monkeypatch):
    """The running table of terms is checked after each factor: with the
    bound at 800, the identity at mu = (6), whose table peaks at 840 terms
    before its 720 = 6! end, is refused, and mu = (5), 120 terms, answers."""
    monkeypatch.setattr(roots, "DEFAULT_ENUMERATION_BOUND", 800)

    def identity_expansion(n):
        cfg = hess.config_from_mu((n,))
        expr = classes.hess_schubert_class(WeylElement.identity(cfg.rs), cfg)
        return classes.expand_typeA(expr, cfg.rs)

    assert len(identity_expansion(5).coeffs) == 120
    with pytest.raises(EnumerationBoundError, match="^A5 Chern expansion: 840 entries exceed"):
        identity_expansion(6)
