"""Admissibility, decompositions, closure relations and cell counts,
including exhaustive consistency sweeps in small rank."""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from math import comb

import pytest

from minhess.errors import DomainError, EnumerationBoundError
from minhess import classes, hess, oracle, singular
from minhess.roots import build_root_system
from minhess.weyl import (
    Composition,
    WeylElement,
    compositions,
    enumerate_min_reps,
    from_one_line,
    longest_element,
    min_right_coset_rep,
    one_line,
    one_line_str,
)
from references import in_closure


def a3_22():
    return hess.config_from_mu((2, 2))


def test_admissibility_examples():
    cfg = a3_22()
    rs = cfg.rs
    assert hess.is_admissible(from_one_line(rs, (3, 4, 2, 1)), cfg)
    assert not hess.is_admissible(from_one_line(rs, (3, 2, 4, 1)), cfg)
    assert hess.is_admissible(WeylElement.identity(rs), cfg)


def test_delta_v_tables():
    cfg = a3_22()
    expected = {
        "1234": {1, 3},
        "1324": set(),
        "3124": {1},
        "1342": {3},
        "3142": set(),
        "3412": {1, 3},
    }
    for v in enumerate_min_reps(cfg.rs, cfg.J):
        assert set(hess.delta_v(v, cfg)) == expected[one_line_str(v)]
    b4 = build_root_system("B", 4)
    cfgB = hess.hess_config(b4, [1, 2, 4])
    table = [
        ([], {1, 2, 4}),
        ([3], {1}),
        ([3, 4], {1}),
        ([3, 2], {2}),
        ([3, 4, 3], {1, 4}),
        ([3, 2, 1], {1, 2}),
    ]
    for word, expect in table:
        assert set(hess.delta_v(WeylElement.from_word(b4, word), cfgB)) == expect
    v0 = longest_element(b4, [1, 2, 4]) * longest_element(b4, [1, 2, 3, 4])
    assert set(hess.delta_v(v0, cfgB)) == {1, 2, 4}
    # rejects non-minimal representatives
    with pytest.raises(DomainError):
        hess.delta_v(WeylElement.from_word(b4, [1]), cfgB)


def test_delta_v_identity_is_J():
    b4 = build_root_system("B", 4)
    for J in [(), (2,), (1, 3), (1, 2, 4), (1, 2, 3, 4)]:
        cfg = hess.hess_config(b4, J)
        assert hess.delta_v(WeylElement.identity(b4), cfg) == frozenset(J)


def test_decompose_b4_rows():
    b4 = build_root_system("B", 4)
    cfg = hess.hess_config(b4, [1, 2, 4])
    d = hess.decompose_admissible(WeylElement.from_word(b4, [1, 3, 4]), cfg)
    assert sorted(d.K) == [1]
    assert d.v == WeylElement.from_word(b4, [3, 4])
    assert sorted(d.des) == [1, 4]
    assert d.y_des == WeylElement.from_word(b4, [1, 4])
    assert d.tau == WeylElement.from_word(b4, [3])
    assert sorted(d.Jw) == [1]
    assert d.levi_components == (((1,), "A1"), ((4,), "A1"))

    w = WeylElement.from_word(b4, [1, 2, 1, 3, 2, 1])
    d = hess.decompose_admissible(w, cfg)
    assert sorted(d.K) == [1, 2]
    assert d.v == WeylElement.from_word(b4, [3, 2, 1])
    assert sorted(d.des) == [1, 2, 3]
    assert d.y_des == w
    assert d.tau == WeylElement.identity(b4)
    assert sorted(d.Jw) == [1, 2]
    assert d.levi_components == (((1, 2, 3), "A3"),)


def test_decompose_identity_and_rejection():
    cfg = a3_22()
    d = hess.decompose_admissible(WeylElement.identity(cfg.rs), cfg)
    e = WeylElement.identity(cfg.rs)
    assert not d.K and d.v == e and d.tau == e and not d.des
    with pytest.raises(DomainError):
        hess.decompose_admissible(from_one_line(cfg.rs, (3, 2, 4, 1)), cfg)


def test_cell_dimension():
    cfg = a3_22()
    w0 = longest_element(cfg.rs, [1, 2, 3])
    assert hess.decompose_admissible(w0, cfg).dimension == 3
    assert hess.decompose_admissible(WeylElement.identity(cfg.rs), cfg).dimension == 0
    assert hess.decompose_admissible(from_one_line(cfg.rs, (3, 4, 1, 2)), cfg).dimension == 1


def test_closure_cells_3421():
    cfg = a3_22()
    w = from_one_line(cfg.rs, (3, 4, 2, 1))
    cells = hess.closure_intersecting_cells(w, cfg)
    got = {one_line_str(c.v): (one_line_str(c.x), c.dim) for c in cells}
    assert got == {
        "3421": ("1432", 2),
        "3412": ("1423", 1),
        "3214": ("1324", 1),
        "3142": ("1243", 1),
        "3124": ("1234", 0),
    }
    dims = [c.dim for c in cells]
    assert dims == sorted(dims)


def test_closure_cells_b4():
    b4 = build_root_system("B", 4)
    cfg = hess.hess_config(b4, [1, 2, 4])
    w = WeylElement.from_word(b4, [1, 3, 4])
    cells = hess.closure_intersecting_cells(w, cfg)
    vs = {c.v for c in cells}
    for word in ([3, 1], [3, 4], [3]):
        assert WeylElement.from_word(b4, word) in vs


def assert_carry_canonical_words(elements):
    """Each element already holds its word, and that word is the one
    stripped afresh from the element's permutation."""
    for w in elements:
        assert w._word is not None
        assert w.word() == WeylElement(w.rs, w.perm).word()


def reference_closure(w, cfg):
    """The walk over the whole descent parabolic: tau_w x for every x in
    W_{des(w)} with tau_w x admissible, as (v, x, dim, x's word).  tau_w =
    w y_des is formed here, not taken from descent_decomposition, which
    closure_intersecting_cells runs through."""
    tau = w * longest_element(cfg.rs, w.descents())
    cells = [
        (tau * x, x, len(x.descents()), x.word())
        for x in enumerate_min_reps(cfg.rs, (), within=w.descents())
        if hess.is_admissible(tau * x, cfg)
    ]
    return sorted(cells, key=lambda c: (c[2], c[0].word()))


CLOSURE_CONFIGS = [
    ("A", n - 1, sorted(Composition(mu).to_J())) for n in range(2, 6) for mu in compositions(n)
]
CLOSURE_CONFIGS += [
    ("B", 4, [1, 2, 4]),
    ("C", 4, [1, 3]),
    ("D", 5, [1, 2, 4, 5]),
    ("F", 4, [1, 3]),
    ("G", 2, [1]),
    ("B", 3, [2, 3]),
    ("D", 4, [1, 3, 4]),
]


@pytest.mark.parametrize(
    "family,rank,J", CLOSURE_CONFIGS, ids=[f"{f}{r}-J{J}" for f, r, J in CLOSURE_CONFIGS]
)
def test_closure_matches_walk_over_descent_parabolic(family, rank, J):
    """The Levi enumeration gives the cells, x factors, dimensions and order
    of the walk over all of W_{des(w)}, for every admissible w."""
    cfg = hess.hess_config(build_root_system(family, rank), J)
    for w, _, _ in hess.enumerate_admissible(cfg):
        cells = hess.closure_intersecting_cells(w, cfg)
        assert [(c.v, c.x, c.dim, c.x.word()) for c in cells] == reference_closure(w, cfg)
        assert_carry_canonical_words(c.v for c in cells)
        assert_carry_canonical_words(c.x for c in cells)


def test_top_closure_is_the_whole_variety_e6():
    rs = build_root_system("E", 6)
    cfg = hess.hess_config(rs, [1, 3, 5])
    cells = hess.closure_intersecting_cells(longest_element(rs, range(1, 7)), cfg)
    assert len(cells) == 7920
    assert {c.v for c in cells} == {w for w, _, _ in hess.enumerate_admissible(cfg)}
    assert_carry_canonical_words(c.v for c in cells)
    assert_carry_canonical_words(c.x for c in cells)


# every J of these systems: w0's closure counted by its cells' dimensions
TOP_CLOSURE_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("B", 4), ("F", 4)]


def top_closure_poincare_mismatches():
    """The (family, rank, J) where the Sigma t^dim over the closure of w0's
    cell differs from poincare_polynomial.  With tau_w0 = e the closure is
    the whole variety, so both count the same cells, one by each closure
    cell's dim and one by binomials over the coset representatives."""
    bad = []
    for family, rank in TOP_CLOSURE_SYSTEMS:
        rs = build_root_system(family, rank)
        w0 = longest_element(rs, range(1, rank + 1))
        for size in range(rank + 1):
            for J in itertools.combinations(range(1, rank + 1), size):
                cfg = hess.hess_config(rs, J)
                dims = Counter(c.dim for c in hess.closure_intersecting_cells(w0, cfg))
                if tuple(dims[k] for k in range(max(dims) + 1)) != hess.poincare_polynomial(cfg):
                    bad.append((family, rank, J))
    return bad


def test_top_closure_dimensions_are_the_poincare_polynomial(monkeypatch):
    """Every J of the systems above agrees; with a closure cell's dimension
    planted as l(x) in place of |des(x)|, some J of every system fails."""
    assert top_closure_poincare_mismatches() == []
    cell = hess.ClosureCell
    monkeypatch.setattr(hess, "ClosureCell", lambda v, x, dim: cell(v, x, x.length()))
    failed = {(family, rank) for family, rank, _ in top_closure_poincare_mismatches()}
    assert failed == set(TOP_CLOSURE_SYSTEMS)


# the configurations of the benchmark's coset sweep
SWEEP_CONFIGS = [
    ("E", 6, [1, 3, 5]),
    ("C", 5, [2, 4]),
    ("A", 7, [1, 2, 3, 5, 6]),
    ("B", 5, [1, 3, 5]),
    ("D", 5, [1, 3, 5]),
    ("F", 4, [1, 3]),
    ("G", 2, [1]),
]


@pytest.mark.parametrize(
    "family,rank,J", SWEEP_CONFIGS, ids=[f"{f}{r}-J{J}" for f, r, J in SWEEP_CONFIGS]
)
def test_admissible_elements_carry_canonical_words(family, rank, J):
    """Every element carries its word, and the Poincare polynomial counts
    the elements by descents."""
    cfg = hess.hess_config(build_root_system(family, rank), J)
    elements = [w for w, _, _ in hess.enumerate_admissible(cfg)]
    assert_carry_canonical_words(elements)
    counts = Counter(len(w.descents()) for w in elements)
    assert hess.poincare_polynomial(cfg) == tuple(counts[k] for k in range(max(counts) + 1))


def test_interleaved_enumerations_keep_their_own_words():
    """The enumerations of every nonempty J of B4 and C4 (16 positive roots
    each) and of A3 and G2 (6 each), advanced in turn, then their top
    closures: every element gets its own word.  Some inversion set of root
    indices names one word in A3 and another in G2, so a table of words
    that outlived its call or crossed root systems would fail here."""
    cfgs = [
        hess.hess_config(rs, J)
        for rs in map(build_root_system, "BCAG", (4, 4, 3, 2))
        for size in range(1, rs.rank + 1)
        for J in itertools.combinations(range(1, rs.rank + 1), size)
    ]
    streams = [hess.enumerate_admissible(cfg) for cfg in cfgs]
    for row in itertools.zip_longest(*streams):
        assert_carry_canonical_words(w for w, _, _ in filter(None, row))
    for cfg in cfgs:
        w0 = longest_element(cfg.rs, range(1, cfg.rs.rank + 1))
        cells = hess.closure_intersecting_cells(w0, cfg)
        assert_carry_canonical_words(c.v for c in cells)
        assert_carry_canonical_words(c.x for c in cells)


def test_delta_v_tables_are_kept_per_root_system():
    """A3 and G2 share the masks of J = {1}, {2} and {1, 2}, but not their
    tables: G2's roots supported on {1, 2} are all six of its indices.
    Their enumerations for every nonempty J, advanced in turn from empty
    tables, with either system's tables built first, each yield for every v
    exactly the subsets K of Delta(v), the j in J with alpha_j = v(alpha_i)
    for some i, read here off the roots' coefficients."""
    a3, g2 = build_root_system("A", 3), build_root_system("G", 2)
    for systems in ((a3, g2), (g2, a3)):
        cfgs = [
            hess.hess_config(rs, J)
            for rs in systems
            for size in range(1, rs.rank + 1)
            for J in itertools.combinations(range(1, rs.rank + 1), size)
        ]
        hess._supported_within.cache_clear()
        subsets = [defaultdict(set) for _ in cfgs]
        streams = [hess.enumerate_admissible(cfg) for cfg in cfgs]
        for row in itertools.zip_longest(*streams):
            for seen, item in zip(subsets, row):
                if item is not None:
                    _, v, K = item
                    seen[v].add(K)
        for cfg, seen in zip(cfgs, subsets):
            rs = cfg.rs
            for v, Ks in seen.items():
                images = {rs.root_list[k] for k in v.perm[: rs.rank]}
                delta = sorted(j for j in cfg.J if rs.simple_root(j) in images)
                assert Ks == {
                    frozenset(K)
                    for size in range(len(delta) + 1)
                    for K in itertools.combinations(delta, size)
                }
                assert hess.delta_v(v, cfg) == frozenset(delta)


def test_a_planted_non_simple_root_is_refused(monkeypatch):
    """Root index rank is the first root of height two.  Planted in every
    table of supported roots, through a support that avoids every mask, it
    is some v(alpha_i), and each reader of Delta(v) refuses it.
    The tables are cleared before and after, so that none built from the
    planted support is read outside this test."""
    cfg = a3_22()
    rs = cfg.rs
    support = list(rs.support_mask)
    support[rs.rank] = 0
    v = WeylElement.from_word(rs, [2])  # v(alpha_1) = alpha_1 + alpha_2
    hess._supported_within.cache_clear()
    hess.decompose_admissible.cache_clear()
    monkeypatch.setattr(rs, "support_mask", tuple(support))
    try:
        for query in (
            lambda: list(hess.enumerate_admissible(cfg)),
            lambda: hess.decompose_admissible(v, cfg),
            lambda: hess.delta_v(v, cfg),
            lambda: hess.poincare_polynomial(cfg),
        ):
            with pytest.raises(RuntimeError, match=r"^a root supported on \[.*\] is not simple$"):
                query()
    finally:
        hess._supported_within.cache_clear()


def test_closure_bound_counts_levi_cosets():
    """The Peterson variety of A9 is the top closure; J_w = des(w) leaves a
    single coset of W_{J_w} in W_{des(w)}, although that group has order
    10! = 3628800, past the enumeration bound.  With J empty, the top cell
    of E8 meets |W(E8)| cells, and is refused."""
    cfg = hess.config_from_mu((10,))
    w0 = longest_element(cfg.rs, range(1, 10))
    assert len(hess.closure_intersecting_cells(w0, cfg)) == 2**9
    e8 = build_root_system("E", 8)
    with pytest.raises(EnumerationBoundError):
        hess.closure_intersecting_cells(longest_element(e8, range(1, 9)), hess.hess_config(e8, []))


def test_closure_of_identity():
    cfg = a3_22()
    cells = hess.closure_intersecting_cells(WeylElement.identity(cfg.rs), cfg)
    assert len(cells) == 1 and cells[0].v == WeylElement.identity(cfg.rs)


def test_containment_examples():
    cfg = a3_22()
    rs = cfg.rs
    w = from_one_line(rs, (3, 4, 2, 1))
    assert in_closure(from_one_line(rs, (3, 4, 1, 2)), w, cfg)
    assert in_closure(w, w, cfg)
    assert not in_closure(from_one_line(rs, (3, 2, 1, 4)), w, cfg)
    # a cell outside the variety lies in no closure
    assert not in_closure(from_one_line(rs, (3, 2, 4, 1)), w, cfg)
    b4 = build_root_system("B", 4)
    cfgB = hess.hess_config(b4, [1, 2, 4])
    w = WeylElement.from_word(b4, [1, 3, 4])
    assert not in_closure(WeylElement.from_word(b4, [3, 1]), w, cfgB)
    assert in_closure(WeylElement.from_word(b4, [3, 4]), w, cfgB)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_admissible_set_matches_constructive_description(family, rank):
    """The inverse-image test and the y_K v construction agree, exhaustively."""
    rs = build_root_system(family, rank)
    elements = list(enumerate_min_reps(rs, ()))
    for size in range(rank + 1):
        for J in itertools.combinations(range(1, rank + 1), size):
            cfg = hess.hess_config(rs, J)
            by_test = {w for w in elements if hess.is_admissible(w, cfg)}
            by_construction = {w for w, _, _ in hess.enumerate_admissible(cfg)}
            assert by_test == by_construction
            assert len(by_construction) == sum(hess.poincare_polynomial(cfg))


@pytest.mark.parametrize(
    "family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
)
def test_decomposition_invariants_exhaustive(family, rank):
    """decompose_admissible reads K off the left descents of w in J; the
    reference peels W_J off w one reflection at a time."""
    rs = build_root_system(family, rank)
    for size in range(rank + 1):
        for J in itertools.combinations(range(1, rank + 1), size):
            cfg = hess.hess_config(rs, J)
            for w, v, K in hess.enumerate_admissible(cfg):
                d = hess.decompose_admissible(w, cfg)
                y, ref_v = min_right_coset_rep(w, J)
                assert (d.K, d.v) == (y.descents(), ref_v)
                assert d.v == v and d.K == K
                assert d.tau * d.y_des == w
                assert longest_element(rs, d.K) * d.v == w
                assert d.des == w.descents()
                # minimal representatives have no coset factor
                if w == v:
                    assert not d.K and not d.Jw


def test_closure_relations_consistency_a3():
    """Containment implies intersection, and containment is a partial order."""
    cfg = a3_22()
    admissible = [w for w, _, _ in hess.enumerate_admissible(cfg)]
    for w in admissible:
        cells = {c.v for c in hess.closure_intersecting_cells(w, cfg)}
        for v in admissible:
            if in_closure(v, w, cfg):
                assert v in cells
    for a, b in itertools.product(admissible, repeat=2):
        if in_closure(a, b, cfg) and in_closure(b, a, cfg):
            assert a == b


def test_poincare_polynomials():
    for n in range(2, 7):
        rs = build_root_system("A", n - 1)
        peterson = hess.poincare_polynomial(hess.hess_config(rs, range(1, n)))
        assert list(peterson) == [comb(n - 1, k) for k in range(n)]
    # frozen Eulerian triangle, computed from the standard recurrence
    eulerian = {2: [1, 1], 3: [1, 4, 1], 4: [1, 11, 11, 1], 5: [1, 26, 66, 26, 1],
                6: [1, 57, 302, 302, 57, 1]}
    for n, expect in eulerian.items():
        rs = build_root_system("A", n - 1)
        toric = hess.poincare_polynomial(hess.hess_config(rs, []))
        assert list(toric) == expect


def test_eulerian_oracle_recurrence():
    """Recompute the frozen Eulerian rows from the recurrence."""
    rows = {1: [1]}
    for n in range(2, 7):
        prev = rows[n - 1]
        rows[n] = [
            (k + 1) * (prev[k] if k < len(prev) else 0)
            + (n - k) * (prev[k - 1] if k >= 1 else 0)
            for k in range(n)
        ]
    assert rows[4] == [1, 11, 11, 1]
    assert rows[5] == [1, 26, 66, 26, 1]
    assert rows[6] == [1, 57, 302, 302, 57, 1]


def test_poincare_rank_zero_is_constant():
    rs = build_root_system("A", 1)
    cfg = hess.hess_config(rs, [])
    assert hess.poincare_polynomial(cfg) == (1, 1)  # toric in rank one: 1 + q
    cfgP = hess.hess_config(rs, [1])
    assert hess.poincare_polynomial(cfgP) == (1, 1)


def test_config_validation():
    rs = build_root_system("B", 3)
    with pytest.raises(DomainError):
        hess.hess_config(rs, [5])
    assert hess.hess_config(rs, [1, 3]).mu is None
    assert hess.hess_config(build_root_system("A", 3), [1, 3]).mu == Composition((2, 2))
    cfg = hess.config_from_mu((2, 1))
    assert cfg.mu == Composition((2, 1)) and sorted(cfg.J) == [1]


def test_known_composition_is_answered_without_rebuilding_it(monkeypatch):
    """A configuration stores its composition once: for an interned mu,
    neither the configuration nor the type A routes build a Composition or
    derive one from J again."""
    cfg = hess.config_from_mu((2, 2))
    comp = cfg.mu
    w = (3, 4, 2, 1)

    def answers():
        return (
            singular.typeA_fixed_point_smooth(w, (2, 2)),
            singular.typeA_hess_schubert_smooth(w, (2, 2)),
            oracle.jacobian_at_fixed_point(w, comp),
        )

    expect = answers()
    for name in ("from_J", "__new__"):
        monkeypatch.setattr(Composition, name, lambda *args: pytest.fail("composition rebuilt"))
    assert hess.config_from_mu((2, 2)).mu is comp
    assert hess.config_from_mu([2, 2]) is hess.config_from_mu(comp) is cfg
    assert answers() == expect


def test_config_from_mu_is_one_object_per_composition():
    """A list, a tuple and a Composition of the same parts give the same
    configuration, and a bad composition is refused on every call."""
    cfg = hess.config_from_mu((2, 1))
    assert hess.config_from_mu([2, 1]) is cfg
    assert hess.config_from_mu(Composition((2, 1))) is cfg
    assert hess.config_from_mu((1, 2)) is not cfg
    for bad in [(1,), (0, 2), [0, 2], (), (2, -1)]:
        for _ in range(2):
            with pytest.raises(DomainError):
                hess.config_from_mu(bad)


A4 = build_root_system("A", 4)
B4 = build_root_system("B", 4)
C4 = build_root_system("C", 4)
W_A4 = (4, 5, 1, 2, 3)
B4_IN_C4 = (WeylElement.from_word(B4, [1, 3, 4]), hess.hess_config(C4, [1, 2, 4]))


@pytest.mark.parametrize(
    "query",
    [
        lambda: singular.typeA_fixed_point_smooth(from_one_line(A4, W_A4), (2, 2)),
        lambda: singular.typeA_hess_schubert_smooth(from_one_line(A4, W_A4), (2, 2)),
        lambda: oracle.jacobian_at_fixed_point(from_one_line(A4, W_A4), (2, 2)),
        lambda: classes.hess_schubert_class(*B4_IN_C4),
        lambda: hess.decompose_admissible(*B4_IN_C4),
        lambda: hess.is_admissible(*B4_IN_C4),
        lambda: hess.delta_v(WeylElement.from_word(B4, [3]), B4_IN_C4[1]),
        lambda: hess.delta_v(WeylElement.from_word(A4, []), hess.config_from_mu((2, 2))),
    ],
    ids=[
        "typeA_fixed_point_smooth",
        "typeA_hess_schubert_smooth",
        "jacobian_at_fixed_point",
        "hess_schubert_class",
        "decompose_admissible",
        "is_admissible",
        "delta_v",
        "delta_v_type_A",
    ],
)
def test_element_of_another_root_system_is_domain_error(query):
    with pytest.raises(DomainError, match="lies in"):
        query()


# -- the last decomposition ---------------------------------------------------


def test_equal_element_reuses_the_last_decomposition():
    """A distinct but equal w, on the same or an equal configuration, is
    answered with the decomposition already made, whose fields are those
    made with nothing kept; a different w gets its own."""
    cfg = hess.config_from_mu((2, 2))
    d = hess.decompose_admissible(from_one_line(cfg.rs, (3, 4, 2, 1)), cfg)
    again = from_one_line(cfg.rs, (3, 4, 2, 1))
    assert again is not d.w and again == d.w
    assert hess.decompose_admissible(again, cfg) is d
    fresh = hess.hess_config(cfg.rs, cfg.J)
    assert fresh == cfg and fresh is not cfg
    assert hess.decompose_admissible(again, fresh) is d
    hess.decompose_admissible.cache_clear()
    assert hess.decompose_admissible(again, fresh) == d
    other = hess.decompose_admissible(from_one_line(cfg.rs, (3, 4, 1, 2)), cfg)
    assert other is not d and other.w == from_one_line(cfg.rs, (3, 4, 1, 2))
    hess.decompose_admissible.cache_clear()
    assert other == hess.decompose_admissible(other.w, fresh)


def test_only_the_last_decomposition_is_kept():
    """The same w on another J is decomposed for that J, as it is with
    nothing kept; repeating the last (w, cfg) returns the kept object, and
    the memory holds that one decomposition only."""
    cfg_22, cfg_31 = hess.config_from_mu((2, 2)), hess.config_from_mu((3, 1))
    e = WeylElement.identity(cfg_22.rs)
    hess.decompose_admissible.cache_clear()
    fresh = hess.decompose_admissible(e, cfg_31)
    hess.decompose_admissible(e, cfg_22)
    d_31 = hess.decompose_admissible(e, cfg_31)
    assert d_31 == fresh and d_31 is not fresh
    assert d_31.delta_v == frozenset({1, 2})
    assert hess.decompose_admissible(e, cfg_31) is d_31
    assert hess.decompose_admissible.cache_info().maxsize == 1


def test_element_of_another_system_is_refused_after_a_cached_one():
    """C4's identity and B4's have one permutation tuple; with the C4 one
    decomposed last, the B4 one is still refused, as is B4_IN_C4 after its
    C4 namesake."""
    w, cfg = B4_IN_C4
    e_c4, e_b4 = WeylElement.identity(C4), WeylElement.identity(B4)
    assert e_c4.perm == e_b4.perm
    hess.decompose_admissible(e_c4, cfg)
    with pytest.raises(DomainError, match="lies in"):
        hess.decompose_admissible(e_b4, cfg)
    hess.decompose_admissible(WeylElement.from_word(C4, w.word()), cfg)
    with pytest.raises(DomainError, match="lies in"):
        hess.decompose_admissible(w, cfg)


def test_inadmissible_element_after_a_cached_one_is_refused():
    """Right after an admissible w, an inadmissible one raises the error a
    configuration with no memory raises, on every call."""
    cfg = a3_22()
    bad = from_one_line(cfg.rs, (3, 2, 4, 1))
    with pytest.raises(DomainError) as fresh:
        hess.decompose_admissible(bad, hess.hess_config(cfg.rs, cfg.J))
    assert str(fresh.value) == "s1*s2*s3*s1 is not admissible for J=[1, 3]"
    hess.decompose_admissible(from_one_line(cfg.rs, (3, 4, 2, 1)), cfg)
    for _ in range(2):
        with pytest.raises(DomainError) as cached:
            hess.decompose_admissible(bad, cfg)
        assert str(cached.value) == str(fresh.value)
