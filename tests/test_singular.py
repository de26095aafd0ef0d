"""Singularity classification: index-set membership, cominuscule arithmetic,
pattern route, counting, and the shared-linear case table."""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minhess import hess, singular
from minhess.errors import DomainError, EnumerationBoundError
from minhess.roots import CartanDatum, build_root_system, cartan_datum, parabolic
from minhess.weyl import (
    Composition,
    WeylElement,
    compositions,
    from_one_line,
    longest_element,
)
from references import paper_no_linear_term, paper_smooth_K

FULL = lambda n: frozenset(range(1, n + 1))


def subsets(rank):
    """Every K in 1..rank, by size and then lexicographically."""
    return [K for size in range(rank + 1) for K in itertools.combinations(range(1, rank + 1), size)]


# every canonical datum of rank at most 12
RANKS_TO_12 = [
    ("A", range(1, 13)),
    ("B", range(2, 13)),
    ("C", range(2, 13)),
    ("D", range(4, 13)),
    ("E", (6, 7, 8)),
    ("F", (4,)),
    ("G", (2,)),
]


def test_w_star_membership_cases():
    a2 = cartan_datum("A", 2)
    assert singular.w_star_member(a2, [])
    assert not singular.w_star_member(a2, [1])
    assert not singular.w_star_member(a2, [2])
    assert not singular.w_star_member(a2, [1, 2])
    b4 = cartan_datum("B", 4)
    assert not singular.w_star_member(b4, [2, 3, 4])  # the one smooth wall
    assert singular.w_star_member(b4, [1, 3, 4])
    assert singular.w_star_member(b4, [])
    for fam in ("C", "D", "E", "F", "G"):
        datum = cartan_datum(fam, {"C": 3, "D": 4, "E": 6, "F": 4, "G": 2}[fam])
        n = datum.rank
        for size in range(n):
            for K in itertools.combinations(range(1, n + 1), size):
                assert singular.w_star_member(datum, K)
        assert not singular.w_star_member(datum, range(1, n + 1))


def test_w_star_c2_matches_b2_through_relabeling():
    b2 = cartan_datum("B", 2)
    c2 = cartan_datum("C", 2)
    # C2 is B2 read from the long root, which swaps the two nodes
    assert singular.w_star_member(c2, []) == singular.w_star_member(b2, [])
    assert singular.w_star_member(c2, [1]) == singular.w_star_member(b2, [2])
    assert singular.w_star_member(c2, [2]) == singular.w_star_member(b2, [1])


def test_w_star_answers_a_b_labelled_c2_as_c2():
    """The rules read the datum's roots, not its family letter: C2's matrix
    labelled B answers every K, and its locus, as C2 does."""
    c2 = cartan_datum("C", 2)
    b_labelled = CartanDatum("B", 2, c2.matrix)
    for K in subsets(2):
        assert singular.w_star_member(b_labelled, K) == singular.w_star_member(c2, K), K
        assert singular.w_star_star_member(b_labelled, K) == singular.w_star_star_member(c2, K), K
    assert singular.peterson_singular_locus(b_labelled) == singular.peterson_singular_locus(c2)


def test_w_star_answers_a_relabelled_d5_in_its_own_labels():
    """D5 with node i renamed pi(i), which moves the branch node and every
    cominuscule node, answers pi(K) as D5 answers K, and its locus is D5's
    carried over by pi."""
    pi = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
    d5 = cartan_datum("D", 5)
    matrix = [[0] * 5 for _ in range(5)]
    for i, j in itertools.product(range(1, 6), repeat=2):
        matrix[pi[i] - 1][pi[j] - 1] = d5.matrix[i - 1][j - 1]
    relabelled = CartanDatum("D", 5, tuple(map(tuple, matrix)))
    assert relabelled != d5
    for K in subsets(5):
        piK = [pi[k] for k in K]
        for rule in (singular.w_star_member, singular.w_star_star_member,
                     singular.cominuscule_check):
            assert rule(relabelled, piK) == rule(d5, K), (rule.__name__, K)
    carried = {frozenset(pi[k] for k in K) for K in singular.peterson_singular_locus(d5)}
    assert set(map(frozenset, singular.peterson_singular_locus(relabelled))) == carried


def test_w_star_refuses_k_outside_the_simple_roots():
    d5 = cartan_datum("D", 5)
    message = "^K is not a subset of the component's simple roots$"
    for rule in (singular.w_star_member, singular.w_star_star_member):
        for K in ([6], [0, 1]):
            with pytest.raises(DomainError, match=message):
                rule(d5, K)


@pytest.mark.parametrize("family,ranks", RANKS_TO_12)
def test_w_star_member_is_the_paper_table(family, ranks):
    """The root-data rule answers as the paper's table on every K of every
    canonical datum up to rank 12."""
    for rank in ranks:
        datum = cartan_datum(family, rank)
        table = paper_smooth_K(family, rank)
        for size in range(rank + 1):
            for K in itertools.combinations(range(1, rank + 1), size):
                assert singular.w_star_member(datum, K) == (frozenset(K) not in table), (
                    datum.name, K,
                )


@pytest.mark.parametrize("family,rank", [("A", 30), ("B", 20), ("C", 20), ("D", 20)])
def test_w_star_member_is_the_paper_table_on_walls_at_large_rank(family, rank):
    """Past rank 12, Delta and every wall Delta minus beta, the only K the
    table can call smooth."""
    datum = cartan_datum(family, rank)
    table = paper_smooth_K(family, rank)
    for K in [FULL(rank)] + [FULL(rank) - {beta} for beta in FULL(rank)]:
        assert singular.w_star_member(datum, K) == (K not in table), (datum.name, sorted(K))


@pytest.mark.parametrize("family,ranks", RANKS_TO_12)
def test_w_star_star_member_is_the_paper_table(family, ranks):
    """The highest-root rule for the no-linear-term set answers as the
    paper's per-family table on every K of every canonical datum up to
    rank 12."""
    for rank in ranks:
        datum = cartan_datum(family, rank)
        for K in subsets(rank):
            assert singular.w_star_star_member(datum, K) == paper_no_linear_term(
                family, rank, K
            ), (datum.name, K)


@pytest.mark.parametrize("family,rank", [("A", 30), ("B", 20), ("C", 20), ("D", 20)])
def test_w_star_star_member_is_the_paper_table_on_walls_at_large_rank(family, rank):
    """Past rank 12, Delta, the empty K and every wall Delta minus beta."""
    datum = cartan_datum(family, rank)
    for K in [FULL(rank), frozenset()] + [FULL(rank) - {beta} for beta in FULL(rank)]:
        assert singular.w_star_star_member(datum, K) == paper_no_linear_term(
            family, rank, K
        ), (datum.name, sorted(K))


@pytest.mark.parametrize("family,ranks", RANKS_TO_12)
def test_shared_linear_rows_are_the_singular_cominuscule_walls(family, ranks):
    """The case table has a row (D4's defective beta = 3 row among them)
    for exactly the cominuscule beta whose wall the rule calls singular,
    and where it has no rows no cominuscule wall is singular."""
    for rank in ranks:
        datum = cartan_datum(family, rank)
        theta = build_root_system(family, rank).highest_root
        walls = {
            beta
            for beta in FULL(rank)
            if theta[beta - 1] == 1 and singular.w_star_member(datum, FULL(rank) - {beta})
        }
        try:
            rows = singular._shared_linear_cases(family, rank)
        except DomainError:
            assert walls == set(), datum.name
        else:
            assert {beta for beta, _, _, _ in rows} == walls, datum.name


def test_w_star_star_cases():
    a4 = cartan_datum("A", 4)
    for j in range(1, 5):
        assert not singular.w_star_star_member(a4, set(range(1, 5)) - {j})
    assert singular.w_star_star_member(a4, [1, 4])
    e8 = cartan_datum("E", 8)
    for size in range(8):
        for K in itertools.islice(itertools.combinations(range(1, 9), size), 12):
            assert singular.w_star_star_member(e8, K)
    c4 = cartan_datum("C", 4)
    assert not singular.w_star_star_member(c4, [1, 2, 3])
    assert singular.w_star_star_member(c4, [2, 3, 4])
    d5 = cartan_datum("D", 5)
    for beta in (1, 4, 5):
        assert not singular.w_star_star_member(d5, set(range(1, 6)) - {beta})
    assert singular.w_star_star_member(d5, {1, 3, 4, 5})
    e6 = cartan_datum("E", 6)
    assert not singular.w_star_star_member(e6, {2, 3, 4, 5, 6})
    assert not singular.w_star_star_member(e6, {1, 2, 3, 4, 5})
    assert singular.w_star_star_member(e6, {1, 3, 4, 5, 6})


def test_cominuscule_examples():
    a4 = cartan_datum("A", 4)
    for j in range(1, 5):
        assert singular.cominuscule_check(a4, set(range(1, 5)) - {j})
    g2 = cartan_datum("G", 2)
    assert not singular.cominuscule_check(g2, [1])
    assert not singular.cominuscule_check(g2, [2])
    for fam, rank in [("A", 3), ("B", 4), ("D", 5)]:
        assert not singular.cominuscule_check(cartan_datum(fam, rank), [])


@pytest.mark.parametrize(
    "family,ranks",
    [
        ("A", range(1, 9)),
        ("B", range(2, 9)),
        ("C", range(2, 9)),
        ("D", range(4, 9)),
        ("E", (6, 7, 8)),
        ("F", (4,)),
        ("G", (2,)),
    ],
)
def test_cominuscule_equivalences_all_types(family, ranks):
    """Lowest-root arithmetic agrees with the highest-root-coefficient
    description and with the complement of the no-linear-term set."""
    for rank in ranks:
        datum = cartan_datum(family, rank)
        rs = build_root_system(family, rank)
        theta = rs.highest_root
        for size in range(rank):
            for K in itertools.combinations(range(1, rank + 1), size):
                lands = singular.cominuscule_check(datum, K)
                missing = set(range(1, rank + 1)) - set(K)
                node = len(missing) == 1 and theta[missing.pop() - 1] == 1
                assert lands == node
                assert lands != singular.w_star_star_member(datum, K)
                # the no-linear set sits inside the singular set
                if singular.w_star_star_member(datum, K):
                    assert singular.w_star_member(datum, K)


def test_peterson_singular_locus_examples():
    assert singular.peterson_singular_locus(cartan_datum("A", 1)) == ()
    assert singular.peterson_singular_locus(cartan_datum("A", 2)) == ((),)
    assert singular.peterson_singular_locus(cartan_datum("B", 2)) == ((), (1,))
    for rank in (20, 21):  # 2^20 subsets pass the enumeration bound
        with pytest.raises(EnumerationBoundError):
            singular.peterson_singular_locus(cartan_datum("A", rank))


def test_peterson_singular_locus_is_the_plain_scan():
    """The locus applies the rule per K: it agrees with asking w_star_member
    of every subset in order, for every family up to rank 8 and for C2
    passed in directly rather than through ``parabolic`` (which hands a
    rank-2 double bond over as B2)."""
    data = []
    for family in "ABCDEFG":
        for rank in range(1, 9):
            try:
                data.append(cartan_datum(family, rank))
            except DomainError:
                pass
    c2 = cartan_datum("C", 2)
    data.append(CartanDatum(c2.family, c2.rank, c2.matrix))
    for datum in data:
        subsets = [
            K for size in range(datum.rank + 1)
            for K in itertools.combinations(range(1, datum.rank + 1), size)
        ]
        expected = tuple(K for K in subsets if singular.w_star_member(datum, K))
        assert singular.peterson_singular_locus(datum) == expected, datum.name


def test_peterson_fixed_points_b4_example():
    b4 = build_root_system("B", 4)
    sub = parabolic(b4, [1, 2, 4])
    singular_K = []
    for size in range(4):
        for K in itertools.combinations([1, 2, 4], size):
            verdict = singular.peterson_fixed_point_smooth(sub, K)
            if not verdict.is_smooth:
                singular_K.append(K)
                assert verdict.reason == singular.PETERSON_W_STAR
    assert singular_K == [(), (4,)]
    full = singular.peterson_fixed_point_smooth(sub, [1, 2, 4])
    assert full.is_smooth


def test_peterson_fixed_point_full_group():
    a2 = build_root_system("A", 2)
    sub = parabolic(a2, [1, 2])
    assert singular.peterson_fixed_point_smooth(sub, [1, 2]).is_smooth
    assert not singular.peterson_fixed_point_smooth(sub, []).is_smooth


def test_hess_fixed_point_examples():
    cfg = hess.config_from_mu((3, 1))
    w = WeylElement.from_word(cfg.rs, [2])
    assert singular.hess_fixed_point_smooth(w, cfg).is_smooth
    # full Peterson of A_3: s_2 alone indexes a singular point
    cfgP = hess.config_from_mu((4,))
    v = singular.hess_fixed_point_smooth(WeylElement.from_word(cfgP.rs, [2]), cfgP)
    assert not v.is_smooth and v.reason == singular.PETERSON_W_STAR
    w0 = longest_element(cfg.rs, [1, 2, 3])
    for mu in [(3, 1), (2, 2), (4,), (1, 1, 1, 1)]:
        cfg_mu = hess.config_from_mu(mu)
        assert singular.hess_fixed_point_smooth(w0, cfg_mu).is_smooth
    with pytest.raises(DomainError):
        singular.hess_fixed_point_smooth(from_one_line(cfg.rs, (3, 2, 4, 1)), hess.config_from_mu((2, 2)))


def test_levi_route_verdicts_outside_type_a_are_pinned():
    """Every verdict of the Levi route on every admissible w of every J of
    B2-B4, C3, C4, D4, D5, F4 and G2, hashed with its reason, detail and
    citations: 32224 pairs whose answers stay as they are."""
    h = hashlib.sha256()
    pairs = 0
    for family, rank in [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                         ("D", 4), ("D", 5), ("F", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        for size in range(rank + 1):
            for J in itertools.combinations(range(1, rank + 1), size):
                cfg = hess.hess_config(rs, J)
                for w, _, _ in hess.enumerate_admissible(cfg):
                    v = singular.hess_fixed_point_smooth(w, cfg)
                    row = (family, rank, J, w.word(), v.verdict, v.reason, v.detail, v.citations)
                    h.update(repr(row).encode())
                    pairs += 1
    assert pairs == 32224
    assert h.hexdigest() == "9dfb2a04be4d7b2b4c60e197c3da5212e9d84a67f9ee90e08232c1e29d6ebddb"


def test_hess_fixed_point_b4_delta_v_route():
    b4 = build_root_system("B", 4)
    cfg = hess.hess_config(b4, [1, 2, 4])
    # any admissible w built over v not in {e, v_0} is singular via Delta(v)
    v = WeylElement.from_word(b4, [3, 4, 3])  # Delta(v) = {1, 4} != J
    y = longest_element(b4, [1])
    verdict = singular.hess_fixed_point_smooth(y * v, cfg)
    assert not verdict.is_smooth and verdict.reason == singular.DELTA_V_MISMATCH
    # over v = e the verdict is the Peterson one
    assert not singular.hess_fixed_point_smooth(
        WeylElement.from_word(b4, [4]), cfg
    ).is_smooth
    assert singular.hess_fixed_point_smooth(
        longest_element(b4, [1, 2]) * longest_element(b4, [4]), cfg
    ).is_smooth


def test_type_a_flags_and_reasons():
    cases = [
        ((5, 6, 4, 3, 2, 1), (4, 2), "smooth", singular.SMOOTH_BY_CRITERION),
        ((6, 5, 1, 3, 2, 4), (4, 2), "singular", singular.PATTERN_HIT),
        ((5, 2, 1, 6, 3, 4), (4, 2), "singular", singular.BLOCK_SPLIT),
        ((7, 6, 5, 8, 2, 1, 4, 3), (4, 3, 1), "singular", singular.PATTERN_HIT),
        ((5, 6, 7, 8, 3, 2, 1, 4), (4, 3, 1), "singular", singular.PATTERN_HIT),
        ((7, 6, 5, 8, 3, 2, 1, 4), (4, 3, 1), "smooth", singular.SMOOTH_BY_CRITERION),
    ]
    for line, mu, verdict, reason in cases:
        v = singular.typeA_fixed_point_smooth(line, mu)
        assert (v.verdict, v.reason) == (verdict, reason)


def test_type_a_pattern_route_refuses_flags_outside_the_variety():
    """The one-line criterion would answer for any permutation; 3241 is not
    admissible for mu = (2, 2), so the route refuses it like the others."""
    with pytest.raises(DomainError, match="not admissible"):
        singular.typeA_fixed_point_smooth((3, 2, 4, 1), (2, 2))


def test_type_a_singletons_always_smooth():
    for perm in itertools.permutations((1, 2, 3, 4)):
        assert singular.typeA_fixed_point_smooth(perm, (1, 1, 1, 1)).is_smooth


def test_pattern_hit_detail_names_witness():
    v = singular.typeA_fixed_point_smooth((7, 6, 5, 8, 2, 1, 4, 3), (4, 3, 1))
    pattern, positions = v.detail
    assert pattern == "2143"
    line = (7, 6, 5, 8, 2, 1, 4, 3)
    values = [line[p - 1] for p in positions]
    assert values == [2, 1, 4, 3]


def test_count_smooth_examples():
    assert singular.count_smooth_flags((4, 3, 1)) == 54
    assert singular.count_smooth_flags((2, 2)) == 8
    assert singular.count_smooth_flags(tuple([1] * 7)) == 5040


@pytest.mark.parametrize("n", range(2, 7))
def test_count_smooth_matches_enumeration(n):
    for mu in compositions(n):
        cfg = hess.config_from_mu(mu)
        smooth = sum(
            1
            for w, _, _ in hess.enumerate_admissible(cfg)
            if singular.typeA_fixed_point_smooth(w, mu).is_smooth
        )
        assert smooth == singular.count_smooth_flags(mu)


def test_hess_schubert_examples():
    b4 = build_root_system("B", 4)
    cfg = hess.hess_config(b4, [1, 2, 4])
    smooth = singular.hess_schubert_smooth(WeylElement.from_word(b4, [1, 3, 4]), cfg)
    assert smooth.is_smooth
    sing = singular.hess_schubert_smooth(
        WeylElement.from_word(b4, [1, 2, 1, 3, 2, 1]), cfg
    )
    assert not sing.is_smooth and sing.reason == singular.BRACKET_NONEMPTY
    assert sing.detail  # carries a witness root
    # minimal coset representatives always give smooth closures
    from minhess.weyl import enumerate_min_reps

    for v in enumerate_min_reps(b4, cfg.J):
        assert singular.hess_schubert_smooth(v, cfg).is_smooth


def test_hess_schubert_one_line_table():
    rows = [
        ((8, 1, 2, 3, 5, 6, 7, 4), "smooth"),
        ((8, 2, 1, 3, 5, 6, 7, 4), "singular"),
        ((8, 1, 3, 2, 5, 6, 7, 4), "smooth"),
        ((8, 3, 2, 1, 5, 6, 7, 4), "singular"),
        ((8, 1, 3, 2, 6, 5, 7, 4), "smooth"),
    ]
    for line, expect in rows:
        assert singular.typeA_hess_schubert_smooth(line, (4, 3, 1)).verdict == expect


@pytest.mark.parametrize("n", range(2, 6))
def test_hess_schubert_dual_route_agreement(n):
    for mu in compositions(n):
        cfg = hess.config_from_mu(mu)
        for w, _, _ in hess.enumerate_admissible(cfg):
            a = singular.hess_schubert_smooth(w, cfg).verdict
            b = singular.typeA_hess_schubert_smooth(w, mu).verdict
            assert a == b


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
])
def test_every_nonempty_J_has_singular_fixed_point(family, rank):
    """The abstract's "singular outside the toric case": some fixed point is
    singular exactly when J is nonempty, the scan stopping at the first
    singular one.  The one exception is A1 with J = {1}, which is P^1."""
    rs = build_root_system(family, rank)
    for size in range(rank + 1):
        for J in itertools.combinations(range(1, rank + 1), size):
            cfg = hess.hess_config(rs, J)
            any_singular = any(
                not singular.hess_fixed_point_smooth(w, cfg).is_smooth
                for w, _, _ in hess.enumerate_admissible(cfg)
            )
            assert any_singular == (len(J) > 0 and rank > 1), J


def test_shared_linear_table_all_representative_ranks():
    expected_rows = {("A", 3): 1, ("A", 4): 2, ("A", 5): 3, ("A", 6): 4,
                     ("C", 3): 1, ("C", 4): 1, ("C", 5): 1,
                     ("D", 4): 3, ("D", 5): 3, ("D", 6): 3,
                     ("E", 6): 2, ("E", 7): 1}
    for (family, rank), count in expected_rows.items():
        rows = singular.verify_shared_linear_table(family, rank)
        assert len(rows) == count
        for row in rows:
            if (family, rank, row.beta) == ("D", 4, 3):
                # the generic-rank witness of this row breaks at rank 4:
                # its second witness lands inside the parabolic
                failing = [name for name, ok in row.checks if not ok]
                assert failing == ["eta2_in_range"]
            else:
                assert row.ok, (family, rank, row.beta, row.checks)


def test_shared_linear_table_rejects_absent_rows():
    for family, rank in [("B", 4), ("G", 2), ("F", 4), ("E", 8), ("A", 2)]:
        with pytest.raises(DomainError):
            singular.verify_shared_linear_table(family, rank)


# -- generic pattern matcher as a hypothesis oracle ---------------------------


def brute_contains(seq, pattern):
    k = len(pattern)
    for idx in itertools.combinations(range(len(seq)), k):
        vals = [seq[i] for i in idx]
        ranks = sorted(range(k), key=lambda t: vals[t])
        iso = [0] * k
        for r, t in enumerate(ranks, start=1):
            iso[t] = r
        if tuple(iso) == tuple(pattern):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.permutations(list(range(1, 9))), st.sampled_from([(1, 2, 3), (2, 1, 4, 3), (1, 3, 2), (3, 1, 2)]))
def test_contains_pattern_matches_bruteforce(seq, pattern):
    got = singular.contains_pattern(list(seq), pattern) is not None
    assert got == brute_contains(list(seq), pattern)


@settings(max_examples=200, deadline=None)
@given(st.permutations(list(range(1, 8))))
def test_pattern_witness_is_order_isomorphic(seq):
    hit = singular.contains_pattern(list(seq), (2, 1, 4, 3))
    if hit is not None:
        a, b, c, d = (seq[i] for i in hit)
        assert b < a < d < c
