"""The verification suites' own reference derivations."""

from __future__ import annotations

import itertools
import sys

import pytest

from minhess import hess, singular, verification
from minhess.roots import build_root_system, cartan_datum
from minhess.weyl import Composition, compositions, one_line
from references import matrix_admissible, paper_no_linear_term


@pytest.mark.parametrize("n", range(2, 7))
def test_one_line_levi_compositions_match_the_decomposition(n, monkeypatch):
    """The Levi of des(w) with J_w, read from the one-line, is the one
    decompose_admissible classifies, component by component; the reading
    builds no Composition."""
    cases = []
    for mu in compositions(n):
        cfg = hess.config_from_mu(mu)
        for w, _, _ in hess.enumerate_admissible(cfg):
            dec = hess.decompose_admissible(w, cfg)
            expect = [
                Composition.from_J(c.datum.rank + 1, c.to_canonical(dec.Jw)).parts
                for c in dec.levi.components
            ]
            cases.append((one_line(w), mu, expect))
    for name in ("from_J", "__new__"):
        monkeypatch.setattr(Composition, name, lambda *args: pytest.fail("Composition built"))
    for line, mu, expect in cases:
        assert verification._levi_compositions(line, mu) == expect


@pytest.mark.parametrize("n", range(2, 7))
def test_pruned_fixed_points_are_the_ones_the_oracle_admits(n):
    """Filling positions in order and dropping a prefix at its first nonzero
    constant term keeps exactly the permutations, in lexicographic order,
    whose fixed points the oracle's membership test admits."""
    for mu in compositions(n):
        expect = [
            perm for perm in itertools.permutations(range(1, n + 1))
            if matrix_admissible(perm, mu)
        ]
        assert verification._oracle_fixed_points(mu) == expect


def test_levi_check_reads_nothing_from_hess(monkeypatch):
    """With the decomposition, the enumeration and the admissibility test of
    hess made to fail in every module that holds them, the Levi check of
    cross-validate still answers, and agrees with the bracket criterion."""
    cases = []
    for n in range(2, 6):
        for mu in compositions(n):
            cfg = hess.config_from_mu(mu)
            for w, _, _ in hess.enumerate_admissible(cfg):
                smooth = singular.hess_schubert_smooth(w, cfg).is_smooth
                cases.append((one_line(w), mu, smooth))

    def refuse(*args, **kwargs):
        raise AssertionError("hess was consulted")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "minhess":
            for attr in ("decompose_admissible", "enumerate_admissible", "is_admissible"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    assert {smooth for _, _, smooth in cases} == {False, True}
    verdicts = {}
    for line, mu, smooth in cases:
        assert verification._levi_oracle_smooth(line, mu, verdicts) == smooth


def test_cross_validation_decomposes_each_pair_once(monkeypatch):
    """The smoothness routes on one admissible pair share one decomposition:
    the descent factorization runs once per pair of the n <= 4 sweep.  The
    sweep starts with no decomposition kept, so an earlier test's last
    element cannot answer the first pair."""
    pairs = 0
    for n in range(2, 5):
        for mu in compositions(n):
            pairs += sum(1 for _ in hess.enumerate_admissible(hess.config_from_mu(mu)))
    hess.decompose_admissible.cache_clear()
    calls = []
    factorization = hess.descent_decomposition

    def counted(w):
        calls.append(w)
        return factorization(w)

    monkeypatch.setattr(hess, "descent_decomposition", counted)
    assert all(check.ok for check in verification.suite_cross_validate(3))
    assert len(calls) == pairs


def failed_cross_validation(max_rank):
    """The name and detail of each cross-validation check that fails."""
    return {c.name: c.detail for c in verification.suite_cross_validate(max_rank) if not c.ok}


def test_a_smooth_k_planted_after_a_sweep_fails_triple_agreement(monkeypatch):
    """After an unpatched sweep in the same process, A3's K = {1, 3} added
    to _smooth_K fails smoothness-triple-agreement once the Levi verdict
    memo, which read _smooth_K during that sweep, is cleared; with the
    defect removed and the memo cleared again, every check passes."""
    assert failed_cross_validation(3) == {}
    a3, smooth_K = cartan_datum("A", 3), singular._smooth_K

    def planted(datum):
        return smooth_K(datum) | {frozenset({1, 3})} if datum == a3 else smooth_K(datum)

    try:
        monkeypatch.setattr(singular, "_smooth_K", planted)
        singular._levi_verdict.cache_clear()
        assert failed_cross_validation(3) == {
            "smoothness-triple-agreement": "148 admissible pairs, 1 mismatches"
        }
    finally:
        monkeypatch.undo()
        singular._levi_verdict.cache_clear()
    assert failed_cross_validation(3) == {}


def test_a_simple_sum_dropped_from_the_table_fails_both_bracket_checks(monkeypatch):
    """With A3's alpha_1 + alpha_2 dropped from the simple-sum table, the
    bracket criterion misses it, and both checks that compare the bracket
    route with another fail."""
    a3, sums = build_root_system("A", 3), singular._simple_sums

    def planted(rs):
        table = sums(rs)
        return {pair: s for pair, s in table.items() if pair != (1, 2)} if rs is a3 else table

    monkeypatch.setattr(singular, "_simple_sums", planted)
    assert failed_cross_validation(3) == {
        "hess-schubert-dual-route": "5 mismatches",
        "hess-schubert-levi-oracle": "5 mismatches",
    }


def test_paper_node_table_is_the_no_linear_term_table():
    """The cominuscule suite's node list names, at every rank up to 12, the
    walls the paper's no-linear-term table leaves out."""
    for family, ranks in verification._FAMILY_RANKS.items():
        for rank in ranks(12):
            full = set(range(1, rank + 1))
            walls = {b for b in full if not paper_no_linear_term(family, rank, full - {b})}
            assert verification._PAPER_NODES[family](rank) == walls, (family, rank)


def test_cominuscule_suite_fails_on_a_flipped_rule(monkeypatch):
    """Calling E7's beta = 7 wall a no-linear-term set is one bad subset."""
    rule = singular.w_star_star_member

    def flipped(datum, K):
        return rule(datum, K) != (datum.name == "E7" and set(K) == set(range(1, 7)))

    monkeypatch.setattr(singular, "w_star_star_member", flipped)
    check = verification.suite_cominuscule(7)[0]
    assert (check.name, check.ok, check.detail) == (
        "cominuscule-characterization", False, "1183 subsets, 1 bad"
    )


def test_cominuscule_suite_fails_on_a_flipped_node_table(monkeypatch):
    """Dropping E7's node 7 from the paper's list fails the suite."""
    monkeypatch.setitem(verification._PAPER_NODES, "E", lambda n: {6: {1, 6}}.get(n, set()))
    check = verification.suite_cominuscule(7)[0]
    assert check.name == "cominuscule-characterization" and not check.ok


PAPER_TABLE_CHECKS = [
    "delta-v-table-a3", "delta-v-table-b4", "coset-count-b4", "decomposition-table-b4",
    "admissibility-table-3421", "closure-x-factors-3421", "specific-flags", "hess-schubert-b4",
    "hess-schubert-one-line-table", "count-smooth-431", "jacobian-regression",
    "class-expansion-3421", "top-closure-poincare",
]


def test_paper_tables_fails_on_a_closure_dimension_read_as_the_length(monkeypatch):
    """The top-closure check counts 44 sets J (every J of A3, B3, C3, D4 and
    G2) and is the one check that reads a closure cell's dim: with dim
    planted as l(x) in place of |des(x)|, it fails and every other passes."""
    checks = verification.run_suite("paper-tables")
    assert [c.name for c in checks] == PAPER_TABLE_CHECKS
    assert all(c.ok for c in checks)
    assert checks[-1].detail == "44 sets J, mismatched []"
    cell = hess.ClosureCell
    monkeypatch.setattr(hess, "ClosureCell", lambda v, x, dim: cell(v, x, x.length()))
    checks = verification.run_suite("paper-tables")
    assert [c.name for c in checks if not c.ok] == ["top-closure-poincare"]
    assert checks[-1].detail.startswith("44 sets J, mismatched ['A3 J=")
