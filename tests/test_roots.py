"""Root system construction checked against an independent realization.

The classical families are rebuilt here from scratch in orthogonal
coordinates and converted back to the simple-root basis; the package's
reflection-closure output must match those sets exactly.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import random
import re
from fractions import Fraction

from pathlib import Path

import pytest

import minhess
from minhess import classes, hess, roots, singular
from minhess.errors import DomainError
from minhess.roots import (
    CartanDatum,
    bracket_set,
    build_root_system,
    cartan_datum,
    parabolic,
    root_key,
)
from minhess.weyl import WeylElement, is_min_rep

POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 5): 15,
    ("A", 6): 21, ("A", 7): 28, ("A", 8): 36,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16, ("B", 5): 25, ("B", 6): 36,
    ("B", 7): 49, ("B", 8): 64,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16, ("C", 5): 25, ("C", 6): 36,
    ("C", 7): 49, ("C", 8): 64,
    ("D", 4): 12, ("D", 5): 20, ("D", 6): 30, ("D", 7): 42, ("D", 8): 56,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}


def eps_roots(family: str, n: int):
    """Positive roots of a classical family in orthogonal coordinates,
    together with the simple roots in the same coordinates."""
    def e(i, dim):
        return tuple(Fraction(int(k == i)) for k in range(dim))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    if family == "A":
        dim = n + 1
        simple = [sub(e(i, dim), e(i + 1, dim)) for i in range(n)]
        pos = [sub(e(i, dim), e(j, dim)) for i in range(dim) for j in range(dim) if i < j]
        return simple, pos
    if family == "B":
        simple = [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [e(n - 1, n)]
        pos = [e(i, n) for i in range(n)]
        pos += [sub(e(i, n), e(j, n)) for i in range(n) for j in range(n) if i < j]
        pos += [add(e(i, n), e(j, n)) for i in range(n) for j in range(n) if i < j]
        return simple, pos
    if family == "C":
        simple = [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)]
        simple += [tuple(2 * x for x in e(n - 1, n))]
        pos = [tuple(2 * x for x in e(i, n)) for i in range(n)]
        pos += [sub(e(i, n), e(j, n)) for i in range(n) for j in range(n) if i < j]
        pos += [add(e(i, n), e(j, n)) for i in range(n) for j in range(n) if i < j]
        return simple, pos
    if family == "D":
        simple = [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)]
        simple += [add(e(n - 2, n), e(n - 1, n))]
        pos = [sub(e(i, n), e(j, n)) for i in range(n) for j in range(n) if i < j]
        pos += [add(e(i, n), e(j, n)) for i in range(n) for j in range(n) if i < j]
        return simple, pos
    raise ValueError(family)


def to_simple_basis(vec, simple):
    """Solve vec = sum c_i * simple_i exactly; must be integral."""
    dim = len(vec)
    n = len(simple)
    rows = [[simple[j][d] for j in range(n)] + [vec[d]] for d in range(dim)]
    # Gaussian elimination on a (possibly overdetermined) exact system
    r = 0
    pivots = []
    for c in range(n):
        piv = next((i for i in range(r, dim) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, dim):
        assert rows[i][n] == 0, "inconsistent system"
    coeffs = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        coeffs[c] = rows[row_idx][n]
    assert all(x.denominator == 1 for x in coeffs)
    return tuple(int(x) for x in coeffs)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 3), ("A", 5), ("B", 2), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5)],
)
def test_positive_roots_match_orthogonal_model(family, rank):
    simple, pos = eps_roots(family, rank)
    expected = {to_simple_basis(v, simple) for v in pos}
    rs = build_root_system(family, rank)
    assert set(rs.positive_roots) == expected


@pytest.mark.parametrize("family,rank", sorted(POSITIVE_COUNTS))
def test_positive_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == POSITIVE_COUNTS[(family, rank)]


@pytest.mark.parametrize(
    "family,rank,theta",
    [
        ("A", 3, (1, 1, 1)),
        ("B", 4, (1, 2, 2, 2)),
        ("C", 3, (2, 2, 1)),
        ("D", 5, (1, 2, 2, 1, 1)),
        ("E", 6, (1, 2, 2, 3, 2, 1)),
        ("E", 7, (2, 2, 3, 4, 3, 2, 1)),
        ("E", 8, (2, 3, 4, 6, 5, 4, 3, 2)),
        ("F", 4, (2, 3, 4, 2)),
        ("G", 2, (3, 2)),
    ],
)
def test_highest_roots(family, rank, theta):
    rs = build_root_system(family, rank)
    assert rs.highest_root == theta
    for r in rs.positive_roots:
        assert all(t - c >= 0 for t, c in zip(theta, r))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4), ("D", 4)])
def test_simple_reflections_permute_other_positives(family, rank):
    rs = build_root_system(family, rank)
    for i in range(1, rank + 1):
        for r in rs.positive_roots:
            image = rs.reflect_simple(r, i)
            assert image in rs.roots
            negative = any(c < 0 for c in image)
            assert negative == (r == rs.simple_root(i))


def test_degenerate_rank_normalization():
    assert build_root_system("B", 1).cartan.name == "A1"
    assert build_root_system("C", 1).cartan.name == "A1"
    assert build_root_system("D", 3).cartan.name == "A3"
    with pytest.raises(DomainError):
        build_root_system("D", 2)
    with pytest.raises(DomainError):
        build_root_system("E", 5)
    with pytest.raises(DomainError):
        build_root_system("F", 3)
    with pytest.raises(DomainError):
        build_root_system("G", 3)


def test_bracket_set_examples():
    a3 = build_root_system("A", 3)
    assert bracket_set(a3, [a3.simple_root(1)], [a3.simple_root(2)]) == ((1, 1, 0),)
    assert bracket_set(a3, [a3.simple_root(1)], [a3.simple_root(3)]) == ()
    b4 = build_root_system("B", 4)
    out = bracket_set(b4, [b4.simple_root(1)], [b4.simple_root(1), b4.simple_root(4)])
    assert out == ()


def test_parabolic_b4_example():
    b4 = build_root_system("B", 4)
    sub = parabolic(b4, [1, 2, 4])
    names = sorted((c.datum.name, c.indices) for c in sub.components)
    assert names == [("A1", (4,)), ("A2", (1, 2))]
    outside = ~b4.simple_mask(sub.J)
    pos = {r for r, m in zip(b4.positive_roots, b4.support_mask) if not m & outside}
    assert pos == {(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)}
    assert sub.weyl_order() == 12


def test_parabolic_f4_c3_relabeling():
    f4 = build_root_system("F", 4)
    sub = parabolic(f4, [2, 3, 4])
    (comp,) = sub.components
    assert comp.datum.name == "C3"
    assert comp.indices == (4, 3, 2)


def test_parabolic_a3_disconnected():
    a3 = build_root_system("A", 3)
    sub = parabolic(a3, [1, 3])
    assert sorted(c.datum.name for c in sub.components) == ["A1", "A1"]


@pytest.mark.parametrize("family,rank", [("B", 5), ("C", 5), ("D", 6), ("E", 7), ("F", 4)])
def test_component_classification_idempotent_and_complete(family, rank):
    rs = build_root_system(family, rank)
    for size in range(1, rank + 1):
        for J in itertools.combinations(range(1, rank + 1), size):
            sub = parabolic(rs, J)
            assert sorted(i for c in sub.components for i in c.indices) == list(J)
            for comp in sub.components:
                # classifying the classified component again is stable
                inner = parabolic(rs, comp.indices)
                assert len(inner.components) == 1
                assert inner.components[0].datum == comp.datum
            # input order never matters
            sub2 = parabolic(rs, tuple(reversed(J)))
            assert sub2.components == sub.components


def test_parabolic_is_one_object_per_system_and_set():
    """Every spelling of J gives the same cached subsystem, and an index
    out of range is refused on every call: a failed call caches nothing."""
    rs = build_root_system("B", 4)
    sub = parabolic(rs, frozenset({1, 2, 4}))
    for J in ([4, 2, 1], (1, 2, 4), {2, 4, 1}, frozenset({4, 1, 2}), iter([1, 4, 2])):
        assert parabolic(rs, J) is sub
    assert parabolic(build_root_system("C", 4), [1, 2, 4]) is not sub
    for _ in range(2):
        with pytest.raises(DomainError, match="^simple index 5 out of range for B4$"):
            parabolic(rs, [1, 5])


@pytest.mark.parametrize(
    "family,rank", [("A", 4), ("B", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]
)
def test_cached_parabolic_matches_a_fresh_classification(family, rank):
    rs = build_root_system(family, rank)
    for size in range(rank + 1):
        for J in itertools.combinations(range(1, rank + 1), size):
            J = frozenset(J)
            assert parabolic(rs, J) == roots._parabolic.__wrapped__(rs, J)


def all_parabolic_components():
    """Every component of every parabolic, in every type up to rank 8."""
    for family, rank in sorted(POSITIVE_COUNTS):
        rs = build_root_system(family, rank)
        for size in range(rank + 1):
            for J in itertools.combinations(range(1, rank + 1), size):
                yield from parabolic(rs, J).components


def test_parabolic_components_are_reference_data_and_never_c2():
    """Every component of every parabolic, in every type up to rank 8, is
    labeled by its reference datum itself, and a rank-2 double bond is B2:
    the Peterson tables never see C2 through a parabolic."""
    seen = 0
    for comp in all_parabolic_components():
        datum = comp.datum
        assert datum is cartan_datum(datum.family, datum.rank)
        assert datum.name != "C2"
        seen += 1
    assert seen == 5049


def test_component_labelings_are_pinned():
    """(indices, type) of every component of every parabolic up to rank 8,
    hashed: the index order is the relabeling onto the reference diagram,
    and it reaches decompose output and PetersonWStar details."""
    h = hashlib.sha256()
    for comp in all_parabolic_components():
        h.update(repr((comp.indices, comp.datum.name)).encode())
    assert h.hexdigest() == (
        "43cf2a2edf5ecb675365ef099cc97cd3447473c11582aa2d23f4ab055e61f2b4"
    )


def relabelled_system(family, rank, perm):
    """The root system whose simple root alpha_{i+1} is the reference
    alpha_{perm[i]+1}: the same Cartan matrix under other labels."""
    M = cartan_datum(family, rank).matrix
    matrix = tuple(tuple(M[p][q] for q in perm) for p in perm)
    return roots.from_cartan(CartanDatum(family, rank, matrix))


def relabelling_cases():
    """Every labelling of G2, B3, C3 and F4, and one fixed random labelling
    of D5 and of E6."""
    rng = random.Random(5)
    for family, rank in [("G", 2), ("B", 3), ("C", 3), ("F", 4)]:
        for perm in itertools.permutations(range(rank)):
            yield family, rank, perm
    for family, rank in [("D", 5), ("E", 6)]:
        yield family, rank, tuple(rng.sample(range(rank), rank))


def test_fixed_point_verdicts_do_not_read_the_labels():
    """Under a relabelling of the simple roots, every J keeps its Levi types,
    and the Levi route keeps its verdict and reason at the first 2^|J| + 16
    admissible elements of J, all mapped by the relabelling: classification
    reads no label."""
    canonical = {}
    for family, rank, perm in relabelling_cases():
        rs = build_root_system(family, rank)
        if (family, rank) not in canonical:
            canonical[family, rank] = answers = []
            for size in range(rank + 1):
                for J in itertools.combinations(range(1, rank + 1), size):
                    cfg = hess.hess_config(rs, J)
                    levi = sorted(c.datum.name for c in parabolic(rs, J).components)
                    for w, _, _ in itertools.islice(hess.enumerate_admissible(cfg), 2**size + 16):
                        v = singular.hess_fixed_point_smooth(w, cfg)
                        answers.append((J, levi, w.perm, v.verdict, v.reason))
        new = relabelled_system(family, rank, perm)
        label = {p + 1: i + 1 for i, p in enumerate(perm)}  # reference label -> new
        # root k of rs is root index[k] of new
        index = [new.root_index[tuple(r[p] for p in perm)] for r in rs.root_list]
        for J, levi, p, verdict, reason in canonical[family, rank]:
            J_new = [label[j] for j in J]
            assert sorted(c.datum.name for c in parabolic(new, J_new).components) == levi
            image = bytearray(len(p))
            for k, x in enumerate(p):
                image[index[k]] = index[x]
            w = WeylElement(new, new.perm_type(image))
            v = singular.hess_fixed_point_smooth(w, hess.hess_config(new, J_new))
            assert (v.verdict, v.reason) == (verdict, reason), (family, perm, J)
    reasons = {reason for answers in canonical.values() for *_, reason in answers}
    assert reasons == {"SmoothByCriterion", "DeltaVMismatch", "PetersonWStar"}


def test_root_ordering_deterministic():
    rs = build_root_system("A", 3)
    assert rs.positive_roots == tuple(sorted(rs.positive_roots, key=root_key))
    assert rs.positive_roots[0] == (1, 0, 0)
    assert rs.positive_roots[-1] == (1, 1, 1)


# every entry point that takes simple indices refuses one outside 1..rank
SIMPLE_INDEX_ENTRY_POINTS = {
    "weyl.is_min_rep": lambda rs, i: is_min_rep(WeylElement.identity(rs), [i]),
    "hess.HessConfig": lambda rs, i: hess.HessConfig(rs, frozenset([i])),
    "roots.parabolic": lambda rs, i: parabolic(rs, [2, i]),
    "RootSystem.pairing": lambda rs, i: rs.pairing(rs.highest_root, i),
    "RootSystem.simple_root": lambda rs, i: rs.simple_root(i),
    "classes.peterson_dual_class": lambda rs, i: classes.peterson_dual_class([i], rs),
}


@pytest.mark.parametrize("index", [0, 5])
@pytest.mark.parametrize("entry", sorted(SIMPLE_INDEX_ENTRY_POINTS))
def test_simple_index_out_of_range_is_domain_error(entry, index):
    rs = build_root_system("B", 4)
    with pytest.raises(DomainError, match=f"^simple index {index} out of range for B4$"):
        SIMPLE_INDEX_ENTRY_POINTS[entry](rs, index)


def test_cartan_datum_is_built_once_and_invalid_pairs_always_raise():
    assert cartan_datum("E", 8) is cartan_datum("E", 8)
    assert cartan_datum("D", 3) is cartan_datum("A", 3)
    for _ in range(2):
        with pytest.raises(DomainError):
            cartan_datum("D", 2)


def test_from_cartan_builds_one_system_per_datum(monkeypatch):
    """Equal data share one system, however the datum was made; a relabelled
    datum (C2's matrix labelled B) is a datum of its own, whose system is
    built on its first call and never again."""
    a3 = cartan_datum("A", 3)
    by_hand = CartanDatum("A", 3, a3.matrix)
    assert by_hand is not a3
    assert roots.from_cartan(by_hand) is build_root_system("A", 3)
    c2 = cartan_datum("C", 2)
    b_labelled = roots.from_cartan(CartanDatum("B", 2, c2.matrix))
    assert b_labelled is not build_root_system("C", 2)
    assert b_labelled is not build_root_system("B", 2)
    assert b_labelled.cartan.family == "B"
    assert b_labelled.root_list == build_root_system("C", 2).root_list
    monkeypatch.setattr(roots, "RootSystem", lambda datum: pytest.fail("system rebuilt"))
    assert roots.from_cartan(CartanDatum("B", 2, c2.matrix)) is b_labelled
    assert roots.from_cartan(by_hand) is build_root_system("A", 3)


@pytest.mark.parametrize("datum", [
    CartanDatum("A", 3, ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))),
    CartanDatum("E", 5, cartan_datum("D", 5).matrix),
    CartanDatum("A", 2, cartan_datum("G", 2).matrix),
    CartanDatum("B", 6, cartan_datum("E", 6).matrix),
    CartanDatum("B", 3, cartan_datum("C", 3).matrix),
    CartanDatum("D", 4, ((2, -1, 0, 0), (-3, 2, 0, 0), (0, 0, 2, -1), (0, 0, -3, 2))),
    CartanDatum("A", 2, ((2, -1), (0, 2))),
], ids=[
    "affine-A2", "E5", "G2-labelled-A2", "E6-labelled-B6", "C3-labelled-B3", "G2xG2-as-D4",
    "one-sided-zero",
])
def test_from_cartan_refuses_a_datum_not_of_its_labelled_type(datum):
    """The affine A2 matrix has infinitely many positive roots, so the
    closure must stop on its own; E has no rank 5; G2's six positive roots
    are not A2's three.  E6 and B6, C3 and B3, and G2 x G2 and D4 have as
    many positive roots as each other, so these three are told apart by
    the classified diagram.  A zero entry whose transpose is not zero makes
    no Cartan matrix, though its closure here has A2's three roots.  Each
    is refused by name, and every reference datum up to rank 8 still
    builds."""
    with pytest.raises(DomainError, match=f"^{re.escape(repr(datum))} is not a Cartan matrix "):
        roots.from_cartan(datum)
    for family, rank in itertools.product(roots.FAMILIES, range(1, 9)):
        try:
            reference = cartan_datum(family, rank)
        except DomainError:
            continue
        assert roots.from_cartan(reference).cartan is reference


def test_cartan_datum_refuses_a_root_table_past_the_bound_before_building_it(monkeypatch):
    """A125 has 7875 positive roots of 125 coefficients, just under 10**6
    entries; one rank more passes the bound, in D as in A."""
    assert cartan_datum("A", 125).rank == 125
    monkeypatch.setattr(roots, "_tree_matrix", lambda *args: pytest.fail("matrix built"))
    for family, rank in (("A", 126), ("D", 101)):
        with pytest.raises(DomainError, match=f"^{family}{rank} root table: "):
            cartan_datum(family, rank)


def enumeration_bound_uses(source, module):
    """Where a module's source steps outside the one enumeration bound: a
    module other than roots.py naming DEFAULT_ENUMERATION_BOUND (by name,
    attribute or import), or any module binding another ``*_BOUND`` at
    module level."""
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "DEFAULT_ENUMERATION_BOUND" and module != "roots.py":
            found.append(name)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [
            t.id for t in targets
            if isinstance(t, ast.Name) and t.id.endswith("_BOUND")
            and t.id != "DEFAULT_ENUMERATION_BOUND"
        ]
    return found


def test_only_roots_knows_the_enumeration_bound():
    """roots.DEFAULT_ENUMERATION_BOUND is the only size bound, and only
    roots.py names it; every other module calls require_enumerable."""
    planted = "from .roots import DEFAULT_ENUMERATION_BOUND as B\nX_BOUND = 2\nroots.B = B"
    assert enumeration_bound_uses(planted, "roots.py") == ["X_BOUND"]
    planted = "from .roots import DEFAULT_ENUMERATION_BOUND\nroots.DEFAULT_ENUMERATION_BOUND"
    assert enumeration_bound_uses(planted, "weyl.py") == ["DEFAULT_ENUMERATION_BOUND"] * 2
    assert enumeration_bound_uses("Y_BOUND: int = 3", "roots.py") == ["Y_BOUND"]
    src = Path(minhess.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        assert enumeration_bound_uses(path.read_text(encoding="utf-8"), path.name) == [], path.name
