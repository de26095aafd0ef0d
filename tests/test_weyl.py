"""Weyl element arithmetic, with coset decompositions checked against
exhaustive search in small groups."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minhess.errors import DomainError, EnumerationBoundError
from minhess.roots import build_root_system, is_positive, negate, root_key
from minhess.weyl import (
    Composition,
    WeylElement,
    compositions,
    descent_decomposition,
    enumerate_min_reps,
    from_one_line,
    is_min_rep,
    longest_element,
    min_right_coset_rep,
    one_line,
    one_line_str,
)


def support(root):
    """1-based simple indices with a nonzero coefficient in the root."""
    return frozenset(i + 1 for i, c in enumerate(root) if c)


def inversions(w):
    """The positive roots w sends to negatives, read off act."""
    return frozenset(r for r in w.rs.positive_roots if not is_positive(w.act(r)))


def images(w):
    """The images of the simple roots alpha_1 .. alpha_n, read off act."""
    return tuple(w.act(a) for a in w.rs.simple_roots)


def in_parabolic(w, K):
    """Whether w lies in W_K: its canonical word uses only letters of K."""
    return set(w.word()) <= set(K)


def from_images(rs, images):
    """The element sending alpha_{i+1} to images[i], built by summing
    coefficient vectors over every root: independent of the root index
    tables.  Every root must be carried to a root, and the element is
    built in the root system's storage of permutations."""
    n = rs.rank
    carried = [
        tuple(sum(c * im[k] for c, im in zip(r, images) if c) for k in range(n))
        for r in rs.root_list
    ]
    assert all(image in rs.roots for image in carried)
    return WeylElement(rs, rs.perm_type(rs.root_index[image] for image in carried))


def test_act_identity_and_simple():
    rs = build_root_system("A", 3)
    e = WeylElement.identity(rs)
    s1 = WeylElement.simple(rs, 1)
    theta = rs.highest_root
    assert e.act(theta) == theta
    assert s1.act(rs.simple_root(1)) == negate(rs.simple_root(1))
    w0 = longest_element(rs, [1, 2, 3])
    assert w0.act(theta) == negate(theta)


def test_inversions_descents_length():
    rs = build_root_system("A", 3)
    w = from_one_line(rs, (3, 4, 2, 1))
    assert sorted(w.descents()) == [2, 3]
    assert w.length() == len(inversions(w)) == 5
    e = WeylElement.identity(rs)
    assert e.length() == 0 and not inversions(e)
    w0 = longest_element(rs, [1, 2, 3])
    assert w0.length() == len(rs.positive_roots)


def test_group_axioms_small():
    rs = build_root_system("B", 2)
    elements = list(enumerate_min_reps(rs, ()))
    assert len(elements) == 8
    for w in elements:
        assert w * w.inverse() == WeylElement.identity(rs)
        for u in elements:
            prod = w * u
            assert prod in elements


def test_longest_elements():
    a3 = build_root_system("A", 3)
    assert longest_element(a3, []) == WeylElement.identity(a3)
    y = longest_element(a3, [1, 2])
    assert one_line(y) == (3, 2, 1, 4)
    assert y.length() == 3
    assert y * y == WeylElement.identity(a3)
    b4 = build_root_system("B", 4)
    w0 = longest_element(b4, [1, 2, 3, 4])
    assert w0.length() == 16
    # the longest element fixes the positives outside its parabolic
    yk = longest_element(b4, [1, 2])
    for r in b4.positive_roots:
        inside = support(r) <= {1, 2}
        image = yk.act(r)
        if inside:
            assert not is_positive(image)
        else:
            assert is_positive(image)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_reduced_product_inversion_identity(family, rank):
    """inv(yv) = inv(v) + v^{-1} inv(y) whenever the product is reduced."""
    rs = build_root_system(family, rank)
    elements = list(enumerate_min_reps(rs, ()))
    for y, v in itertools.product(elements, repeat=2):
        w = y * v
        if w.length() != y.length() + v.length():
            continue
        vinv = v.inverse()
        expected = set(inversions(v)) | {vinv.act(r) for r in inversions(y)}
        assert set(inversions(w)) == expected


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_coset_decomposition_against_search(family, rank):
    rs = build_root_system(family, rank)
    elements = list(enumerate_min_reps(rs, ()))
    for J in itertools.chain.from_iterable(
        itertools.combinations(range(1, rank + 1), k) for k in range(rank + 1)
    ):
        members_J = [z for z in elements if in_parabolic(z, J)]
        for w in elements:
            y, v = min_right_coset_rep(w, J)
            assert y * v == w
            assert y.length() + v.length() == w.length()
            assert is_min_rep(v, J)
            assert in_parabolic(y, J)
            # v is the unique shortest element of the coset W_J w
            coset = {z * w for z in members_J}
            shortest = min(coset, key=lambda u: u.length())
            assert v == shortest
            # descent factorization
            tau, ydes = descent_decomposition(w)
            assert tau * ydes == w
            assert ydes == longest_element(rs, w.descents())
            assert tau.length() + ydes.length() == w.length()


def test_one_line_round_trip():
    rs = build_root_system("A", 7)
    perm = (2, 3, 5, 8, 6, 7, 4, 1)
    w = from_one_line(rs, perm)
    assert one_line(w) == perm
    assert one_line_str(w) == "23586741"
    # from n = 10 on a value can have two digits, so the string is bracketed
    a9 = build_root_system("A", 9)
    perm = (10, 1, 2, 3, 4, 5, 6, 7, 9, 8)
    assert one_line_str(from_one_line(a9, perm)) == "[10,1,2,3,4,5,6,7,9,8]"
    assert one_line(WeylElement.identity(rs)) == tuple(range(1, 9))
    a3 = build_root_system("A", 3)
    assert one_line(WeylElement.simple(a3, 2)) == (1, 3, 2, 4)
    with pytest.raises(DomainError):
        from_one_line(a3, (1, 1, 2, 3))
    with pytest.raises(DomainError):
        one_line(WeylElement.identity(build_root_system("B", 2)))


def test_one_line_products_compose():
    rs = build_root_system("A", 4)
    perms = list(itertools.permutations(range(1, 6)))[:40]
    for p in perms:
        for q in perms[::7]:
            wp, wq = from_one_line(rs, p), from_one_line(rs, q)
            assert one_line(wp * wq) == tuple(p[v - 1] for v in q)


def test_enumerate_group_sizes_and_order():
    a2 = build_root_system("A", 2)
    els = list(enumerate_min_reps(a2, ()))
    assert len(els) == 6
    lengths = [w.length() for w in els]
    assert lengths == sorted(lengths)
    assert len(set(els)) == 6
    a9 = build_root_system("A", 9)
    with pytest.raises(EnumerationBoundError) as exc:
        next(enumerate_min_reps(a9, ()))
    assert "3628800" in str(exc.value)
    assert next(enumerate_min_reps(a9, [1, 2])).length() == 0  # 604800 cosets


@pytest.mark.parametrize(
    "family,rank,J", [("B", 3, None), ("F", 4, None), ("E", 6, [1, 3, 5]), ("D", 5, [2])]
)
def test_enumeration_carries_canonical_words_in_order(family, rank, J):
    rs = build_root_system(family, rank)
    els = list(enumerate_min_reps(rs, () if J is None else J))
    words = [w.word() for w in els]
    assert words == sorted(words, key=lambda word: (len(word), word))
    assert len(set(els)) == len(els)
    for w, word in zip(els, words):
        assert from_images(rs, images(w)).word() == word
    if J is not None:
        assert all(is_min_rep(v, J) for v in els)


def test_parabolic_enumeration_matches_group_filter():
    """W_K is the set of shortest representatives of the trivial cosets in
    W_K, in the same (length, canonical word) order as the whole group.  The
    enumeration bound counts cosets in W_K, not in W."""
    rs = build_root_system("B", 3)
    K = [2, 3]
    members = [w for w in enumerate_min_reps(rs, ()) if in_parabolic(w, K)]
    assert list(enumerate_min_reps(rs, (), within=K)) == members
    assert len(list(enumerate_min_reps(rs, [2], within=K))) == len(members) // 2 == 4
    e8 = build_root_system("E", 8)
    with pytest.raises(EnumerationBoundError):
        next(enumerate_min_reps(e8, ()))
    assert len(list(enumerate_min_reps(e8, (), within=[1, 3, 4]))) == 24
    with pytest.raises(DomainError):
        list(enumerate_min_reps(rs, [1], within=K))


def test_simple_index_range():
    rs = build_root_system("B", 4)
    for i in (0, -1, 5):
        with pytest.raises(DomainError):
            WeylElement.simple(rs, i)
        with pytest.raises(DomainError):
            WeylElement.from_word(rs, [1, i])
        with pytest.raises(DomainError):
            rs.pairing(rs.highest_root, i)
        with pytest.raises(DomainError):
            rs.reflect_simple(rs.highest_root, i)


def test_min_rep_enumeration_tables():
    a3 = build_root_system("A", 3)
    J = Composition((2, 2)).to_J()
    reps = [one_line_str(v) for v in enumerate_min_reps(a3, J)]
    assert reps == ["1234", "1324", "3124", "1342", "3142", "3412"]
    b4 = build_root_system("B", 4)
    assert sum(1 for _ in enumerate_min_reps(b4, [1, 2, 4])) == 32


def test_min_rep_block_increasing_characterization():
    """Type A minimal representatives are exactly the block-increasing words."""
    rs = build_root_system("A", 3)
    mu = Composition((2, 2))
    J = mu.to_J()
    reps = set(enumerate_min_reps(rs, J))
    for perm in itertools.permutations((1, 2, 3, 4)):
        w = from_one_line(rs, perm)
        pos = {v: i for i, v in enumerate(perm)}
        increasing = all(
            pos[lo + k] < pos[lo + k + 1]
            for lo, hi in mu.blocks()
            for k in range(hi - lo)
        )
        assert (w in reps) == increasing


def test_composition_j_round_trip():
    mu = Composition((4, 3, 1))
    assert mu.n == 8 and mu.length == 3
    assert sorted(mu.to_J()) == [1, 2, 3, 5, 6]
    assert Composition.from_J(8, mu.to_J()) == mu
    assert mu.blocks() == ((1, 4), (5, 7), (8, 8))
    with pytest.raises(DomainError):
        Composition((0, 3))
    assert Composition.from_J(4, []) == Composition((1, 1, 1, 1))
    assert Composition.from_J(4, [1, 2, 3]) == Composition((4,))
    assert compositions(3) == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    for n in range(1, 7):
        parts = compositions(n)
        assert len(set(parts)) == 2 ** (n - 1) and all(sum(p) == n for p in parts)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_length_changes_by_one_under_right_multiplication(family, rank):
    rs = build_root_system(family, rank)
    for w in enumerate_min_reps(rs, ()):
        for i in range(1, rank + 1):
            step = (w * WeylElement.simple(rs, i)).length() - w.length()
            assert step == (1 if is_positive(w.act(rs.simple_root(i))) else -1)


def test_canonical_words_deterministic():
    rs = build_root_system("A", 3)
    w = from_one_line(rs, (3, 1, 2, 4))
    assert w.word() == (2, 1)
    v = from_one_line(rs, (1, 3, 4, 2))
    assert v.word() == (2, 3)
    assert WeylElement.from_word(rs, w.word()) == w


# -- properties over every family, from random words ------------------------

SYSTEMS = [
    ("A", 1), ("A", 6), ("B", 5), ("C", 4), ("D", 6),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_root_index_tables(family, rank):
    rs = build_root_system(family, rank)
    N = rs.npos
    for k, root in enumerate(rs.root_list):
        assert rs.support_mask[k] == sum(1 << (i - 1) for i in support(root))
        assert rs.root_list[(k + N) % (2 * N)] == negate(root)
        if family == "A":
            # eps coordinates of sum c_m (eps_m - eps_{m+1}) are c_p - c_{p-1}
            c = (0,) + root + (0,)
            eps = [c[p] - c[p - 1] for p in range(1, rank + 2)]
            i, j = rs.pairs[k]
            assert eps == [(p == i) - (p == j) for p in range(1, rank + 2)]
    in_order = [rs.root_list[k] for k in sorted(range(2 * N), key=rs.index_keys.__getitem__)]
    assert in_order == sorted(rs.root_list, key=root_key)


def bubble_word(line):
    """A reduced word of the permutation with this one-line notation: sort it
    by adjacent swaps w -> w s_i, then read the swaps backwards."""
    line, swaps = list(line), []
    while True:
        i = next((i for i in range(len(line) - 1) if line[i] > line[i + 1]), None)
        if i is None:
            return tuple(reversed(swaps))
        line[i], line[i + 1] = line[i + 1], line[i]
        swaps.append(i + 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_from_one_line_exhaustive(n):
    rs = build_root_system("A", n - 1)
    for line in itertools.permutations(range(1, n + 1)):
        w = from_one_line(rs, line)
        word = bubble_word(line)
        assert w == WeylElement.from_word(rs, word)
        assert w.length() == len(word)
        assert one_line(w) == line


@st.composite
def elements(draw, count=1):
    family, rank = draw(st.sampled_from(SYSTEMS))
    rs = build_root_system(family, rank)
    words = [draw(st.lists(st.integers(1, rank), max_size=30)) for _ in range(count)]
    return rs, [WeylElement.from_word(rs, word) for word in words]


@settings(max_examples=150, deadline=None)
@given(elements(count=3))
def test_group_axioms(drawn):
    rs, (u, v, w) = drawn
    e = WeylElement.identity(rs)
    assert (u * v) * w == u * (v * w)
    assert e * u == u == u * e
    assert u * u.inverse() == e == u.inverse() * u
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=150, deadline=None)
@given(elements())
def test_length_inversions_and_words(drawn):
    rs, (w,) = drawn
    word = w.word()
    assert w.length() == len(inversions(w)) == len(word)
    assert WeylElement.from_word(rs, word) == w
    assert w.inverse() == WeylElement.from_word(rs, reversed(word))
    assert w.descents() == {
        i for i in range(1, rs.rank + 1) if not is_positive(w.act(rs.simple_root(i)))
    }


@settings(max_examples=150, deadline=None)
@given(elements())
def test_images_round_trip(drawn):
    rs, (w,) = drawn
    rebuilt = from_images(rs, images(w))
    assert sorted(rebuilt.perm) == list(range(2 * rs.npos))
    assert rebuilt == w and hash(rebuilt) == hash(w)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SYSTEMS).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(st.integers(1, t[1]), max_size=30))
))
def test_act_matches_reflecting_letter_by_letter(drawn):
    (family, rank), word = drawn
    rs = build_root_system(family, rank)
    w = WeylElement.from_word(rs, word)
    for root in rs.root_list:
        image = root
        for i in reversed(word):
            image = rs.reflect_simple(image, i)
        assert w.act(root) == image


# -- the two storages of a permutation, at their boundary --------------------

# each pair straddles 2N = 256: the first stores permutations as bytes, the
# second as tuples
BOUNDARY = [
    ("A", 15), ("A", 16), ("B", 11), ("B", 12),
    ("C", 11), ("C", 12), ("D", 11), ("D", 12),
]


def reference_simples(rs):
    """Each s_i's permutation of root indices as a tuple, from reflecting
    every coefficient vector: independent of rs.simple_perms."""
    return {
        i: tuple(rs.root_index[rs.reflect_simple(r, i)] for r in rs.root_list)
        for i in range(1, rs.rank + 1)
    }


def compose(p, q):
    """The tuple permutation k -> p[q[k]]."""
    return tuple(p[k] for k in q)


@pytest.mark.parametrize("family,rank", BOUNDARY)
def test_both_storages_against_a_tuple_reference(family, rank):
    rs = build_root_system(family, rank)
    N = rs.npos
    assert rs.perm_type is (bytes if 2 * N <= 256 else tuple)
    simples = reference_simples(rs)

    def reference(word):
        p = tuple(range(2 * N))
        for i in word:
            p = compose(p, simples[i])
        return p

    def canonical_word(p):
        """Least-index greedy descent stripping on the tuple."""
        rev = []
        while True:
            i = next((i for i in range(1, rank + 1) if p[i - 1] >= N), None)
            if i is None:
                return tuple(reversed(rev))
            rev.append(i)
            p = compose(p, simples[i])

    rng = random.Random(f"{family}{rank}")
    known = {}
    for _ in range(12):
        u_word, v_word = (
            [rng.randint(1, rank) for _ in range(rng.randint(0, 40))] for _ in range(2)
        )
        u, v = WeylElement.from_word(rs, u_word), WeylElement.from_word(rs, v_word)
        ru, rv = reference(u_word), reference(v_word)
        assert tuple(u.perm) == ru and tuple(v.perm) == rv
        assert tuple((u * v).perm) == compose(ru, rv)
        inverse = [0] * (2 * N)
        for k, image in enumerate(ru):
            inverse[image] = k
        assert tuple(u.inverse().perm) == tuple(inverse)
        assert u.length() == sum(image >= N for image in ru[:N])
        assert u.descents() == {i for i in range(1, rank + 1) if ru[i - 1] >= N}
        word = u.word()
        assert word == canonical_word(ru) and len(word) == u.length()
        assert WeylElement.from_word(rs, word) == u
        assert WeylElement(rs, u.perm).word(known) == word
        rebuilt = WeylElement(rs, rs.perm_type(ru))
        assert rebuilt == u and hash(rebuilt) == hash(u) == hash(rs.perm_type(ru))
        assert {u: word}[rebuilt] == word
        assert (u == v) == (ru == rv)


@pytest.mark.parametrize("family,rank", BOUNDARY + [("E", 8), ("G", 2)])
def test_every_constructor_returns_the_systems_storage(family, rank):
    rs = build_root_system(family, rank)
    u = WeylElement.from_word(rs, [1, 2, rank, 1, rank - 1])
    built = [
        WeylElement.identity(rs),
        WeylElement.simple(rs, rank),
        u,
        u * u,
        u.inverse(),
        longest_element(rs, range(1, rank + 1)),
        longest_element(rs, [1, 2]),
        *min_right_coset_rep(u, [1]),
        *descent_decomposition(u),
        *itertools.islice(enumerate_min_reps(rs, range(2, rank + 1)), 40),
    ]
    if family == "A":
        built.append(from_one_line(rs, range(rank + 1, 0, -1)))
    assert {type(w.perm) for w in built} == {rs.perm_type}


def list_inverse(perm):
    inverse = [0] * len(perm)
    for k, image in enumerate(perm):
        inverse[image] = k
    return tuple(inverse)


@pytest.mark.parametrize(
    "family,rank,words,storage",
    [
        ("G", 2, None, bytes), ("B", 3, None, bytes), ("E", 8, 30, bytes),
        ("A", 16, 30, tuple), ("B", 12, 30, tuple),
    ],
)
def test_inverse_and_length_match_the_list_loop(family, rank, words, storage):
    """inverse and length against a loop over the permutation as a list:
    on every element of G2 and B3, and on random words in E8 (bytes) and in
    A16 and B12 (tuples)."""
    rs = build_root_system(family, rank)
    N = rs.npos
    assert rs.perm_type is storage
    if words is None:
        els = list(enumerate_min_reps(rs, ()))
        assert len(els) == {"G": 12, "B": 48}[family]
    else:
        rng = random.Random(f"inverse {family}{rank}")
        els = [
            WeylElement.from_word(rs, [rng.randint(1, rank) for _ in range(rng.randint(0, 60))])
            for _ in range(words)
        ]
    for w in els:
        inverse = w.inverse()
        assert type(inverse.perm) is rs.perm_type
        assert tuple(inverse.perm) == list_inverse(tuple(w.perm))
        assert w.length() == sum(1 for image in w.perm[:N] if image >= N)
        assert inverse.length() == w.length()
