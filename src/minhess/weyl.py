"""Weyl group elements and the coset decompositions the package relies on.

An element is stored as the permutation it induces on the 2N root indices of
its root system (index k < N is the k-th positive root, k + N its negative),
following W. Casselman, "Machine calculations in Weyl groups" (Invent. Math.
116, 1994).  The permutation is ``bytes`` when 2N <= 256, so that products,
inverses and lengths run in C (``bytes.translate``, ``bytes.maketrans``),
and a tuple otherwise, chosen once by the root system.  Products, inverses,
root actions, descents, lengths and type A one-line notation are index
arithmetic; coefficient tuples appear only in ``act`` and ``root_pair``.
Words are never part of an element's identity: equality and hashing use the
permutation only.  The canonical word (least-index greedy descent stripping)
is computed on demand, or carried along by enumeration; a caller that words
many elements in one call shares the prefixes it strips.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError
from .roots import Coeffs, Perm, RootSystem, parabolic, require_enumerable


def _simple_perm(rs: RootSystem, i: int) -> Perm:
    rs.check_simple((i,))
    return rs.simple_perms[i - 1]


def _compose(rs: RootSystem, p: Perm, q: Perm) -> Perm:
    """The indices p[q[0]], p[q[1]], ... in rs's storage; for permutations,
    the product p q.  The one statement of a product: on bytes it runs in C,
    translating q through p padded to 256 entries."""
    pad = rs.perm_pad
    if pad is None:
        return tuple(map(p.__getitem__, q))
    return q.translate(p + pad)


class WeylElement:
    __slots__ = ("rs", "perm", "_word")

    def __init__(
        self, rs: RootSystem, perm: Perm, word: Optional[Tuple[int, ...]] = None
    ):
        """The element permuting the root indices of rs as perm does (bytes
        when 2N <= 256, else a tuple), with its canonical word when the
        caller knows it."""
        self.rs = rs
        self.perm = perm
        self._word = word

    # -- construction ----------------------------------------------------

    @staticmethod
    def identity(rs: RootSystem) -> "WeylElement":
        return WeylElement(rs, rs.identity_perm, ())

    @staticmethod
    def simple(rs: RootSystem, i: int) -> "WeylElement":
        return WeylElement(rs, _simple_perm(rs, i), (i,))

    @staticmethod
    def from_word(rs: RootSystem, word: Iterable[int]) -> "WeylElement":
        p = rs.identity_perm
        for i in word:
            p = _compose(rs, p, _simple_perm(rs, i))
        return WeylElement(rs, p)

    # -- group structure -------------------------------------------------

    def act(self, root: Coeffs) -> Coeffs:
        """Linear action on a root coefficient vector."""
        rs = self.rs
        return rs.root_list[self.perm[rs.root_index[rs.check_root(root)]]]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise DomainError("elements live in different root systems")
        return WeylElement(self.rs, _compose(self.rs, self.perm, other.perm))

    def inverse(self) -> "WeylElement":
        rs, perm = self.rs, self.perm
        if rs.perm_pad is not None:
            # the table of bytes.maketrans sends perm[k] to k
            return WeylElement(rs, bytes.maketrans(perm, rs.identity_perm)[: len(perm)])
        inv = [0] * len(perm)
        for k, image in enumerate(perm):
            inv[image] = k
        return WeylElement(rs, tuple(inv))

    # -- combinatorial statistics -----------------------------------------

    def length(self) -> int:
        N, perm = self.rs.npos, self.perm
        if self.rs.perm_pad is None:
            return sum(1 for image in perm[:N] if image >= N)
        # deleting the positive images leaves the negative ones
        return len(perm[:N].translate(None, self.rs.identity_perm[:N]))

    def descents(self) -> FrozenSet[int]:
        """Right descents, as 1-based simple indices."""
        N = self.rs.npos
        return frozenset(
            i + 1 for i, image in enumerate(self.perm[: self.rs.rank]) if image >= N
        )

    def word(self, known: Optional[Dict[Perm, Tuple[int, ...]]] = None) -> Tuple[int, ...]:
        """Canonical reduced word via least-index greedy descent stripping.

        Works on the permutation: the descents of w are the simple roots it
        sends to negatives, and stripping the least one, alpha_i, composes w
        with s_i.

        Each stripped element's canonical word is a prefix of w's, so a caller
        that words many related elements of one root system may share
        ``known``, a table from elements (keyed by the images of the simple
        roots, ``perm[:rank]``, which determine them) to canonical words:
        stripping stops at the first prefix in it, and every prefix stripped
        on the way is recorded.
        """
        if self._word is None:
            rs = self.rs
            N, n = rs.npos, rs.rank
            simple = rs.simple_perms
            p = self.perm
            rev = []
            keys = []
            head: Tuple[int, ...] = ()
            while True:
                key = p[:n]
                for i, image in enumerate(key):
                    if image >= N:
                        break  # i is the least descent
                else:
                    break  # no descent: p is the identity
                if known is not None:
                    hit = known.get(key)
                    if hit is not None:
                        head = hit
                        break
                    keys.append(key)
                rev.append(i + 1)
                p = _compose(rs, p, simple[i])
            rev.reverse()
            word = head + tuple(rev)
            for stripped, key in enumerate(keys):
                known[key] = word[: len(word) - stripped]
            self._word = word
        return self._word

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.rs is other.rs
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        word = self.word()
        if not word:
            return "e"
        return "*".join(f"s{i}" for i in word)


# -- longest elements and coset decompositions ----------------------------


def longest_element(rs: RootSystem, K: Iterable[int]) -> WeylElement:
    """The longest element of the parabolic subgroup generated by K."""
    return _longest(rs, frozenset(K))


@lru_cache(maxsize=None)
def _longest(rs: RootSystem, K: FrozenSet[int]) -> WeylElement:
    rs.check_simple(K)
    y = WeylElement.identity(rs)
    ks = sorted(K)
    while True:
        i = next((i for i in ks if y.perm[i - 1] < rs.npos), None)
        if i is None:
            break
        y = y * WeylElement.simple(rs, i)
    return y


def is_min_rep(w: WeylElement, J: Iterable[int]) -> bool:
    """Whether w is the shortest element of its right coset W_J w."""
    J = frozenset(J)
    w.rs.check_simple(J)
    # perm.index(j - 1) is the index of w^{-1}(alpha_j)
    return all(w.perm.index(j - 1) < w.rs.npos for j in J)


def min_right_coset_rep(w: WeylElement, J: Iterable[int]) -> Tuple[WeylElement, WeylElement]:
    """The unique reduced factorization w = y * v with y in W_J, v in ^J W.

    Peels reflections of W_J off the left of w; each step drops the length
    by exactly one, so the factorization is reduced.
    """
    rs = w.rs
    Jset = sorted(frozenset(J))
    rs.check_simple(Jset)
    y = WeylElement.identity(rs)
    v = w
    vinv = w.inverse()
    while True:
        j = next((j for j in Jset if vinv.perm[j - 1] >= rs.npos), None)
        if j is None:
            break
        s = WeylElement.simple(rs, j)
        y = y * s
        v = s * v
        vinv = vinv * s
    return y, v


def descent_decomposition(w: WeylElement) -> Tuple[WeylElement, WeylElement]:
    """The reduced factorization w = tau * y_des with tau shortest in its
    left coset modulo the descent parabolic; the one statement of it."""
    rs = w.rs
    des = w.descents()
    y = longest_element(rs, des)
    tau = w * y  # y is an involution
    # y is interned, so its canonical word, and with it its length, is
    # worked out once
    if tau.length() + len(y.word()) != w.length():
        raise RuntimeError("descent factorization is not reduced")
    if any(tau.perm[i - 1] >= rs.npos for i in des):
        raise RuntimeError("tau is not a shortest left coset representative")
    return tau, y


# -- enumeration ----------------------------------------------------------


def enumerate_min_reps(
    rs: RootSystem,
    J: Iterable[int],
    within: Optional[Iterable[int]] = None,
) -> Iterator[WeylElement]:
    """The shortest representatives of the right cosets W_J \\ W_within,
    ordered by (length, canonical word); ``within`` None means the whole group,
    and J empty enumerates every element of W_within.

    This is the parabolic factorization W_within = W_J * ^J(W_within)
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4): every shortest
    representative has a reduced word all of whose prefixes are again
    shortest representatives, so a right-multiplication search finds each
    exactly once.  The enumeration bound caps the coset count.

    Each element w other than e is reached once, from its canonical parent
    w * s_m with m = min des(w), so its word is the parent's plus (m).
    Parents come in word order and children in increasing m, so every level
    is born sorted.  By Deodhar's lemma, a length-increasing step v -> v s_i
    from a shortest representative leaves ^J W exactly when v(alpha_i) is a
    simple root of J.
    """
    gens = frozenset(range(1, rs.rank + 1) if within is None else within)
    Jset = frozenset(J)
    order = rs.weyl_order() if within is None else parabolic(rs, gens).weyl_order()
    count = order // parabolic(rs, Jset).weyl_order()
    if not Jset <= gens:
        raise DomainError(f"J={sorted(Jset)} is not contained in {sorted(gens)}")
    require_enumerable(count, f"{rs.cartan.name} cosets")
    N = rs.npos
    # (i, s_i's permutation, its entries at the simple roots alpha_j, j < i)
    steps = []
    for i in sorted(gens):
        refl = rs.simple_perms[i - 1]
        steps.append((i, refl, refl[: i - 1]))
    blocked = frozenset(j - 1 for j in Jset)
    level = [WeylElement.identity(rs)]
    while level:
        yield from level
        nxt = []
        for v in level:
            p, word = v.perm, v._word
            for i, refl, lower in steps:
                k = p[i - 1]
                if k >= N or k in blocked:
                    continue
                # (v s_i)(alpha_j) = v(s_i alpha_j): a descent j < i means
                # v s_i is reached from its canonical parent instead
                if max(map(p.__getitem__, lower), default=-1) >= N:
                    continue
                nxt.append(WeylElement(rs, _compose(rs, p, refl), word + (i,)))
        level = nxt


# -- type A one-line notation ----------------------------------------------


def _require_type_a(rs: RootSystem) -> int:
    if rs.cartan.family != "A":
        raise DomainError("one-line notation requires a type A root system")
    return rs.rank + 1


def root_pair(rs: RootSystem, root: Coeffs) -> Tuple[int, int]:
    """The 1-based (i, j) with root = eps_i - eps_j, for type A."""
    _require_type_a(rs)
    return rs.pairs[rs.root_index[rs.check_root(root)]]


def one_line(w: WeylElement) -> Tuple[int, ...]:
    """The permutation [w(1), ..., w(n)] of a type A element, read off
    w(eps_i - eps_{i+1}) = eps_{w(i)} - eps_{w(i+1)}."""
    _require_type_a(w.rs)
    pairs = [w.rs.pairs[k] for k in w.perm[: w.rs.rank]]
    return (pairs[0][0],) + tuple(b for _, b in pairs)


def from_one_line(rs: RootSystem, perm: Sequence[int]) -> WeylElement:
    """The type A element sending eps_a - eps_b to eps_{w(a)} - eps_{w(b)}."""
    n = _require_type_a(rs)
    perm = tuple(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError(f"{perm} is not a permutation of 1..{n}")
    index = _pair_index(rs)
    return WeylElement(rs, rs.perm_type(index[perm[a - 1], perm[b - 1]] for a, b in rs.pairs))


@lru_cache(maxsize=None)
def _pair_index(rs: RootSystem) -> Dict[Tuple[int, int], int]:
    """The index of each root of type A rs by its pair (a, b), the root
    eps_a - eps_b."""
    return {pair: k for k, pair in enumerate(rs.pairs)}


def one_line_str(w: WeylElement) -> str:
    table = _letter_text(w.rs)
    text = [table[i] for i in one_line(w)]
    if len(text) < 10:
        return "".join(text)
    return "[" + ",".join(text) + "]"


@lru_cache(maxsize=None)
def _letter_text(rs: RootSystem) -> Tuple[str, ...]:
    """The decimal text of 0 .. rank + 1, which spans every letter of a word
    and every value of a one-line notation in rs."""
    return tuple(map(str, range(rs.rank + 2)))


# -- compositions (type A) --------------------------------------------------


class _CompositionFields(NamedTuple):
    parts: Tuple[int, ...]


class Composition(_CompositionFields):
    """A strong composition of n, identified with a subset of simple roots."""

    __slots__ = ()

    def __new__(cls, parts: Tuple[int, ...]) -> Composition:
        if not parts or any(p < 1 for p in parts):
            raise DomainError(f"invalid composition {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def _make(cls, fields: Iterable) -> Composition:
        return cls(*fields)  # so that _replace checks the new parts too

    @staticmethod
    def of(mu: Iterable[int]) -> "Composition":
        """mu itself if it is a Composition, else the composition of its parts."""
        return mu if isinstance(mu, Composition) else Composition(tuple(mu))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def to_J(self) -> FrozenSet[int]:
        """J = Delta minus the block-boundary simple roots."""
        cuts = set(accumulate(self.parts[:-1]))
        return frozenset(i for i in range(1, self.n) if i not in cuts)

    def blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Value ranges (lo, hi), inclusive, of the blocks."""
        ends = accumulate(self.parts)
        return tuple((end - p + 1, end) for p, end in zip(self.parts, ends))

    @staticmethod
    def from_J(n: int, J: Iterable[int]) -> "Composition":
        Jset = frozenset(J)
        if not Jset <= set(range(1, n)):
            raise DomainError(f"J must be a subset of 1..{n - 1}")
        cuts = [0] + sorted(set(range(1, n)) - Jset) + [n]
        return Composition(tuple(b - a for a, b in zip(cuts, cuts[1:])))


def compositions(n: int) -> List[Tuple[int, ...]]:
    """The parts of all strong compositions of n; the k-th has a block
    boundary after i + 1 exactly when bit i of k is set."""
    return [
        Composition.from_J(n, [i + 1 for i in range(n - 1) if not k >> i & 1]).parts
        for k in range(2 ** (n - 1))
    ]
