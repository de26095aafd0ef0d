"""Reference predicates that several test modules check the package
against, stated once here."""

from __future__ import annotations

import itertools

from minhess import hess, oracle
from minhess.errors import DomainError


def support(root):
    """1-based simple indices with a nonzero coefficient in the root."""
    return frozenset(i + 1 for i, c in enumerate(root) if c)


def in_closure(v, w, cfg):
    """Whether v's cell lies in the closure of w's, for admissible w: v is
    admissible, des(v) lies in des(w), and w^{-1} v lies in W_des(w), which
    holds when its canonical word uses only letters of des(w)."""
    des = w.descents()
    return (
        hess.is_admissible(v, cfg)
        and v.descents() <= des
        and set((w.inverse() * v).word()) <= des
    )


def matrix_admissible(w, mu):
    """Whether the fixed point of w lies in the variety: the chart at w, and
    the oracle's own membership test on its constant terms at X."""
    cfg, chart = oracle._chart(w, mu)
    try:
        oracle._require_in_variety(oracle.regular_matrix(cfg.mu), chart, "fixed point")
    except DomainError:
        return False
    return True


def paper_smooth_K(family, rank):
    """The paper's table of the K whose Peterson fixed point is smooth: the
    whole of Delta, and the walls Delta minus an end node in type A and
    Delta minus alpha_1 in type B; every other K is singular.  C2 is B2
    with the chain read from the long root, k -> 3 - k."""
    if (family, rank) == ("C", 2):
        return frozenset(frozenset(3 - k for k in K) for K in paper_smooth_K("B", 2))
    full = frozenset(range(1, rank + 1))
    if family == "A":
        return frozenset((full, full - {1}, full - {rank}))
    if family == "B":
        return frozenset((full, full - {1}))
    return frozenset((full,))


def paper_no_linear_term(family, rank, K):
    """The paper's table of the K whose distinguished patch generator has no
    linear term: every K but Delta and the walls Delta minus a cominuscule
    node, listed per family."""
    full = frozenset(range(1, rank + 1))
    Kset = frozenset(K)
    if Kset == full:
        return False
    missing = full - Kset
    if len(missing) != 1:
        return True
    (beta,) = missing
    if family == "A":
        return False
    if family == "B":
        return beta != 1
    if family == "C":
        return beta != rank
    if family == "D":
        return beta not in (1, rank - 1, rank)
    if family == "E" and rank == 6:
        return beta not in (1, 6)
    if family == "E" and rank == 7:
        return beta != 7
    return True  # E_8, F_4, G_2


def first_pattern_tuple(seq, pattern):
    """The plain scan for a pattern: every index tuple in lexicographic
    order, the first whose entries are in the order of the pattern's
    (seq[a] < seq[b] wherever pattern[a] < pattern[b]), or None."""
    k = len(pattern)
    rel = [(a, b) for a in range(k) for b in range(k) if pattern[a] < pattern[b]]
    for idx in itertools.combinations(range(len(seq)), k):
        if all(seq[idx[a]] < seq[idx[b]] for a, b in rel):
            return idx
    return None
