"""Every answer of the smoothness routes and of ``decompose_admissible``,
pinned by sha256 over the ``repr`` of the full results, so that a faster
route which changes a verdict, a reason, a citation, a detail, a Jacobian
entry or a factor of a decomposition fails here.  The digests were taken
before the fixed-point and Hessenberg-Schubert routes were made cheaper."""

from __future__ import annotations

import hashlib
import itertools

from minhess import hess, oracle, singular
from minhess.roots import build_root_system
from minhess.weyl import compositions


def decomposition_row(dec):
    """Every field of a decomposition, each element by its canonical word
    and each set sorted."""
    return (
        dec.w.word(),
        sorted(dec.K),
        dec.v.word(),
        dec.tau.word(),
        sorted(dec.des),
        dec.y_des.word(),
        sorted(dec.Jw),
        sorted(dec.delta_v),
        sorted(dec.vinv_K),
    )


def test_type_a_answers_up_to_n5_are_pinned():
    """The six routes' full results and the decomposition of all 1080
    admissible (w, mu) with n <= 5; a Jacobian's repr holds its rows,
    columns, sparse rows, rank, verdict and note."""
    h = hashlib.sha256()
    pairs = 0
    for n in range(2, 6):
        for parts in compositions(n):
            cfg = hess.config_from_mu(parts)
            for w, _, _ in hess.enumerate_admissible(cfg):
                row = (
                    parts,
                    decomposition_row(hess.decompose_admissible(w, cfg)),
                    singular.hess_fixed_point_smooth(w, cfg),
                    singular.typeA_fixed_point_smooth(w, parts),
                    oracle.jacobian_at_fixed_point(w, parts),
                    oracle.linear_terms_closed_form(w, parts),
                    singular.hess_schubert_smooth(w, cfg),
                    singular.typeA_hess_schubert_smooth(w, parts),
                )
                h.update(repr(row).encode())
                pairs += 1
    assert pairs == 1080
    assert h.hexdigest() == "581674c641870ed65bfc8ff5d0e7b017035cd432253b64348006272c5fdc85b8"


def test_other_types_answers_are_pinned():
    """The decomposition and both general routes on every admissible w of
    every J of B3, C3, D4, G2 and F4."""
    h = hashlib.sha256()
    pairs = 0
    for family, rank in [("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        rs = build_root_system(family, rank)
        for size in range(rank + 1):
            for J in itertools.combinations(range(1, rank + 1), size):
                cfg = hess.hess_config(rs, J)
                for w, _, _ in hess.enumerate_admissible(cfg):
                    row = (
                        family,
                        rank,
                        J,
                        decomposition_row(hess.decompose_admissible(w, cfg)),
                        singular.hess_fixed_point_smooth(w, cfg),
                        singular.hess_schubert_smooth(w, cfg),
                    )
                    h.update(repr(row).encode())
                    pairs += 1
    assert pairs == 8220
    assert h.hexdigest() == "4c8029824438633fad576180206e055863f5f6d88a642fd07c8f0169ed064551"
