"""Command line behavior: payload shapes, exit codes, byte stability."""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minhess
from minhess import cli, hess, oracle, verification
from minhess.cli import _json_text, main
from minhess.roots import build_root_system
from minhess.weyl import WeylElement, longest_element, one_line_str
from references import in_closure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def readme_commands():
    """The argument lists of the ``minhess ...`` lines in README's
    "Command line" example block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("minhess ")]
    assert commands, "no minhess examples found in README"
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_runs(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if "--dot" in argv:
        assert out.startswith("digraph ") and out.endswith("}\n")
    else:
        assert json.loads(out)["command"] == argv[0]


def outputs_digest(capsys, commands):
    """sha256 of (argv, exit code, stdout) of each command, in order."""
    h = hashlib.sha256()
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        h.update(repr((argv, code, out)).encode())
    return h.hexdigest()


def test_readme_outputs_are_pinned(capsys):
    """Every README example, hashed: the example outputs are byte-stable
    across changes that keep every answer.  Re-pinned when paper-tables
    gained its last check, top-closure-poincare; every other output kept
    its bytes."""
    assert outputs_digest(capsys, readme_commands()) == (
        "c0ef9d24e2275fba544e67a3b5215543e494093664e2a4653488a5152f315d61"
    )


HEAVY_COMMANDS = [
    ["peterson-singular-locus", "--family", "E", "--rank", "8"],
    ["class", "--family", "E", "--rank", "8", "--J", "1,2,3,7", "--w", "8,6", "--form", "k-theory"],
    ["admissible", "--family", "E", "--rank", "6", "--J", "1,3,5", "--list"],
    ["oracle", "--mu", "3,2", "--w", "s1", "--u1",
     "[[1,0,0,0,0],[0,1,0,-1,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,0,1]]"],
    ["class", "--mu", "1,1,1,1,1,1", "--w", "123456", "--expand"],
]


def test_heavy_outputs_are_pinned(capsys):
    """The largest answers, hashed as the README examples are: they nest
    deeper (lists of lists, fractions inside lists, a 7920-element listing)."""
    assert outputs_digest(capsys, HEAVY_COMMANDS) == (
        "060401789bd99e92073121a24e066c7d344fb8401d6aea311b37a05fb8a7d4d5"
    )


def json_values():
    """Values for ``json.dumps``: every JSON kind, the non-finite floats,
    ints past the int-to-string limit, tuples, non-``str`` and mixed dict
    keys, and Fractions, which JSON cannot encode."""
    huge = st.builds(lambda k, sign: sign * 10**k, st.integers(4200, 4400), st.sampled_from([1, -1]))
    scalars = (
        st.none() | st.booleans() | st.integers() | huge | st.floats()
        | st.text() | st.fractions()
    )
    keys = st.text() | st.integers() | st.booleans()
    return st.recursive(
        scalars,
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(), children, max_size=4)
            | st.dictionaries(keys, children, max_size=4)
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(json_values())
def test_json_text_is_the_stdlib_text(value):
    try:
        expected = json.dumps(value, indent=2, sort_keys=True)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            _json_text(value)
        assert type(raised.value) is type(exc)
    else:
        assert _json_text(value) == expected


def element_dict(w):
    """An element as a plain dict: its canonical word and, in type A, its
    one-line text; the CLI writes its element leaf as this dict's text."""
    out = {"word": list(w.word())}
    if w.rs.cartan.family == "A":
        out["one_line"] = one_line_str(w)
    return out


def stdlib_text(value, indent):
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


@pytest.mark.parametrize("family, rank, J, limit", [
    ("G", 2, (), None),
    ("A", 9, (1, 2, 5), 3000),
    ("E", 6, (1, 3, 5), 1000),
    ("B", 10, (1, 2, 3, 4, 5, 6, 7), 1000),
    ("A", 10, (2, 3, 4, 5, 6, 7, 8, 9), 1000),
])
def test_element_leaf_text_is_the_dict_text(family, rank, J, limit):
    """G2 J=() holds the identity (the empty word), and every A9 and A10
    element has a bracketed one-line text (n = 10, 11); the others are
    checked on a prefix of the enumeration, long enough that its words use
    every letter up to the rank, so that B10 and A10 write two-digit
    letters and A10 the one-line value 11."""
    cfg = hess.hess_config(build_root_system(family, rank), J)
    elements = [w for w, _, _ in itertools.islice(hess.enumerate_admissible(cfg), limit)]
    assert max(itertools.chain.from_iterable(w.word() for w in elements)) == rank
    for w in elements:
        for indent in ("\n", "\n      "):
            assert _json_text(cli._element(w), indent) == stdlib_text(element_dict(w), indent)


INDENTS = ("\n", "\n  ", "\n      ")


def long_list_texts(leaf, indent, monkeypatch):
    """The text of a long-list leaf at indent, as its chunks join up with
    4096 (the default), 7 and 1 items a chunk."""
    texts = ["".join(leaf.chunks(indent))]
    for size in (7, 1):
        monkeypatch.setattr(cli, "_CHUNK", size)
        texts.append("".join(leaf.chunks(indent)))
    monkeypatch.undo()
    return texts


@pytest.mark.parametrize("family, rank, J, limit", [
    ("G", 2, (), None),
    ("A", 3, (1, 3), None),
    ("A", 9, (1, 2, 5), 300),
    ("E", 6, (1, 3, 5), 300),
    ("A", 10, (2, 3, 4, 5, 6, 7, 8, 9), 300),
], ids=str)
def test_elements_leaf_text_is_the_list_text(family, rank, J, limit, monkeypatch):
    """The listing leaf writes the list of element dicts: G2 J=() holds the
    identity's empty word, A3 one-lines below n = 10 and A9 and A10
    bracketed ones, E6 no one-lines at all."""
    cfg = hess.hess_config(build_root_system(family, rank), J)
    elements = [w for w, _, _ in itertools.islice(hess.enumerate_admissible(cfg), limit)]
    leaf = cli._Elements(cfg.rs, elements)
    assert len(leaf) == len(elements)
    for indent in INDENTS:
        expected = stdlib_text([element_dict(w) for w in elements], indent)
        assert long_list_texts(leaf, indent, monkeypatch) == [expected] * 3


@pytest.mark.parametrize("family, rank, J, w", [
    ("A", 3, (1, 3), "3421"),
    ("A", 9, (1, 2, 5), "[3,2,1,8,4,7,5,6,10,9]"),
    ("A", 10, (2, 3, 4, 5, 6, 7, 8, 9), "[1,6,5,4,3,2,7,9,8,11,10]"),
    ("G", 2, (1,), "1,2,1,2,1,2"),
    ("E", 6, (1, 3, 5), "4,5,6,5,4,3,2,4,2,1"),
], ids=str)
def test_cells_leaf_text_is_the_list_text(family, rank, J, w, monkeypatch):
    """The closure leaf writes the list of {"dim", "v", "x"} dicts: type A
    cells below n = 10 and from n = 10 on, and G2's top closure, whose
    first cell has the identity as both v and x."""
    cfg = hess.hess_config(build_root_system(family, rank), J)
    cells = hess.closure_intersecting_cells(cli._parse_element(cfg.rs, w), cfg)
    leaf = cli._Cells(cfg.rs, cells)
    assert len(leaf) == len(cells) > 1
    plain = [{"dim": c.dim, "v": element_dict(c.v), "x": element_dict(c.x)} for c in cells]
    for indent in INDENTS:
        assert long_list_texts(leaf, indent, monkeypatch) == [stdlib_text(plain, indent)] * 3


def test_empty_long_lists_are_the_empty_list_text(monkeypatch):
    for family, rank in (("A", 2), ("G", 2)):
        rs = build_root_system(family, rank)
        for leaf in (cli._Elements(rs, []), cli._Cells(rs, ())):
            assert len(leaf) == 0
            for indent in INDENTS:
                assert long_list_texts(leaf, indent, monkeypatch) == ["[]"] * 3


@pytest.mark.parametrize("q", [0, 1, -1, -7, 10**30, Fraction(1, 2), Fraction(-3, 4), Fraction(-10**20, 3)])
def test_rational_leaf_text_is_the_dict_text(q):
    as_dict = {"num": str(Fraction(q).numerator), "den": str(Fraction(q).denominator)}
    for indent in ("\n", "\n      "):
        assert _json_text(cli._frac(q), indent) == stdlib_text(as_dict, indent)


def test_a_leaf_is_no_json_value_to_the_stdlib():
    """Past the writer's own recursion a leaf is an unknown object, so it
    fails as any non-JSON value does, never as a list or a number."""
    with pytest.raises(Exception) as stdlib:
        json.dumps({1: Fraction(1, 2)}, indent=2, sort_keys=True)
    w = WeylElement.from_word(build_root_system("A", 2), [1, 2])
    for leaf in (cli._element(w), cli._frac(Fraction(1, 2)), cli._frac(3)):
        for value in ({1: leaf}, [{"a": {2: leaf}}]):
            with pytest.raises(Exception) as raised:
                _json_text(value)
            assert type(raised.value) is type(stdlib.value)


def admissible_list_reference(family, rank, J):
    """The text of ``admissible --list``, rendered by json.dumps over plain
    dicts built here."""
    cfg = hess.hess_config(build_root_system(family, rank), J)
    config = {"family": family, "rank": rank, "J": sorted(J)}
    if cfg.mu is not None:
        config["mu"] = list(cfg.mu.parts)
    elements = [element_dict(w) for w, _, _ in hess.enumerate_admissible(cfg)]
    doc = {
        "command": "admissible",
        "config": config,
        "payload": {"count": len(elements), "elements": elements},
        "citations": ["cell-nonemptiness-criterion"],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("family, rank, J", [
    ("C", 5, (2, 4)), ("A", 7, (1, 2, 3, 5, 6)), ("B", 5, (1, 3, 5)),
    ("D", 5, (1, 3, 5)), ("F", 4, (1, 3)), ("G", 2, (1,)),
], ids=str)
def test_admissible_list_is_the_dict_text(capsys, family, rank, J):
    """The coset listings other than E6, whose digest is pinned with the heavy
    outputs."""
    J_text = ",".join(map(str, J))
    code, out, _ = run(capsys, "admissible", "--family", family, "--rank", str(rank), "--J", J_text, "--list")
    assert code == 0
    # compared line by line: pytest's diff of two megabyte strings takes minutes
    assert out.splitlines(keepends=True) == admissible_list_reference(family, rank, J).splitlines(keepends=True)


@pytest.mark.parametrize("mu, w, u1", [
    ("3,1", "1324", None),
    ("2,2", "3214", '[[1,0,"-1/2",0],[0,1,1,0],[0,0,1,0],[0,0,0,1]]'),
    ("2,1,2", "31254", '[[1,"1/3",0,0,0],[0,1,0,0,0],[0,0,1,"-2",0],[0,0,0,1,0],[0,0,0,0,1]]'),
])
def test_oracle_matrix_is_the_dense_fraction_text(capsys, mu, w, u1):
    """The printed Jacobian is the dense matrix of JacobianResult, each entry
    a {"num", "den"} dict, in the stdlib's text."""
    argv = ["oracle", "--mu", mu, "--w", w] + (["--u1", u1] if u1 else [])
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    parts = tuple(map(int, mu.split(",")))
    if u1:
        u1_matrix = [[cli._u1_entry(x) for x in row] for row in json.loads(u1)]
        res = oracle.jacobian_at_cell_point(tuple(map(int, w)), parts, u1_matrix)
    else:
        res = oracle.jacobian_at_fixed_point(tuple(map(int, w)), parts)
    dense = [[{"num": str(x.numerator), "den": str(x.denominator)} for x in row] for row in res.matrix]
    assert doc["payload"]["matrix"] == dense


def test_count_smooth(capsys):
    doc = run_json(capsys, "count-smooth", "--mu", "4,3,1")
    assert doc["payload"]["count"] == "54"
    assert doc["command"] == "count-smooth"
    assert doc["citations"]
    # C^1 has exactly one flag
    assert run_json(capsys, "count-smooth", "--mu", "1")["payload"]["count"] == "1"


def test_count_smooth_prints_counts_past_the_int_string_limit(capsys):
    """2000 blocks of size one give 2000!, 5736 digits: more than str(int)
    converts by default, printed exactly and with the limit left alone."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    doc = run_json(capsys, "count-smooth", "--mu", ",".join(["1"] * 2000))
    count = doc["payload"]["count"]
    assert len(count) == 5736 and count.isdigit()
    assert Decimal(count) == math.factorial(2000)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_matching_J_beside_mu_is_accepted(capsys):
    plain = run_json(capsys, "decompose", "--mu", "2,2", "--w", "3421")
    assert run_json(capsys, "decompose", "--mu", "2,2", "--J", "3,1", "--w", "3421") == plain


def test_fixed_point_smooth_type_a(capsys):
    doc = run_json(
        capsys,
        "fixed-point-smooth", "--family", "A", "--rank", "5", "--mu", "4,2",
        "--w", "653214",
    )
    assert doc["payload"]["verdict"] == "smooth"
    doc = run_json(capsys, "fixed-point-smooth", "--mu", "4,2", "--w", "521634")
    assert doc["payload"]["verdict"] == "singular"
    assert doc["payload"]["reason"] == "BlockSplit"


def test_fixed_point_smooth_general_type(capsys):
    doc = run_json(
        capsys,
        "fixed-point-smooth", "--family", "B", "--rank", "4", "--J", "1,2,4",
        "--w", "4",
    )
    assert doc["payload"]["verdict"] == "singular"
    assert "peterson-singular-set" in doc["citations"]


def test_admissible_count_and_list(capsys):
    doc = run_json(capsys, "admissible", "--family", "A", "--rank", "2", "--J", "1,2")
    assert doc["payload"]["count"] == 4
    doc = run_json(
        capsys, "admissible", "--family", "A", "--rank", "3", "--mu", "2,2", "--list"
    )
    assert doc["payload"]["count"] == 14
    assert len(doc["payload"]["elements"]) == 14
    lines = {e["one_line"] for e in doc["payload"]["elements"]}
    assert "3421" in lines and "3241" not in lines


def test_decompose_payload(capsys):
    doc = run_json(
        capsys,
        "decompose", "--family", "B", "--rank", "4", "--J", "1,2,4", "--w", "1,3,4",
    )
    payload = doc["payload"]
    assert payload["K"] == [1]
    assert payload["des"] == [1, 4]
    assert payload["J_w"] == [1]
    assert payload["tau"]["word"] == [3]
    assert payload["cell_dimension"] == 2
    assert {c["type"] for c in payload["levi_components"]} == {"A1"}


def test_closure_json_and_dot(capsys):
    doc = run_json(capsys, "closure", "--mu", "2,2", "--w", "3421")
    cells = doc["payload"]["cells"]
    assert [c["v"]["one_line"] for c in cells] == [
        "3124", "3214", "3142", "3412", "3421",
    ]
    code, out, _ = run(capsys, "closure", "--mu", "2,2", "--w", "3421", "--dot")
    assert code == 0
    assert out.startswith("digraph closure {")
    assert '"3412" -> "3421"' in out


@pytest.mark.parametrize("config", [
    ("--mu", "2,2"), ("--mu", "1,1,1,1"), ("--mu", "2,1,2"),
    ("--family", "B", "--rank", "3", "--J", "2,3"),
], ids=" ".join)
def test_closure_dot_edges_are_the_covering_relations(capsys, config):
    """For every admissible w, hess.closure_covers and the DOT edges are the
    transitive reduction of the closure order on the closure's cells,
    found by brute force."""
    if config[0] == "--mu":
        cfg = hess.config_from_mu(tuple(int(p) for p in config[1].split(",")))
        name = one_line_str
    else:
        cfg = hess.hess_config(build_root_system("B", 3), {2, 3})
        name = repr
    for w, _, _ in hess.enumerate_admissible(cfg):
        vs = [c.v for c in hess.closure_intersecting_cells(w, cfg)]
        order = {
            (a, b) for a in vs for b in vs
            if a != b and in_closure(a, b, cfg)
        }
        covers = sorted(
            (name(a), name(b)) for a, b in order
            if not any((a, c) in order and (c, b) in order for c in vs)
        )
        assert sorted((name(a), name(b)) for a, b in hess.closure_covers(vs)) == covers
        word = ",".join(f"s{i}" for i in w.word()) or "e"
        code, out, _ = run(capsys, "closure", *config, "--w", word, "--dot")
        assert code == 0
        edges = [
            tuple(part.strip(' ";') for part in line.split("->"))
            for line in out.splitlines() if "->" in line
        ]
        assert edges == covers


def test_class_expand(capsys):
    doc = run_json(capsys, "class", "--mu", "2,2", "--w", "3421", "--expand")
    payload = doc["payload"]
    assert payload["scalar"] == {"num": "1", "den": "4"}
    assert len(payload["factor_roots"]) == 4
    assert payload["expanded"]["terms"]


def test_oracle_fixed_and_cell(capsys):
    doc = run_json(capsys, "oracle", "--mu", "3,1", "--w", "s2")
    assert doc["payload"]["rank"] == 3
    assert doc["payload"]["verdict"] == "smooth"
    u1 = "[[1,0,0,0],[0,1,1,0],[0,0,1,0],[0,0,0,1]]"
    # x12 = 0, x23 = 1 requires the (1,3) entry -1/2
    u1 = '[[1,0,"-1/2",0],[0,1,1,0],[0,0,1,0],[0,0,0,1]]'
    doc = run_json(capsys, "oracle", "--mu", "2,2", "--w", "3214", "--u1", u1)
    assert doc["payload"]["verdict"] == "smooth"
    assert doc["payload"]["note"]


def test_peterson_singular_locus(capsys):
    doc = run_json(capsys, "peterson-singular-locus", "--family", "B", "--rank", "2")
    assert doc["payload"]["singular_K"] == [[], [1]]


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "decompose", "--mu", "2,2", "--w", "3241")
    assert code == 1
    assert not out
    assert json.loads(err)["error"]["kind"] == "domain"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_byte_stability(capsys):
    first = run(capsys, "decompose", "--mu", "2,2", "--w", "3421")
    second = run(capsys, "decompose", "--mu", "2,2", "--w", "3421")
    assert first == second


def test_verify_suites_exit_zero(capsys):
    for suite, extra in [
        ("paper-tables", []),
        ("cross-validate", ["--max-rank", "4"]),
        ("cominuscule", ["--max-rank", "5"]),
        ("fig1", []),
    ]:
        code, out, err = run(capsys, "verify", "--suite", suite, *extra)
        assert code == 0, (suite, out, err)
        doc = json.loads(out)
        assert doc["payload"]["failures"] == 0


def test_verify_failure_exit_code(capsys, monkeypatch):
    from minhess import verification

    monkeypatch.setitem(
        verification.SUITES,
        "paper-tables",
        lambda max_rank: [verification.Check("forced", False, "injected failure")],
    )
    code, out, _ = run(capsys, "verify", "--suite", "paper-tables")
    assert code == 3
    assert json.loads(out)["payload"]["failures"] == 1


def test_notation_flags(capsys):
    """--w has one grammar, so there is no --notation; the texts its two
    values once forced have spellings of their own."""
    for notation in ("one-line", "word"):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--mu", "2,2", "--w", "3421", "--notation", notation])
        assert exc.value.code == 2
    for text in ("[3,4,2,1]", "12312"):
        doc = run_json(capsys, "decompose", "--mu", "2,2", "--w", text)
        assert doc["config"]["w"]["one_line"] == "3421"


@pytest.mark.parametrize(
    "rank,text,one_line",
    [
        (3, "e", "1234"),
        (3, "", "1234"),
        (3, "3421", "3421"),
        (3, "[3,4,2,1]", "3421"),
        (3, "12312", "3421"),
        (3, "s3", "1243"),
        (4, "1,3,4", "21453"),
        (4, "s1,s3,s4", "21453"),
        (12, "s12", "[1,2,3,4,5,6,7,8,9,10,11,13,12]"),
        (12, "1,2", "[2,3,1,4,5,6,7,8,9,10,11,12,13]"),
        (12, "[13,1,2,3,4,5,6,7,8,9,10,11,12]", "[13,1,2,3,4,5,6,7,8,9,10,11,12]"),
    ],
)
def test_element_grammar(capsys, rank, text, one_line):
    """The one reading of --w: identity, bracketed one-line notation, words
    with commas or a leading s, and bare digits as a permutation of 1..n or
    else a word of one-digit letters."""
    config = ["--family", "A", "--rank", str(rank), "--J", ""]
    doc = run_json(capsys, "fixed-point-smooth", *config, "--w", text)
    assert doc["config"]["w"]["one_line"] == one_line


@pytest.mark.parametrize("n", [10, 11])
def test_echoed_bracketed_one_line_reads_back(capsys, n):
    """From n = 10 on, one_line is echoed as [w(1),...,w(n)]; that text
    names the same element again."""
    mu = ",".join("1" * n)
    words = [[1], [n - 1], list(range(1, n)), [2, 1, 3, 2, n - 1], list(range(n - 1, 0, -1)) * 2]
    for word in words:
        text = ",".join(f"s{i}" for i in word)
        echoed = run_json(capsys, "decompose", "--mu", mu, "--w", text)
        w = echoed["config"]["w"]
        assert w["one_line"].startswith("[")
        again = run_json(capsys, "decompose", "--mu", mu, "--w", w["one_line"])
        assert again["config"]["w"] == w


def test_cache_flag_is_usage_error(tmp_path):
    """Enumeration is cheaper than loading a cache, so there is none."""
    with pytest.raises(SystemExit) as exc:
        main([
            "admissible", "--family", "A", "--rank", "3", "--J", "1,3",
            "--cache", str(tmp_path / "cosets.json"),
        ])
    assert exc.value.code == 2


@pytest.mark.parametrize("w", ["s0", "1,5"])
def test_out_of_range_simple_index_is_domain_error(capsys, w):
    code, out, err = run(
        capsys, "decompose", "--family", "B", "--rank", "4", "--J", "1,2,4", "--w", w
    )
    assert code == 1
    assert not out
    assert json.loads(err)["error"]["kind"] == "domain"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--suite", "cross-validate", "--max-rank", "0"], "max_rank"),
        (["verify", "--suite", "cominuscule", "--max-rank", "-1"], "max_rank"),
        (["admissible", "--mu", "2,2", "--rank", "0"], "--rank 0 conflicts"),
        (["admissible", "--family", "A", "--rank", "0"], "rank must be positive"),
        (["admissible", "--mu", "", "--family", "A", "--rank", "3"], "invalid composition"),
        (["decompose", "--mu", "2,2", "--J", "1", "--w", "3421"], "--J 1 conflicts"),
        (["verify", "--suite", "fig1", "--max-rank", "1"], "takes no max_rank"),
        (["verify", "--suite", "paper-tables", "--max-rank", "99"], "takes no max_rank"),
    ],
)
def test_zero_or_empty_is_a_value_not_an_absent_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert not out
    error = json.loads(err)["error"]
    assert error["kind"] == "domain" and message in error["message"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["decompose", "--family", "B", "--mu", "2,2", "--w", "e"], "--mu implies a type A"),
        (["decompose", "--w", "e"], "need either --mu or both --family and --rank"),
        (["decompose", "--mu", "2,2", "--w", "x"], "cannot parse element 'x'"),
        (["decompose", "--family", "A", "--rank", "1", "--J", "", "--w", "1,2"],
         "simple index 2 out of range for A1"),
        (["decompose", "--family", "A", "--rank", "10", "--J", "", "--w", "10"],
         "element '10' is ambiguous"),
        (["fixed-point-smooth", "--family", "A", "--rank", "12", "--J", "", "--w", "12"],
         "element '12' is ambiguous"),
        # C^1 has no type A root system: the error names the composition,
        # not a --rank the user never gave
        *(
            ([command, "--mu", "1", *rest], "composition (1,)")
            for command, *rest in [
                ["decompose", "--w", "e"], ["closure", "--w", "e"],
                ["fixed-point-smooth", "--w", "e"], ["class", "--w", "e"],
                ["admissible"], ["oracle", "--w", "e"],
            ]
        ),
        # refused before its 3000 x 3000 Cartan matrix is built
        (["peterson-singular-locus", "--family", "A", "--rank", "3000"],
         "A3000 root table: 13504500000 entries exceed"),
    ],
)
def test_configuration_and_element_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert not out
    error = json.loads(err)["error"]
    assert error["kind"] == "domain" and message in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--mu", "2,2", "--w", "ss2"],
        ["decompose", "--mu", "2,2", "--w", "1,ss2"],
        ["decompose", "--mu", "2,,2", "--w", "e"],
        ["decompose", "--mu", "2,2,", "--w", "e"],
        ["admissible", "--family", "A", "--rank", "3", "--J", "1,,3"],
        ["admissible", "--mu", "2,2", "--J", "1,,3"],
    ],
)
def test_malformed_list_tokens_are_input_errors(capsys, argv):
    """A word letter takes at most one leading s, and a list has no empty
    entries: each is refused, not read as a nearby valid text."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["kind"] == "input"


def test_oracle_answers_n_7_and_takes_no_size_bound(capsys):
    """The oracle takes any n whose root system builds: w0 at mu = (4, 3)
    answers, and no option sets a bound of its own."""
    code, out, err = run(capsys, "oracle", "--mu", "4,3", "--w", "7654321")
    assert (code, err) == (0, "")
    payload = json.loads(out)["payload"]
    assert (payload["verdict"], payload["rank"], len(payload["rows"])) == ("smooth", 15, 15)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--mu", "4,3", "--w", "e", "--size-bound", "7"])
    assert exc.value.code == 2


def test_cross_validate_refuses_an_oversized_rank_before_sweeping(capsys, monkeypatch):
    from minhess import oracle

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran before the coset total was checked")

    monkeypatch.setattr(oracle, "jacobian_at_fixed_point", refuse)
    for max_rank in ("8", "17", "1000000"):
        code, out, err = run(capsys, "verify", "--suite", "cross-validate", "--max-rank", max_rank)
        assert code == 1
        assert not out
        assert json.loads(err) == {"error": {
            "kind": "domain",
            "message": "n=9 cosets: 7087261 entries exceed the enumeration bound 1000000",
        }}


def test_cominuscule_refuses_an_oversized_rank_before_scanning(capsys, monkeypatch):
    from minhess import singular

    def refuse(*args, **kwargs):
        raise AssertionError("the scan ran before the size bound was checked")

    monkeypatch.setattr(singular, "cominuscule_check", refuse)
    # the first running total past the bound: A, B, C and D to rank 17, or
    # A to rank 19
    for max_rank, total in (("17", 1048487), ("100", 1048555)):
        code, out, err = run(capsys, "verify", "--suite", "cominuscule", "--max-rank", max_rank)
        assert code == 1
        assert not out
        assert json.loads(err) == {"error": {
            "kind": "domain",
            "message": f"max_rank {max_rank} subsets: {total} entries exceed the enumeration"
                       " bound 1000000",
        }}


def test_peterson_locus_refuses_rank_20_before_scanning(capsys, monkeypatch):
    """2^20 subsets K pass the enumeration bound, so A20 and A21 are refused
    before the smooth set is found or any subset is visited."""
    from minhess import singular

    def refuse(*args, **kwargs):
        raise AssertionError("the smooth set was built before the bound was checked")

    monkeypatch.setattr(singular, "_smooth_K", refuse)
    for rank in (20, 21):
        code, out, err = run(capsys, "peterson-singular-locus", "--family", "A", "--rank", str(rank))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "kind": "domain",
            "message": f"A{rank} Peterson subsets: {2**rank} entries exceed the enumeration"
                       " bound 1000000",
        }}


def test_fixed_point_smooth_rejects_non_admissible(capsys):
    """Type A has a pattern criterion that would answer for any permutation;
    outside the variety the only right answer is the domain error."""
    for config, w in [
        (["--mu", "2,2"], "3241"),
        (["--family", "A", "--rank", "5", "--mu", "4,2"], "654312"),
        (["--family", "B", "--rank", "4", "--J", "1,2,4"], "2,1"),
    ]:
        code, out, err = run(capsys, "fixed-point-smooth", *config, "--w", w)
        assert code == 1
        assert not out
        assert json.loads(err)["error"]["kind"] == "domain"


@pytest.mark.parametrize("u1", ["5", "null", "[1,2]", "[[1,0],[0,true]]", '{"a": 1}'])
def test_oracle_u1_must_be_a_matrix(capsys, u1):
    code, out, err = run(capsys, "oracle", "--mu", "1,1", "--w", "21", "--u1", u1)
    assert code == 1
    assert not out
    assert json.loads(err)["error"]["kind"] == "input"


def test_oracle_u1_from_file(capsys, tmp_path):
    u1 = '[[1,0,"-1/2",0],[0,1,1,0],[0,0,1,0],[0,0,0,1]]'
    path = tmp_path / "u1.json"
    path.write_text(u1)
    argv = ["oracle", "--mu", "2,2", "--w", "3214", "--u1"]
    from_file = run(capsys, *argv, f"@{path}")
    assert from_file[0] == 0 and from_file == run(capsys, *argv, u1)
    code, out, err = run(capsys, *argv, f"@{tmp_path / 'missing.json'}")
    assert code == 1
    assert not out
    assert json.loads(err)["error"]["kind"] == "input"


def test_oracle_u1_zero_denominator_is_input_error(capsys, tmp_path):
    u1 = '[["1/0",0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]'
    path = tmp_path / "u1.json"
    path.write_text(u1)
    for text in (u1, f"@{path}"):
        code, out, err = run(capsys, "oracle", "--mu", "2,2", "--w", "3214", "--u1", text)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "kind": "input", "message": "--u1 has an entry with a zero denominator",
        }}


def test_oracle_u1_exponent_past_4300_is_input_error(capsys):
    """Fraction builds 10**exponent, which took 12 s for 1e10000000; the
    entry is refused first, and a small exponent still reads."""
    u1 = '[[1,"%s",0],[0,1,0],[0,0,1]]'
    code, out, err = run(capsys, "oracle", "--mu", "2,1", "--w", "213", "--u1", u1 % "1e10000000")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {
        "kind": "input", "message": "--u1 has an entry with an exponent past 4300",
    }}
    code, out, err = run(capsys, "oracle", "--mu", "2,1", "--w", "213", "--u1", u1 % "1e3")
    assert (code, err) == (0, "")
    assert out == run(capsys, "oracle", "--mu", "2,1", "--w", "213", "--u1", u1 % "1000")[1]


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    from minhess import hess

    def broken(w, cfg):
        raise TypeError("injected")

    monkeypatch.setattr(hess, "decompose_admissible", broken)
    code, out, err = run(capsys, "decompose", "--mu", "2,2", "--w", "3421")
    assert code == 4
    assert not out
    error = json.loads(err)["error"]
    assert error["kind"] == "internal"
    assert error["message"] == "TypeError: injected"
    assert "Traceback" in error["traceback"]


def test_unencodable_payload_prints_nothing_on_stdout(capsys, monkeypatch):
    """An answer that JSON cannot encode is an internal error, and no part
    of it reaches stdout."""
    from minhess import cli

    verdict = cli._verdict
    monkeypatch.setattr(cli, "_verdict", lambda v: {**verdict(v), "detail": Fraction(1, 2)})
    code, out, err = run(capsys, "fixed-point-smooth", "--mu", "2,2", "--w", "3421")
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "internal"
    assert error["message"] == "TypeError: Object of type Fraction is not JSON serializable"


E6_W0 = ",".join(map(str, longest_element(build_root_system("E", 6), range(1, 7)).word()))


@pytest.mark.parametrize("argv", [
    ["admissible", "--family", "E", "--rank", "6", "--J", "1,3,5", "--list"],
    ["closure", "--family", "E", "--rank", "6", "--J", "1,3,5", "--w", E6_W0],
], ids=lambda argv: argv[0])
def test_an_error_midway_through_a_long_answer_prints_nothing(capsys, monkeypatch, argv):
    """A long list is written in chunks, but only once all its items are
    made: an enumeration that fails after more than a chunk of its 7920
    items is an internal error, and no part of the answer reaches stdout."""
    admissible = hess._admissible

    def failing(*args):
        yield from itertools.islice(admissible(*args), 5000)
        raise RuntimeError("injected after 5000 items")

    monkeypatch.setattr(hess, "_admissible", failing)
    assert cli._CHUNK < 5000
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"]["message"] == "RuntimeError: injected after 5000 items"


ELEMENT_TEXTS = [
    "e", "", "21", "3421", "12312", "[2,1]", "[3,4,2,1]", "[1,1]", "1,3,4", "s1,s3,s4",
    "s3", "s0", "4", "1,9", "[", "1,", "s", "ss2", "x", "[1,e]", "-1", "00",
]
U1_TEXTS = [
    "[[1,0],[0,1]]", "[[1,1],[0,1]]", '[["1/2",0],[0,1]]', '[["1/0",0],[0,1]]',
    '[["inf",0],[0,1]]', '[[1,"0x1"],[0,1]]', "[[1,0,0],[0,1,0],[0,0,1]]", "[[1,0],[0]]",
    "[[1]]", "[]", "[[2,0],[0,1]]", "[[1,0],[1,1]]", "null", "[[", '"x"',
]


SYSTEMS = [("A", r) for r in range(1, 7)] + [(f, r) for f in "BC" for r in range(2, 7)] + [
    ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("F", 4), ("G", 2),
]


SUBCOMMANDS = [
    "admissible", "decompose", "closure", "fixed-point-smooth", "peterson-singular-locus",
    "count-smooth", "class", "oracle", "verify",
]


def random_argv(rng):
    """One command line over all nine subcommands, with ranks up to 6 and a
    fair share of malformed values."""
    pick = rng.choice
    family, rank = pick(SYSTEMS)
    parts = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
    mu = ",".join(map(str, parts))
    J = ",".join(str(i) for i in range(1, rank + 1) if rng.random() < 0.5)
    if rng.random() < 0.3:
        config = pick([
            ["--family", family, "--rank", str(rank), "--J", pick(["0", "1,,2", "x"])],
            ["--family", pick("EFG"), "--rank", str(rank)],
            ["--mu", pick(["", "0", "1", "2,-1", "a"])],
            ["--mu", mu, "--J", J],
            ["--family", family, "--mu", mu],
            ["--rank", str(rank)],
        ])
    elif rng.random() < 0.5:
        config = ["--family", family, "--rank", str(rank), "--J", pick([J, ""])]
    else:
        config, rank = ["--mu", mu], sum(parts) - 1

    def element(rank):
        word = [rng.randint(1, rank) for _ in range(rng.randint(1, 4))]
        return ["--w", pick([
            pick(ELEMENT_TEXTS), ",".join(map(str, word)), ",".join(f"s{i}" for i in word),
        ])]

    command = pick(SUBCOMMANDS)
    if command == "admissible":
        return [command, *config] + (["--list"] if rng.random() < 0.5 else [])
    if command in ("decompose", "fixed-point-smooth"):
        return [command, *config, *element(rank)]
    if command == "closure":
        return [command, *config, *element(rank)] + (["--dot"] if rng.random() < 0.5 else [])
    if command == "class":
        extra = [pick(["--expand", "--form=k-theory", "--form=bogus"])]
        return [command, *config, *element(rank), *(extra if rng.random() < 0.5 else [])]
    if command == "peterson-singular-locus":
        return [command, "--family", family, "--rank", str(rank)]
    if command == "count-smooth":
        return [command, "--mu", pick([mu, mu, "", "0", "1,,1", "b"])]
    if command == "oracle":
        n = sum(parts)
        u1 = [[int(i == j) for j in range(n)] for i in range(n)]
        u1[0][n - 1] = pick([2, "-1/2", "1/0", "inf"])
        u1 = ["--u1", pick([json.dumps(u1), pick(U1_TEXTS)])] if rng.random() < 0.6 else []
        return [command, "--mu", pick([mu, mu, "x"]), *element(n - 1), *u1]
    suite = pick(["paper-tables", "cross-validate", "cominuscule", "fig1", "none"])
    if suite in ("paper-tables", "fig1") and rng.random() < 0.5:
        return [command, "--suite", suite]  # the other suites' defaults take a second
    return [command, "--suite", suite, "--max-rank", pick(["0", "1", "3", "17"])]


def test_random_command_lines_fail_cleanly(capsys):
    """Seeded random command lines, malformed ones among them: none is an
    internal error, and every domain or input error leaves stdout empty and
    prints one JSON error."""
    rng = random.Random(0)
    for _ in range(1000):
        argv = random_argv(rng)
        try:
            code, out, err = run(capsys, *argv)
        except SystemExit as exc:
            code, out, err = exc.code, *capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, err)
        if code == 1:
            assert out == "", argv
            assert err.count("\n") == 1, argv
            assert json.loads(err)["error"]["kind"] in ("domain", "input"), argv


def parse_outcome(capsys, parse, argv):
    """The namespace ``parse`` gives, or the exit code and both streams of
    the exit it ends in."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        return ("exit", exc.code, *capsys.readouterr())
    return ("parsed", vars(args), *capsys.readouterr())


# Lines that are not plain: the reader hands each to argparse.
NOT_PLAIN = [
    ["admissible", "--fam", "A", "--rank", "3"],
    ["decompose", "--mu", "2,2", "--w", "3421", "--w", "3421"],
    ["admissible", "--mu", "2,2", "--list", "--list"],
    ["peterson-singular-locus", "--family", "A", "--rank", "-1"],
    ["count-smooth", "--mu", "-1,2"],
    ["decompose", "--mu", "2,2", "--w"],
    ["decompose", "--mu", "2,2", "-h"],
    ["decompose", "--mu", "2,2", "--", "--w", "3421"],
    ["decompose", "--mu", "2,2", "--w", "3421", "--"],
    ["decompose", "--mu=2,2", "--w=3421"],
    ["decompose", "--mu", "2,2", "--J", "--w", "3421"],
    ["admissible", "--family", "A", "--rank", "7.0"],
    ["admissible", "--family", "Z", "--rank", "3"],
    ["class", "--mu", "2,2", "--w", "3421", "--form", "bogus"],
    ["admissible", "--mu", "2,2", "--w", "3421"],
    ["verify", "--suite", "fig1", "--max", "3"],
    ["oracle", "--w", "s2"],
    ["decompose", "--mu", "2,2", "--w", "3421", "extra"],
]


def test_subcommand_dispatch_matches_the_top_level_parse(capsys):
    """A plain line is read from the command table and every other line by
    argparse; every outcome is the top-level parse's, exit messages included."""
    from minhess.cli import _parse_args, _parser

    rng = random.Random(0)
    argvs = [random_argv(rng) for _ in range(1000)]
    argvs += [[], ["-h"], ["nonsense"], *([command, "-h"] for command in SUBCOMMANDS)]
    argvs += [
        ["decompose", "--mu", "2,2"],
        ["decompose", "--mu", "2,2", "--w", "1", "--bogus"],
        *NOT_PLAIN,
        ["admissible", "--family", "A", "--rank", "3", "--J", ""],  # "" is a value
    ]
    for argv in argvs:
        expected = parse_outcome(capsys, _parser().parse_args, argv)
        assert parse_outcome(capsys, _parse_args, argv) == expected, argv


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=" ".join)
def test_the_reader_declines_every_line_that_is_not_plain(argv):
    from minhess.cli import _read_plain

    assert _read_plain(argv[0], argv[1:]) is None


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_the_reader_answers_every_readme_line(argv):
    """Each README example is a plain line: the table reader, not argparse,
    gives its namespace, and that namespace is argparse's."""
    from minhess.cli import _parser, _read_plain

    args = _read_plain(argv[0], argv[1:])
    assert args is not None
    assert vars(args) == vars(_parser().parse_args(argv))


# One plain line per subcommand that sets every option the subcommand has.
EVERY_OPTION = [
    ["admissible", "--family", "B", "--rank", "3", "--J", "1,3", "--mu", "2,2", "--list"],
    ["decompose", "--family", "A", "--rank", "3", "--J", "1,3", "--mu", "2,2", "--w", "3421"],
    ["closure", "--family", "A", "--rank", "3", "--J", "1,3", "--mu", "2,2", "--w", "3421",
     "--dot"],
    ["fixed-point-smooth", "--family", "A", "--rank", "3", "--J", "1,3", "--mu", "2,2",
     "--w", "3421"],
    ["peterson-singular-locus", "--family", "F", "--rank", "4"],
    ["count-smooth", "--mu", "4,3,1"],
    ["class", "--family", "A", "--rank", "3", "--J", "1,3", "--mu", "2,2", "--w", "3421",
     "--form", "k-theory", "--expand"],
    ["oracle", "--mu", "3,1", "--w", "s2", "--u1", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"],
    ["verify", "--suite", "fig1", "--max-rank", "3"],
]


@pytest.mark.parametrize("argv", EVERY_OPTION, ids=lambda argv: argv[0])
def test_the_reader_answers_a_line_that_sets_every_option(argv):
    """A plain line that sets each of its subcommand's options is read by
    the table reader, not argparse, into argparse's namespace."""
    from minhess.cli import _COMMANDS, _parser, _read_plain

    flags = [flag for flag, _ in _COMMANDS[argv[0]][2]]
    assert sorted(token for token in argv if token.startswith("--")) == sorted(flags)
    args = _read_plain(argv[0], argv[1:])
    assert args is not None
    assert vars(args) == vars(_parser().parse_args(argv))


def test_every_option_is_one_the_reader_understands():
    """Each option is a long flag with only keywords the plain-line reader
    follows: ``action="store_true"``, ``type``, ``choices``, ``required``,
    ``default`` (not a str beside a type, which argparse would convert) and
    ``help``.  An option added with ``nargs``, ``append``, a ``dest`` or the
    like fails here before the reader can misread it."""
    from minhess.cli import _COMMANDS

    assert sorted(_COMMANDS) == sorted(SUBCOMMANDS)
    understood = {"action", "type", "choices", "required", "default", "help"}
    for command, (_, _, options) in _COMMANDS.items():
        flags = [flag for flag, _ in options]
        assert len(set(flags)) == len(flags), command
        for flag, keywords in options:
            assert flag.startswith("--") and flag[2:3].isalpha(), (command, flag)
            assert set(keywords) <= understood, (command, flag)
            assert keywords.get("action", "store_true") == "store_true", (command, flag)
            # argparse would convert a str default by the type on every parse
            assert not ("type" in keywords and isinstance(keywords.get("default"), str))


# sha256 of the help each line prints on stdout, at 80 columns.
HELP_DIGESTS = {
    "-h": "9e8f5b60babb95be26fc2cbfae60b74101ce2b2cdd3d172647b4b2120c9df7ce",
    "admissible -h": "0c0f170ad9debac8e31d54bb72c46a6c3537450fad31699c0b1fc66917921316",
    "decompose -h": "c0146ebec1664fe00bbd5378b61018d045bf4a8963e29405dfd57a7016c3840a",
    "closure -h": "c32ee1560072479debcaf8aaf75d47471bcc8bea618357c021d9d412668f39af",
    "fixed-point-smooth -h": "dd1145e63f9c5f728f23541bca56513bfb97328ae37d9c19338362d44f2ff539",
    "peterson-singular-locus -h":
        "cb45ab712aa7bfa6d75e243ebea15b7c1d8e622d86653295b110f7a3c43db323",
    "count-smooth -h": "548020716ddb5019bdcebb3ea59224cad4575f578d5b9d2c1752f4b3697d63eb",
    "class -h": "5bb806f4f62134376c5ab67e11dd0f081c09c5e05dfeb9620bf4f39c0982fc65",
    "oracle -h": "f55ed868e25e3efa8716097310b911eda4064c6b713cf10e7578653d657362fd",
    "verify -h": "fdf06359e5cdb11ca5ae74d3870e481d63f9ca5518b03c52f6e7226fb86df422",
}


def test_help_text_is_byte_stable(capsys, monkeypatch):
    """The top-level help and each subcommand's help print the same bytes
    as ever, so an option whose help, order or presence changes shows."""
    monkeypatch.setenv("COLUMNS", "80")
    assert sorted(HELP_DIGESTS) == sorted(["-h", *(f"{c} -h" for c in SUBCOMMANDS)])
    for line, digest in HELP_DIGESTS.items():
        with pytest.raises(SystemExit) as exc:
            main(line.split())
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, ""), line
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line


PRIVATE_ARGPARSE_ATTRIBUTES = {
    "_actions", "_defaults", "_mutually_exclusive_groups", "_option_string_actions",
    "_StoreAction",
}


def private_argparse_reads(source):
    """The private argparse names a module's source reads: any ``argparse._*``
    or ``from argparse import _*``, and the parser internals above by any
    attribute access."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr in PRIVATE_ARGPARSE_ATTRIBUTES
            or node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id == "argparse"
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return sorted(found)


def test_no_module_reads_a_private_argparse_name():
    """The command line states its options in its own table and reads
    argparse only through its public interface."""
    assert private_argparse_reads(
        "import argparse\np._actions\nargparse._StoreAction\nfrom argparse import _SubParsersAction"
    ) == [(2, "_actions"), (3, "_StoreAction"), (4, "_SubParsersAction")]
    src = Path(minhess.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        assert private_argparse_reads(path.read_text(encoding="utf-8")) == [], path.name


def fresh_argv(argv):
    """The command and environment that run the command line in a process
    of its own, on this source tree."""
    src = str(Path(minhess.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return [sys.executable, "-m", "minhess.cli", *argv], env


def fresh_process(argv, **kwargs):
    """Run the command line in a process of its own, on this source tree."""
    command, env = fresh_argv(argv)
    return subprocess.run(command, env=env, timeout=60, **kwargs)


def test_reused_parser_matches_fresh_processes(capsys):
    """The parser is built once per process; successive commands through it
    print what each prints in a process of its own."""
    from minhess.cli import _parser

    assert _parser() is _parser()
    commands = [
        ["oracle", "--mu", "3,1", "--w", "s2"],
        ["decompose", "--family", "B", "--rank", "4", "--J", "1,2,4", "--w", "1,3,4"],
        ["count-smooth", "--mu", "4,3,1"],
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        fresh = fresh_process(argv, capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_cold_import_loads_no_dataclasses_inspect_or_traceback():
    """Importing the command line in a fresh interpreter loads none of
    dataclasses, inspect (which dataclasses imports) and traceback, which
    together cost every one-shot call about 8 ms: records are named tuples,
    and traceback is imported only when an internal error is reported."""
    src = str(Path(minhess.__file__).resolve().parents[1])
    probe = (
        "import sys, minhess.cli; "
        "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_verify_suites_are_named_without_loading_verification():
    """The option table names the suites that verification.SUITES holds, so
    that importing the command line does not load minhess.verification;
    `verify` loads it."""
    assert cli._SUITES == tuple(sorted(verification.SUITES))
    src = str(Path(minhess.__file__).resolve().parents[1])
    probe = (
        "import sys, minhess.cli; print('minhess.verification' in sys.modules); "
        "minhess.cli.main(['verify', '--suite', 'fig1']); "
        "print('minhess.verification' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout.split("\n", 1)[0], proc.stderr) == (0, "False", "True\n")


def test_closed_stdout_exits_quietly_with_sigpipe_status():
    """A reader that has closed its end of the pipe, as `| head -1` does,
    ends the command with 128 + SIGPIPE and no error document."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh_process(["count-smooth", "--mu", "4,3,1"], stdout=write_end,
                             stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_reader_leaving_midway_through_a_chunked_answer_exits_quietly():
    """A reader that takes the first line of a listing and leaves, as `|
    head -1` does: the answer (7920 elements, two chunks of about 1 MB,
    each more than a pipe holds) meets the closed pipe partway, and the
    command ends with 128 + SIGPIPE and no error document."""
    command, env = fresh_argv(["admissible", "--family", "E", "--rank", "6", "--J", "1,3,5", "--list"])
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=60)
    assert (proc.returncode, stderr) == (141, b"")
