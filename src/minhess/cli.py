"""Command line front end.

Every query prints one JSON document on stdout (or DOT when asked for a
graph) with a stable shape: the echoed command, the resolved configuration,
an operation-specific payload, and the rule tags the classification relied
on.  A long list (the elements of ``admissible --list``, the cells of
``closure``) is held as its items' words and written in pieces of thousands
of items, between the text before it and the rest; nothing is written until
every word is made and the rest of the text is built.  So a command that
ends in an error prints nothing on stdout.  Domain and
input failures print a machine-readable error object on stderr and exit
with status 1; usage errors exit 2; verification failures exit 3; any other
exception is reported the same way with kind ``internal`` and exits 4.  A
reader that closes stdout early (``| head``) ends the command quietly with
status 141, as SIGPIPE ends native tools.

The options are stated once, in the table ``_COMMANDS``, and two readers
are built from it: argparse's parser, and a reader of plain command lines
(a subcommand and then ``--option value`` pairs and flags, each option
named in full and used once).  Every other line (help, ``--option=value``,
abbreviations, repeats, a missing or ``-``-led value, a value its type or
choices refuse, a missing required option) goes through argparse, which
gives the same namespace, messages and exit codes for the lines both read.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import classes, hess, oracle, singular
from .errors import DomainError
from .roots import RootSystem, build_root_system, cartan_datum, root_str
from .weyl import Composition, WeylElement, _letter_text, from_one_line, one_line_str


# -- serialization helpers ---------------------------------------------------


_str_text = json.encoder.encode_basestring_ascii


class _Rational:
    """A rational in an answer, written as ``{"den": "...", "num": "..."}``."""

    __slots__ = ("num", "den")

    def __init__(self, num: str, den: str):
        self.num = num
        self.den = den

    def json_text(self, indent: str) -> str:
        inner = indent + "  "
        return f'{{{inner}"den": "{self.den}",{inner}"num": "{self.num}"{indent}}}'


def _frac(q: oracle.Entry) -> _Rational:
    """The leaf of an int or a Fraction."""
    return _Rational(str(q.numerator), str(q.denominator))


_ZERO = _frac(0)


@functools.lru_cache(maxsize=None)
def _element_frame(indent: str, one_line: bool) -> Tuple[str, ...]:
    """What the texts of elements at ``indent`` share, with or without a
    one-line text: the text before the one-line text, before the first
    letter, between letters, after the last letter, and for an empty word."""
    inner = indent + "  "
    key = ("," if one_line else "{") + inner + '"word": '
    return (
        "{" + inner + '"one_line": ',
        key + "[" + inner + "  ",
        "," + inner + "  ",
        inner + "]" + indent + "}",
        key + "[]" + indent + "}",
    )


def _element_text(
    frame: Tuple[str, ...], letters: Tuple[str, ...], word: Tuple[int, ...], one_line: Optional[str]
) -> str:
    """The text of ``{"one_line": one_line, "word": word}`` (without
    "one_line" when it is None) in a frame from ``_element_frame``; each
    letter's text is looked up in ``letters``, not formatted."""
    line_start, start, sep, end, empty = frame
    text = f"{start}{sep.join([letters[i] for i in word])}{end}" if word else empty
    return text if one_line is None else f"{line_start}{_str_text(one_line)}{text}"


class _Element:
    """A Weyl element in an answer, written as ``{"one_line": ..., "word":
    [...]}``: its canonical word, and its one-line text in type A only.
    ``letters`` is its root system's table of letter texts."""

    __slots__ = ("word", "letters", "one_line")

    def __init__(self, word: Tuple[int, ...], letters: Tuple[str, ...], one_line: Optional[str]):
        self.word = word
        self.letters = letters
        self.one_line = one_line

    def json_text(self, indent: str) -> str:
        frame = _element_frame(indent, self.one_line is not None)
        return _element_text(frame, self.letters, self.word, self.one_line)


def _element(w: WeylElement) -> _Element:
    rs = w.rs
    one_line = one_line_str(w) if rs.cartan.family == "A" else None
    return _Element(w.word(), _letter_text(rs), one_line)


# items per write: a write per item costs a fifth of a listing's time, and
# one write for the whole list holds its whole text
_CHUNK = 4096


class _LongList:
    """A long list in an answer, held as the few facts its items are written
    from rather than as an object per item.  ``texts(indent, start, stop)``
    gives the texts of items start..stop at ``indent``, and ``chunks`` the
    list's text in pieces of ``_CHUNK`` items; ``_emit`` writes them."""

    __slots__ = ()

    def chunks(self, indent: str) -> Iterator[str]:
        n = len(self)
        if not n:
            yield "[]"
            return
        inner = indent + "  "
        for start in range(0, n, _CHUNK):
            items = self.texts(inner, start, start + _CHUNK)
            items[0] = ("[" if start == 0 else ",") + inner + items[0]
            if start + _CHUNK >= n:
                items[-1] += indent + "]"
            yield ("," + inner).join(items)


class _Elements(_LongList):
    """A list of Weyl elements, each written as an ``_Element`` is: held as
    their canonical words and, in type A only, their one-line texts."""

    __slots__ = ("words", "one_lines", "letters")

    def __init__(self, rs: RootSystem, elements: Iterable[WeylElement]):
        self.letters = _letter_text(rs)
        self.words: List[Tuple[int, ...]] = []
        self.one_lines: Optional[List[str]] = [] if rs.cartan.family == "A" else None
        words, lines = self.words, self.one_lines
        for w in elements:
            words.append(w.word())
            if lines is not None:
                lines.append(one_line_str(w))

    def __len__(self) -> int:
        return len(self.words)

    def texts(self, indent: str, start: int, stop: int) -> List[str]:
        frame = _element_frame(indent, self.one_lines is not None)
        letters, words = self.letters, self.words[start:stop]
        if self.one_lines is None:
            return [_element_text(frame, letters, word, None) for word in words]
        lines = self.one_lines[start:stop]
        return [_element_text(frame, letters, word, line) for word, line in zip(words, lines)]


class _Cells(_LongList):
    """The cells of a closure, each written as ``{"dim": ..., "v": ...,
    "x": ...}``: held as their dimensions and two lists of elements."""

    __slots__ = ("dims", "v", "x")

    def __init__(self, rs: RootSystem, cells: Sequence[hess.ClosureCell]):
        self.dims = [c.dim for c in cells]
        self.v = _Elements(rs, (c.v for c in cells))
        self.x = _Elements(rs, (c.x for c in cells))

    def __len__(self) -> int:
        return len(self.dims)

    def texts(self, indent: str, start: int, stop: int) -> List[str]:
        inner = indent + "  "
        v = self.v.texts(inner, start, stop)
        x = self.x.texts(inner, start, stop)
        return [
            f'{{{inner}"dim": {d},{inner}"v": {vt},{inner}"x": {xt}{indent}}}'
            for d, vt, xt in zip(self.dims[start:stop], v, x)
        ]


class _Hole:
    """Where ``_emit`` writes a long list: its text is the list's
    indentation between two NULs, which JSON text never holds."""

    __slots__ = ()

    def json_text(self, indent: str) -> str:
        return f"\0{indent}\0"


_HOLE = _Hole()


def _verdict(v: singular.SmoothnessVerdict) -> Dict[str, object]:
    return {
        "verdict": v.verdict,
        "reason": v.reason,
        "detail": v.detail,
    }


def _json_text(value: object, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``; ``indent``
    is the line break and indentation at which ``value`` sits.

    With an indent the stdlib encodes in pure Python, token by token.  Here
    lists, tuples and dicts with ``str`` keys are joined in one recursion,
    ``str`` and ``int`` items, ``str`` dict values, ``True``, ``False`` and
    ``None`` are encoded in place, and the leaves of an answer write their
    own text: an ``_Element`` (a Weyl element) as the dict ``{"one_line":
    ..., "word": [...]}``, a ``_Rational`` as ``{"den": ..., "num": ...}``,
    and the ``_Hole`` of ``_emit`` as its mark.  Every other value goes
    to ``json.dumps``, so the text and any error are the stdlib's; there a
    leaf, which subclasses no JSON type, is a TypeError.  Only the stack
    differs: a value that contains itself raises RecursionError (the
    stdlib: ValueError), and before Python 3.12 the recursion stops near 500
    levels of nesting (the stdlib: 1000).
    """
    if isinstance(value, str):
        return _str_text(value)
    if type(value) is int:
        return repr(value)
    if isinstance(value, (_Element, _Rational, _Hole)):
        return value.json_text(indent)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            x.json_text(inner) if type(x) is _Rational
            else repr(x) if type(x) is int
            else _str_text(x) if isinstance(x, str)
            else _json_text(x, inner)
            for x in value
        ]
        # brackets go onto the end items and keys beside their values, so
        # that no level copies a whole child's text before its one join
        items[0] = "[" + inner + items[0]
        items[-1] += indent + "]"
        return ("," + inner).join(items)
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not value:
            return "{}"
        parts: List[str] = []
        for k, v in sorted(value.items()):
            text = _str_text(v) if isinstance(v, str) else _json_text(v, inner)
            parts += ("," + inner, _str_text(k), ": ", text)
        parts[0] = "{" + inner
        parts.append(indent + "}")
        return "".join(parts)
    # by identity, since 1 == True: the stdlib would build an encoder for each
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    # JSON text holds no raw newline, so this re-indents exactly.
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def _emit(
    command: str, config: Dict[str, object], payload: Dict[str, object], citations: Sequence[str]
) -> None:
    """Print the one JSON document every query answers with: the bytes of
    ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline.

    A ``_LongList`` in the payload is written in pieces: the text before
    it, its items in chunks of ``_CHUNK``, and the rest.  All the text but
    the chunks is made before the first write, and a long list holds only
    words and texts made before ``_emit`` is called, which its chunks only
    spell out, so a payload that cannot be encoded prints nothing.  A
    reader that leaves partway makes a write raise BrokenPipeError, which
    ``main`` ends with status 141."""
    key = next((k for k, v in payload.items() if isinstance(v, _LongList)), None)
    doc = {
        "command": command,
        "config": config,
        "payload": payload if key is None else {**payload, key: _HOLE},
        "citations": list(citations),
    }
    text = _json_text(doc) + "\n"
    if key is not None:
        head, indent, text = text.split("\0")
        sys.stdout.write(head)
        for chunk in payload[key].chunks(indent):
            sys.stdout.write(chunk)
    sys.stdout.write(text)


INTERNAL_ERROR_EXIT = 4


def _fail(kind: str, message: str, code: int = 1, **extra: str) -> int:
    error = {"kind": kind, "message": message, **extra}
    sys.stderr.write(json.dumps({"error": error}, sort_keys=True) + "\n")
    return code


# -- configuration and element parsing ---------------------------------------


def _ints(text: str) -> List[int]:
    """A comma-separated list of integers; an empty entry is refused, but
    the empty text is the empty list."""
    return [int(tok) for tok in text.split(",")] if text else []


def _resolve_config(args) -> hess.HessConfig:
    if args.mu is not None:
        mu = Composition(tuple(_ints(args.mu)))
        cfg = hess.config_from_mu(mu)
        if args.family and args.family != "A":
            raise DomainError("--mu implies a type A configuration")
        if args.rank is not None and args.rank != cfg.rs.rank:
            raise DomainError(
                f"--rank {args.rank} conflicts with --mu (rank {cfg.rs.rank})"
            )
        if args.J is not None and frozenset(_ints(args.J)) != cfg.J:
            J = ",".join(map(str, sorted(cfg.J)))
            raise DomainError(f"--J {args.J} conflicts with --mu (J {J})")
        return cfg
    if not args.family or args.rank is None:
        raise DomainError("need either --mu or both --family and --rank")
    rs = build_root_system(args.family, args.rank)
    J = frozenset(_ints(args.J or ""))
    return hess.hess_config(rs, J)


def _parse_element(rs: RootSystem, text: str) -> WeylElement:
    """Read ``--w``: bracketed text is one-line notation, as is a type A
    permutation of 1..n in bare digits; other text is a word."""
    text = text.strip()
    if text in ("e", ""):
        return WeylElement.identity(rs)
    if text.startswith("[") and text.endswith("]"):
        return from_one_line(rs, tuple(_ints(text[1:-1])))
    if "," in text or text.startswith("s"):
        tokens = [tok.removeprefix("s") for tok in text.split(",")]
        return WeylElement.from_word(rs, [int(t) for t in tokens])
    if not text.isdigit():
        raise DomainError(f"cannot parse element {text!r}")
    letters = tuple(int(ch) for ch in text)
    if rs.cartan.family == "A" and sorted(letters) == list(range(1, rs.rank + 2)):
        return from_one_line(rs, letters)
    if rs.rank >= 10 and len(letters) > 1:
        raise DomainError(f"element {text!r} is ambiguous: separate its letters by commas")
    return WeylElement.from_word(rs, list(letters))


def _config_doc(cfg: hess.HessConfig, w: Optional[WeylElement] = None) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "family": cfg.rs.cartan.family,
        "rank": cfg.rs.rank,
        "J": sorted(cfg.J),
    }
    if cfg.mu is not None:
        doc["mu"] = list(cfg.mu.parts)
    if w is not None:
        doc["w"] = _element(w)
    return doc


# -- subcommand handlers -------------------------------------------------------


def _cmd_admissible(args) -> int:
    cfg = _resolve_config(args)
    payload: Dict[str, object]
    if args.list:
        elements = _Elements(cfg.rs, (w for w, _, _ in hess.enumerate_admissible(cfg)))
        payload = {"count": len(elements), "elements": elements}
    else:
        payload = {"count": sum(hess.poincare_polynomial(cfg))}
    _emit("admissible", _config_doc(cfg), payload, ["cell-nonemptiness-criterion"])
    return 0


def _cmd_decompose(args) -> int:
    cfg = _resolve_config(args)
    w = _parse_element(cfg.rs, args.w)
    d = hess.decompose_admissible(w, cfg)
    payload = {
        "K": sorted(d.K),
        "v": _element(d.v),
        "tau": _element(d.tau),
        "des": sorted(d.des),
        "y_des": _element(d.y_des),
        "J_w": sorted(d.Jw),
        "levi_components": [
            {"indices": list(ix), "type": name} for ix, name in d.levi_components
        ],
        "cell_dimension": d.dimension,
    }
    citations = ["coset-factorization", "descent-factorization"]
    _emit("decompose", _config_doc(cfg, w), payload, citations)
    return 0


def _closure_dot(cfg: hess.HessConfig, cells) -> str:
    name = one_line_str if cfg.mu is not None else repr
    names = {c.v: name(c.v) for c in cells}
    lines = ["digraph closure {", "  rankdir=BT;"]
    for c in cells:
        lines.append(f'  "{names[c.v]}" [label="{names[c.v]}\\ndim {c.dim}"];')
    edges = hess.closure_covers([c.v for c in cells])
    for a, b in sorted(edges, key=lambda p: (names[p[0]], names[p[1]])):
        lines.append(f'  "{names[a]}" -> "{names[b]}";')
    lines.append("}")
    return "\n".join(lines)


def _cmd_closure(args) -> int:
    cfg = _resolve_config(args)
    w = _parse_element(cfg.rs, args.w)
    cells = hess.closure_intersecting_cells(w, cfg)
    if args.dot:
        sys.stdout.write(_closure_dot(cfg, cells) + "\n")
        return 0
    payload = {"cells": _Cells(cfg.rs, cells)}
    del cells  # free every cell's two elements before the text is written
    _emit("closure", _config_doc(cfg, w), payload, ["closure-intersection-criterion"])
    return 0


def _cmd_fixed_point_smooth(args) -> int:
    cfg = _resolve_config(args)
    w = _parse_element(cfg.rs, args.w)
    if cfg.mu is not None:
        verdict = singular.typeA_fixed_point_smooth(w, cfg.mu)
    else:
        verdict = singular.hess_fixed_point_smooth(w, cfg)
    _emit("fixed-point-smooth", _config_doc(cfg, w), _verdict(verdict), verdict.citations)
    return 0


def _cmd_peterson_singular_locus(args) -> int:
    datum = cartan_datum(args.family, args.rank)
    locus = singular.peterson_singular_locus(datum)
    _emit(
        "peterson-singular-locus",
        {"family": datum.family, "rank": datum.rank},
        {"singular_K": [list(K) for K in locus]},
        ["peterson-singular-set"],
    )
    return 0


def _cmd_count_smooth(args) -> int:
    mu = Composition(tuple(_ints(args.mu)))
    count = singular.count_smooth_flags(mu)
    _emit(
        "count-smooth",
        {"family": "A", "rank": mu.n - 1, "mu": list(mu.parts)},
        {"count": str(Decimal(count))},  # exact at any size, unlike str(int)
        ["smooth-count-formula"],
    )
    return 0


def _cmd_class(args) -> int:
    cfg = _resolve_config(args)
    w = _parse_element(cfg.rs, args.w)
    form = classes.K_THEORY if args.form == "k-theory" else classes.COHOMOLOGY
    expr = classes.hess_schubert_class(w, cfg, form)
    payload: Dict[str, object] = {
        "form": expr.form,
        "scalar": _frac(expr.scalar),
        "factor_roots": expr.factor_roots,
        "factor_roots_pretty": [root_str(r) for r in expr.factor_roots],
    }
    if args.expand:
        poly = classes.expand_typeA(expr, cfg.rs)
        payload["expanded"] = {
            "variables": [f"x{i + 1}" for i in range(poly.n)],
            "terms": [
                {"monomial": list(m), "coefficient": _frac(c)}
                for m, c in poly.coeffs
            ],
            "pretty": str(poly),
        }
    _emit("class", _config_doc(cfg, w), payload, ["class-product-formula"])
    return 0


def _is_matrix(raw) -> bool:
    return isinstance(raw, list) and all(
        isinstance(row, list)
        and all(isinstance(x, (int, float, str)) and not isinstance(x, bool) for x in row)
        for row in raw
    )


def _u1_entry(raw: object) -> oracle.Entry:
    """One --u1 entry, a JSON number or string: an int if it is integral
    (2, "2.0", "4/2"), else a Fraction; an exponent past 4300 (json.loads's
    digit limit on an integer) is refused before Fraction builds
    10**exponent."""
    if type(raw) is int:
        return raw
    text = str(raw)
    m = re.search(r"[eE][-+]?([\d_]+)", text)
    digits = m.group(1).replace("_", "").lstrip("0") if m else ""
    if len(digits) > 4 or int(digits or 0) > 4300:
        raise ValueError("--u1 has an entry with an exponent past 4300")
    q = Fraction(text)
    return q.numerator if q.denominator == 1 else q


def _dense_row(entries: Sequence[Tuple[int, oracle.Entry]], width: int) -> List[_Rational]:
    """A sparse Jacobian row as leaves, with one shared leaf for zero."""
    row = [_ZERO] * width
    for k, x in entries:
        row[k] = _frac(x)
    return row


def _cmd_oracle(args) -> int:
    mu = Composition(tuple(_ints(args.mu)))
    cfg = hess.config_from_mu(mu)
    w = _parse_element(cfg.rs, args.w)
    if args.u1:
        if args.u1.startswith("@"):
            with open(args.u1[1:]) as fh:
                raw = json.load(fh)
        else:
            raw = json.loads(args.u1)
        if not _is_matrix(raw):
            raise ValueError("--u1 must be a JSON list of rows of numbers or strings")
        try:
            u1 = [[_u1_entry(x) for x in row] for row in raw]
        except ZeroDivisionError:
            raise ValueError("--u1 has an entry with a zero denominator") from None
        res = oracle.jacobian_at_cell_point(w, mu, u1)
    else:
        res = oracle.jacobian_at_fixed_point(w, mu)
    payload = {
        "rows": res.rows,
        "cols": res.cols,
        "matrix": [_dense_row(entries, len(res.cols)) for entries in res.sparse_rows],
        "rank": res.rank,
        "full_rank": res.rank == len(res.rows),
        "verdict": res.verdict,
    }
    if res.note:
        payload["note"] = res.note
    _emit("oracle", _config_doc(cfg, w), payload, ["jacobian-rank"])
    return 0


def _cmd_verify(args) -> int:
    from . import verification  # here only: loading it costs every cold start ~7 ms

    checks = verification.run_suite(args.suite, args.max_rank)
    failures = [c for c in checks if not c.ok]
    _emit(
        "verify",
        {"suite": args.suite, "max_rank": args.max_rank},
        {
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
            "failures": len(failures),
        },
        ["verification-harness"],
    )
    return 3 if failures else 0


# -- command table -------------------------------------------------------------


_CONFIG = (
    ("--family", {"choices": tuple("ABCDEFG"), "help": "simple type"}),
    ("--rank", {"type": int, "help": "rank of the simple type"}),
    ("--J", {"help": "comma-separated simple indices naming the regular element"}),
    ("--mu", {"help": "type A composition, comma separated"}),
)
_W = ("--w", {"required": True, "help": "one-line notation (type A) or reflection word"})
# the names of verification.SUITES, stated here so that loading the command
# line does not load verification (a test checks that the two agree)
_SUITES = ("cominuscule", "cross-validate", "fig1", "paper-tables")

# Each subcommand's help, handler and options in help order, an option being
# a long flag and the keywords of its ``add_argument``: argparse's parser and
# the plain-line reader are both built from this one table.
_COMMANDS = {
    "admissible": ("count or list nonempty cells", _cmd_admissible, (
        *_CONFIG,
        ("--list", {"action": "store_true"}),
    )),
    "decompose": ("full decomposition data of an admissible element", _cmd_decompose, (
        *_CONFIG,
        _W,
    )),
    "closure": ("cells meeting a cell closure", _cmd_closure, (
        *_CONFIG,
        _W,
        ("--dot", {"action": "store_true", "help": "emit a DOT containment diagram"}),
    )),
    "fixed-point-smooth": ("smooth/singular verdict at a fixed point", _cmd_fixed_point_smooth, (
        *_CONFIG,
        _W,
    )),
    "peterson-singular-locus": (
        "singular cells of a Peterson variety", _cmd_peterson_singular_locus, (
            ("--family", {"choices": tuple("ABCDEFG"), "required": True}),
            ("--rank", {"type": int, "required": True}),
        ),
    ),
    "count-smooth": ("number of smooth permutation flags", _cmd_count_smooth, (
        ("--mu", {"required": True}),
    )),
    "class": ("K-theory / cohomology class of a cell closure", _cmd_class, (
        *_CONFIG,
        _W,
        ("--form", {"choices": ("cohomology", "k-theory"), "default": "cohomology"}),
        ("--expand", {"action": "store_true", "help": "expand in Chern roots (type A)"}),
    )),
    "oracle": ("exact Jacobian verdict via matrix charts (type A)", _cmd_oracle, (
        ("--mu", {"required": True}),
        _W,
        ("--u1", {"help": "rational unipotent matrix as JSON, or @file"}),
    )),
    "verify": ("run a verification suite", _cmd_verify, (
        ("--suite", {"required": True, "choices": _SUITES}),
        ("--max-rank", {"type": int, "default": None}),
    )),
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built from ``_COMMANDS`` once per process:
    building it costs far more than parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="minhess",
        description=(
            "Cell structure, closure relations, class formulas and smoothness "
            "classification of minimal-space regular Hessenberg varieties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def _plain_table(name: str, handler, options):
    """What reading a plain line of one subcommand needs: each flag's dest,
    whether it takes a value, its type and its choices; the namespace of an
    empty line; and the required flags."""
    readers = {}
    empty: Dict[str, object] = {"command": name, "func": handler}
    for flag, keywords in options:
        dest = flag[2:].replace("-", "_")
        takes_value = keywords.get("action") != "store_true"
        readers[flag] = (dest, takes_value, keywords.get("type"), keywords.get("choices"))
        empty[dest] = keywords.get("default") if takes_value else False
    return readers, empty, frozenset(flag for flag, keywords in options if keywords.get("required"))


_PLAIN = {
    name: _plain_table(name, handler, options) for name, (_, handler, options) in _COMMANDS.items()
}


def _read_plain(command: str, argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``_parser().parse_args([command, *argv])`` gives a plain
    line: whole flags of the command, each used once, each value-taking one
    followed by a value that does not start with ``-`` and that its type and
    choices accept, and every required flag present.  On any other line,
    None: argparse then reads it, with its help, errors and exits."""
    table = _PLAIN.get(command)
    if table is None:
        return None
    readers, empty, required = table
    values = dict(empty)
    seen = set()
    tokens = iter(argv)
    for flag in tokens:
        reader = readers.get(flag)
        if reader is None or flag in seen:
            return None
        seen.add(flag)
        dest, takes_value, kind, choices = reader
        if not takes_value:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None  # argparse reports it
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values) if required <= seen else None


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with the same namespace, exit code and
    messages: a plain line is read from the command table, every other line
    by argparse."""
    args = _read_plain(argv[0], argv[1:]) if argv else None
    return _parser().parse_args(argv) if args is None else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe is met here, not at exit
        return code
    except DomainError as exc:
        return _fail("domain", str(exc))
    except BrokenPipeError:  # the reader left: the rest of stdout goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # SIGPIPE, as it ends native tools
    except (ValueError, OSError) as exc:
        return _fail("input", str(exc))
    except Exception as exc:  # a bug, still reported as one JSON error
        import traceback  # here only: at the top it would cost every cold start 1.5-4 ms

        return _fail(
            "internal",
            f"{type(exc).__name__}: {exc}",
            INTERNAL_ERROR_EXIT,
            traceback=traceback.format_exc(),
        )


if __name__ == "__main__":
    sys.exit(main())
