"""The benchmark's three workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  A workload provides

* ``systems``: the root systems it names, built during set-up;
* ``warm_up()``: a few small operations run before any timing;
* ``inputs(seed)``: the operations of one pass, made from the seed alone;
* ``ops(inputs)``: a generator that performs one operation per ``next()``
  and yields ``(op, result)``; only the time inside ``next()`` is measured;
* ``check(op, result)``: an ``Outcome`` saying whether the answer is right,
  computed outside the timed region;
* ``summary(outcomes)``: the answer digest's human-readable part.

Every call into minhess goes through a module attribute looked up at call
time (``minhess.cli.main``, ``minhess.singular.hess_fixed_point_smooth``),
so the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from collections import Counter, namedtuple

import minhess
import minhess.cli
from minhess import hess, oracle, roots, singular, weyl
from minhess.errors import DomainError

CliResult = namedtuple("CliResult", "code stdout stderr exc")

# group: the key under which the answer is compared with a reference;
# items: work items the operation stands for; failure: None or a reason;
# wrong: the failure is a wrong answer to a well-formed operation;
# answer: hash of the answer text, for the digest; detail: what the
# workload's summary needs from this answer.
Outcome = namedtuple("Outcome", "group items failure wrong answer detail")


def call_cli(argv):
    """Run ``minhess.cli.main`` in-process, capturing both streams.

    An exception escaping ``main`` is a failure of the operation, not of the
    benchmark, so it is caught here and recorded by type.
    """
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = minhess.cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as error:  # noqa: BLE001 - any escape is a counted failure
        exc = type(error).__name__
    return CliResult(code, out.getvalue(), err.getvalue(), exc)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compositions(n):
    """All strong compositions of n, in a fixed order."""
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def _json(text):
    """The JSON object in ``text``, or None when it holds none."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def _cli_failure(res, expect_code=0):
    if res.exc is not None:
        return f"uncaught {res.exc}"
    if res.code != expect_code:
        return f"exit {res.code}, expected {expect_code}"
    return None


# -- coset-sweep ---------------------------------------------------------------


# (family, rank, J, number of admissible elements)
COSET_CONFIGS = (
    ("E", 6, (1, 3, 5), 7920),
    ("C", 5, (2, 4), 1392),
    ("A", 7, (1, 2, 3, 5, 6), 1806),
    ("B", 5, (1, 3, 5), 848),
    ("D", 5, (1, 3, 5), 384),
    ("F", 4, (1, 3), 396),
    ("G", 2, (1,), 8),
)


def _coset_argv(family, rank, J):
    J_text = ",".join(map(str, J))
    return ["admissible", "--family", family, "--rank", str(rank), "--J", J_text, "--list"]


class CosetSweep:
    """``admissible --list`` through the CLI on fixed parabolic configs."""

    name = "coset-sweep"
    # Each listing lasts seconds, so a sub-second burst of contention cannot
    # set its time: single passes suffice (see run.end_to_end).
    paired = False
    systems = tuple((f, r) for f, r, _, _ in COSET_CONFIGS)

    def __init__(self):
        self._poincare = {}  # (group, answer hash) -> Poincare polynomial

    def warm_up(self):
        call_cli(_coset_argv("G", 2, (1,)))

    def inputs(self, seed):
        # fixed configs: the seed does not change this workload's inputs
        return COSET_CONFIGS

    def ops(self, inputs):
        for config in inputs:
            family, rank, J, _ = config
            yield config, call_cli(_coset_argv(family, rank, J))

    def check(self, config, res):
        family, rank, J, expected = config
        group = f"{family}{rank} J={','.join(map(str, J))}"
        failure = _cli_failure(res)
        wrong = False
        if failure is None:
            doc = _json(res.stdout)
            payload = (doc or {}).get("payload") or {}
            count = payload.get("count")
            if count != expected or len(payload.get("elements", ())) != expected:
                failure, wrong = f"count {count}, expected {expected}", True
        answer = sha(f"{res.code}\n{res.stdout}")
        poly = None if failure else self._poincare_of(group, answer, family, rank, doc)
        return Outcome(group, expected, failure, wrong, answer, poly)

    def _poincare_of(self, group, answer, family, rank, doc):
        """Poincare polynomial of the listed elements, by descent count.

        Computed from the listed words, once per distinct output.
        """
        key = (group, answer)
        if key not in self._poincare:
            rs = roots.build_root_system(family, rank)
            counts = Counter()
            for element in doc["payload"]["elements"]:
                w = weyl.WeylElement.from_word(rs, element["word"])
                counts[len(w.descents())] += 1
            self._poincare[key] = [counts[k] for k in range(max(counts) + 1)]
        return self._poincare[key]

    def summary(self, outcomes):
        return {o.group: {"count": o.items, "poincare": o.detail} for o in outcomes}


# -- smoothness-sweep ------------------------------------------------------------


SWEEP_MAX_N = 5
ROUTES = (
    "hess_fixed_point_smooth",
    "typeA_fixed_point_smooth",
    "jacobian_at_fixed_point",
    "linear_terms_closed_form",
    "hess_schubert_smooth",
    "typeA_hess_schubert_smooth",
)

Verdicts = namedtuple("Verdicts", "word general pattern jet closed bracket bracket_a")


class SmoothnessSweep:
    """Every admissible (w, mu) with n <= 5 through six smoothness routes."""

    name = "smoothness-sweep"
    paired = True
    systems = tuple(("A", n - 1) for n in range(2, SWEEP_MAX_N + 1))

    def warm_up(self):
        for _ in self.ops([(2, 1)]):
            pass

    def inputs(self, seed):
        # every composition with 2 <= n <= 5: the seed does not change them
        return [mu for n in range(2, SWEEP_MAX_N + 1) for mu in compositions(n)]

    def ops(self, inputs):
        for mu in inputs:
            cfg = hess.config_from_mu(mu)
            for w, _, _ in hess.enumerate_admissible(cfg):
                try:
                    verdicts = Verdicts(
                        w.word(),
                        singular.hess_fixed_point_smooth(w, cfg),
                        singular.typeA_fixed_point_smooth(w, mu),
                        oracle.jacobian_at_fixed_point(w, mu),
                        oracle.linear_terms_closed_form(w, mu),
                        singular.hess_schubert_smooth(w, cfg),
                        singular.typeA_hess_schubert_smooth(w, mu),
                    )
                except Exception as error:  # noqa: BLE001 - counted failure
                    verdicts = type(error).__name__
                yield mu, verdicts

    def check(self, mu, v):
        group = ",".join(map(str, mu))
        if isinstance(v, str):
            return Outcome(group, 1, f"uncaught {v}", False, sha(f"{group}|{v}"), None)
        failure = None
        if not v.general.verdict == v.pattern.verdict == v.jet.verdict:
            failure = "fixed-point routes disagree"
        elif (v.jet.rows, v.jet.cols, v.jet.matrix) != (
            v.closed.rows,
            v.closed.cols,
            v.closed.matrix,
        ):
            failure = "Jacobians differ entrywise"
        elif v.bracket.verdict != v.bracket_a.verdict:
            failure = "Hessenberg-Schubert routes disagree"
        verdicts = (
            v.general.verdict,
            v.pattern.verdict,
            v.jet.verdict,
            v.closed.verdict,
            v.bracket.verdict,
            v.bracket_a.verdict,
        )
        answer = "|".join(
            [
                group,
                ",".join(map(str, v.word)),
                *verdicts,
                v.general.reason,
                v.pattern.reason,
                str(v.jet.rank),
                repr(v.jet.matrix),
            ]
        )
        return Outcome(group, 1, failure, failure is not None, sha(answer), verdicts)

    def summary(self, outcomes):
        tallies = {route: Counter() for route in ROUTES}
        disagreements = Counter()
        for o in outcomes:
            if o.detail is None:
                continue
            for route, verdict in zip(ROUTES, o.detail):
                tallies[route][verdict] += 1
            if o.failure:
                disagreements[o.failure] += 1
        return {
            "pairs": len(outcomes),
            "tallies": {route: dict(sorted(c.items())) for route, c in tallies.items()},
            "disagreements": dict(disagreements),
        }


# -- query-mix -------------------------------------------------------------------


# No record of how minhess is used says how often each command is issued,
# so every command gets the same share, spread evenly over the families it
# accepts and, within a family, over its ranks; every free choice of input
# form (--mu or --family, one-line or word, --expand, --form k-theory,
# --u1) is a fair coin.  Seeds then differ in J, elements and order, not in
# the mix of commands, families and ranks.
QUERIES_PER_KIND = 400  # well-formed queries per pass, for each command
MALFORMED_PER_KIND = 30  # per pass, for each of the three malformed kinds
QUERY_RANKS = {
    "A": range(1, 9),
    "B": range(2, 7),
    "C": range(2, 7),
    "D": range(4, 7),
    "E": range(6, 9),
    "F": (4,),
    "G": (2,),
}
MALFORMED_KINDS = ("non-admissible", "index-zero", "index-above-rank")
QUERY_KINDS = (
    "decompose",
    "fixed-point-smooth",
    "closure",
    "class",
    "oracle",
    "peterson-singular-locus",
    "count-smooth",
)
# Closure queries enumerate the descent parabolic of w and invert each
# element; above this order one query would cost seconds, not milliseconds,
# and in E7 or E8 it may not finish at all.  Such draws are redrawn.
CLOSURE_MAX_ORDER = 24
EXPAND_MAX_N = 6  # Chern expansion has n! terms; n >= 7 is left out
ORACLE_MAX_N = 5

Query = namedtuple("Query", "argv malformed word")
# Groups of malformed queries are kept out of reference comparisons: their
# right answer is the documented error, and fixing a defect changes them.
MALFORMED = "malformed "


def _query_ranks(kind):
    """The ranks, by family, that queries of ``kind`` are spread over."""
    if kind == "oracle":
        return {"A": range(1, ORACLE_MAX_N)}
    if kind == "count-smooth":
        return {"A": QUERY_RANKS["A"]}
    if kind == "non-admissible":
        return dict(QUERY_RANKS, A=range(2, 9))  # every element of A1 is admissible
    return QUERY_RANKS


def _word_text(word):
    if not word:
        return "e"
    if len(word) == 1:
        return f"s{word[0]}"
    return ",".join(map(str, word))


class QueryMix:
    """A seeded stream of single-element CLI queries over all seven families."""

    name = "query-mix"
    paired = True
    systems = tuple((f, r) for f, ranks in QUERY_RANKS.items() for r in ranks)

    def warm_up(self):
        for argv in (
            ["decompose", "--mu", "2,2", "--w", "3421"],
            ["fixed-point-smooth", "--mu", "2,2", "--w", "3421"],
            ["closure", "--mu", "2,2", "--w", "3421"],
            ["class", "--mu", "2,2", "--w", "3421", "--expand"],
            ["oracle", "--mu", "3,1", "--w", "s2"],
            ["peterson-singular-locus", "--family", "F", "--rank", "4"],
            ["count-smooth", "--mu", "4,3,1"],
        ):
            call_cli(argv)

    def inputs(self, seed):
        rng = random.Random(seed)
        plan = []
        for kind in (*MALFORMED_KINDS, *QUERY_KINDS):
            count = MALFORMED_PER_KIND if kind in MALFORMED_KINDS else QUERIES_PER_KIND
            ranks = _query_ranks(kind)
            families = sorted(ranks)
            for i in range(count):
                family = families[i % len(families)]
                options = ranks[family]
                plan.append((kind, family, options[i // len(families) % len(options)]))
        rng.shuffle(plan)
        return [self._query(rng, *entry) for entry in plan]

    # - generation (runs before any timing)

    def _config(self, rng, family, rank):
        J = sorted(i for i in range(1, rank + 1) if rng.random() < 0.5)
        rs = roots.build_root_system(family, rank)
        return hess.hess_config(rs, J)

    def _config_args(self, rng, cfg):
        if cfg.mu is not None and rng.random() < 0.5:
            return ["--mu", ",".join(map(str, cfg.mu.parts))]
        J = ",".join(map(str, sorted(cfg.J)))
        return ["--family", cfg.rs.cartan.family, "--rank", str(cfg.rs.rank), "--J", J]

    def _random_element(self, rng, rs):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 3 * rs.rank))]
        return weyl.WeylElement.from_word(rs, word)

    def _admissible(self, rng, cfg):
        """A random word projected to an admissible w = y_K v."""
        _, v = weyl.min_right_coset_rep(self._random_element(rng, cfg.rs), cfg.J)
        delta = sorted(hess.delta_v(v, cfg))
        K = [k for k in delta if rng.random() < 0.5]
        return weyl.longest_element(cfg.rs, K) * v

    def _element_text(self, rng, w):
        rs = w.rs
        if rs.cartan.family == "A" and rs.rank + 1 <= 9 and rng.random() < 0.5:
            return "".join(map(str, weyl.one_line(w)))
        return _word_text(w.word())

    def _query(self, rng, kind, family, rank):
        if kind == "count-smooth":
            mu = rng.choice(compositions(rank + 1))
            return Query(["count-smooth", "--mu", ",".join(map(str, mu))], False, None)
        if kind == "peterson-singular-locus":
            return Query([kind, "--family", family, "--rank", str(rank)], False, None)
        if kind == "oracle":
            return self._oracle_query(rng, rank)
        if kind in ("index-zero", "index-above-rank"):
            cfg = self._config(rng, family, rank)
            text = "s0" if kind == "index-zero" else f"1,{cfg.rs.rank + 1}"
            command = rng.choice(["decompose", "fixed-point-smooth"])
            return Query([command, *self._config_args(rng, cfg), "--w", text], True, None)
        if kind == "non-admissible":
            return self._non_admissible_query(rng, family, rank)
        cfg = self._config(rng, family, rank)
        w = self._admissible(rng, cfg)
        if kind == "closure":
            while minhess.parabolic(cfg.rs, w.descents()).weyl_order() > CLOSURE_MAX_ORDER:
                w = self._admissible(rng, cfg)
        argv = [kind, *self._config_args(rng, cfg), "--w", self._element_text(rng, w)]
        if kind == "class":
            # only cohomology classes expand to polynomials
            if rng.random() < 0.5:
                argv += ["--form", "k-theory"]
            elif cfg.mu is not None and cfg.mu.n <= EXPAND_MAX_N and rng.random() < 0.5:
                argv.append("--expand")
        return Query(argv, False, list(w.word()))

    def _non_admissible_query(self, rng, family, rank):
        while True:
            cfg = self._config(rng, family, rank)
            for _ in range(20):
                w = self._random_element(rng, cfg.rs)
                if not hess.is_admissible(w, cfg):
                    command = rng.choice(["decompose", "fixed-point-smooth", "closure", "class"])
                    argv = [command, *self._config_args(rng, cfg), "--w", _word_text(w.word())]
                    return Query(argv, True, None)

    def _oracle_query(self, rng, rank):
        cfg = self._config(rng, "A", rank)
        w = self._admissible(rng, cfg)
        mu = ",".join(map(str, cfg.mu.parts))
        argv = ["oracle", "--mu", mu, "--w", self._element_text(rng, w)]
        if rng.random() < 0.5:
            argv += ["--u1", json.dumps(self._cell_point(rng, w, cfg))]
        return Query(argv, False, list(w.word()))

    def _cell_point(self, rng, w, cfg):
        """A unipotent u1 with u1.wB in the variety: the first single-entry
        translate, in a seeded order, that the oracle accepts; else the
        identity, which is the fixed point itself."""
        n = cfg.rs.rank + 1
        candidates = [(i, j, t) for i in range(n) for j in range(i + 1, n) for t in (1, -1)]
        rng.shuffle(candidates)
        for i, j, t in candidates:
            u1 = [[int(r == c) for c in range(n)] for r in range(n)]
            u1[i][j] = t
            try:
                oracle.jacobian_at_cell_point(w, cfg.mu, u1)
            except DomainError:
                continue
            return u1
        return [[int(r == c) for c in range(n)] for r in range(n)]

    # - running and checking

    def ops(self, inputs):
        for query in inputs:
            yield query, call_cli(query.argv)

    def check(self, query, res):
        group = sha(" ".join(query.argv))  # compact: the reference holds a pass
        answer = sha(f"{res.code}\n{res.stdout}")
        detail = (query.argv[0], str(res.code))
        if query.malformed:
            group = MALFORMED + group
            # documented outcome: exit 1 with one JSON error object on stderr
            failure = _cli_failure(res, expect_code=1)
            if failure is None and (res.stdout or "error" not in (_json(res.stderr) or {})):
                failure = "no JSON error on stderr"
            return Outcome(group, 1, failure, False, answer, detail)
        failure = _cli_failure(res)
        wrong = False
        if failure is None:
            doc = _json(res.stdout) or {}
            if doc.get("command") != query.argv[0]:
                failure, wrong = "wrong command echoed", True
            elif query.word is not None:
                echoed = doc.get("config", {}).get("w", {}).get("word")
                if echoed != query.word:
                    failure, wrong = "wrong element echoed", True
        return Outcome(group, 1, failure, wrong, answer, detail)

    def summary(self, outcomes):
        by_command = {}
        for o in outcomes:
            command, code = o.detail
            by_command.setdefault(command, Counter())[code] += 1
        return {
            "queries": len(outcomes),
            "exit_codes": {c: dict(sorted(n.items())) for c, n in sorted(by_command.items())},
        }


WORKLOADS = {w.name: w for w in (CosetSweep, SmoothnessSweep, QueryMix)}
