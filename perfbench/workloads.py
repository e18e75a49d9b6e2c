"""Seeded inputs, queries and known answers for the four workloads.

Every workload is a list of `Query` objects built from a `random.Random`
before any query is timed.  A query's `run` calls public functions of
`fusioncalc` only; its `check` compares the result with an answer that
does not come from the code under test (a theorem, a construction whose
outcome is known, or a regression golden recorded in `goldens.json`).
`check` runs after the timed loop and returns None or a mismatch text.
A query that raises is a wrong answer, unless the exception is one of
its `may_raise`: then it counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from fusioncalc import calgebra, cli, mll, realizability
from fusioncalc.fusion import (DELTA, Fusion, class_of, equal, identity_I,
                               join, join_all, map_fusion, phi, remove,
                               sigma_tau)
from fusioncalc.names import parse_nameset
from fusioncalc.process import NIL, Act, Nu, Par, ProcessError
from fusioncalc.pwf import (Pwf, as_pwf, equal_pwf, nu_all, par, parse_pwf,
                            star)
from fusioncalc.reduction import pole_regular_on, reduces_within
from fusioncalc.subst import remap_subst

GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "goldens.json").read_text())
UNIT = Pwf(NIL, DELTA)


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    may_raise: tuple[type[Exception], ...] = ()


def expect(answer) -> Callable[[object], Optional[str]]:
    def check(out) -> Optional[str]:
        return None if out == answer else f"expected {answer!r}, got {out!r}"
    return check


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_rows(report) -> list[tuple[str, bool]]:
    """The (name, verdict) of each row of a law or checker report."""
    return [(name, ok) for name, ok, _ in report]


# -- sandbox ---------------------------------------------------------------
#
# Criterion 07 at a reduced size: the member list of
# default_universe(2, 3, [Δ, {0~1}], L) in a seeded order, the law report
# under the `always` pole and then under `done:8`, and the regularity of
# `done:8` on the members.  Every law row is a closure-operator law that
# holds for any polarity matrix, and done:k is closed under anti-reduction,
# so each verdict is True.

SANDBOX_MEMBERS = 48
SANDBOX_SAMPLES = 8


def sandbox_members() -> list[Pwf]:
    return realizability.default_universe(
        2, 3, [DELTA, Fusion(frozenset({(0, 1)}))], SANDBOX_MEMBERS)


def sandbox(rng, wrap_pole) -> list[Query]:
    members = sandbox_members()
    rng.shuffle(members)
    law_seed = rng.randrange(1 << 30)
    queries = []
    for text in ("always", "done:8"):
        def laws(text=text):
            u = realizability.Universe(
                members, wrap_pole(realizability.parse_pole(text)))
            rows = realizability.check_laws(
                u, samples=SANDBOX_SAMPLES, seed=law_seed)
            return report_rows(rows), u
        queries.append(Query(f"laws {text}", laws, _laws_and_tables))
    queries.append(Query(
        "regular done:8",
        lambda: pole_regular_on(
            wrap_pole(realizability.parse_pole("done:8")), members),
        expect(True)))
    return queries


def _laws_and_tables(out) -> Optional[str]:
    rows, u = out
    failed = [name for name, ok in rows if not ok]
    if len(rows) != 7 or failed:
        return f"law rows {rows!r}"
    hits = table_hits(u)
    if hits != GOLDENS["table_hits"]:
        return f"table hits {hits} != regression golden"
    return None


def table_hits(u) -> dict[str, int]:
    """Pairs of members whose par / bullet / star1 image is a member.  The
    member set does not depend on the seed, only its order does, so the
    counts are a regression golden."""
    ops = {"par": u.op_par, "bullet": u.op_bullet,
           "star1": lambda a, b: u.op_star(1, a, b)}
    n = len(u.members)
    return {label: sum(1 for i in range(n) for j in range(n)
                       if op(1 << i, 1 << j))
            for label, op in ops.items()}


# -- reduce ----------------------------------------------------------------
#
# Terms built from dual pairs over the fused subject alphabet
# {0~2, 1~3}: a chain of actions in parallel with the same chain with
# every polarity flipped, each subject replaced by its fused partner.
# Pairs cancel one communication at a time, so the closed term reaches
# <1;Δ> within the summed chain length (True).  A negative term adds one
# action on subject 4, which occurs nowhere else and never fires (False).

REDUCE_FUSION = "{0~2, 1~3}"
PARTNER = {0: 2, 1: 3, 2: 0, 3: 1}
REDUCE_TERMS = 97
# Chain lengths of the pairs: three or four pairs, four communications
# in all, so every term costs about the same.
REDUCE_SHAPES = ((1, 1, 2), (1, 1, 1, 1))
# Fixed terms whose CLI listing is compared with a regression golden:
# (literal, steps, reaches the unit).
REDUCE_ANCHORS = (
    ("<0!().1?() | 2?().3!() | 1!() | 3?() | 2!() | 0?() ; {0~2, 1~3}>",
     4, True),
    ("<3?().0!() | 1!().2?() | 0?().1!() | 2!().3?() | 1?() | 3!()"
     " ; {0~2, 1~3}>", 5, True),
    ("<0!() | 2?() | 1?().3!() | 3!().1?() | 4!() ; {0~2, 1~3}>", 3, False),
)


def _action(subject: int, up: bool) -> str:
    return f"{subject}{'!' if up else '?'}()"


def dual_pair_term(rng, lengths: tuple[int, ...],
                   negative: bool) -> tuple[str, int]:
    """One dual pair per chain length, in a seeded order."""
    components = []
    for length in lengths:
        chain = [(rng.randrange(4), rng.random() < 0.5)
                 for _ in range(length)]
        components.append(".".join(_action(s, up) for s, up in chain))
        components.append(".".join(_action(PARTNER[s], not up)
                                   for s, up in chain))
    if negative:
        components.append(_action(4, rng.random() < 0.5))
    rng.shuffle(components)
    return f"<{' | '.join(components)} ; {REDUCE_FUSION}>", sum(lengths)


def cli_reduce(literal: str, steps: int) -> tuple[int, str]:
    """Exit code and printed listing of `fusioncalc reduce`."""
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        code = cli.main(["reduce", literal, "--steps", str(steps)])
    return code, listing.getvalue()


def _reduce_query(literal: str, steps: int, reaches: bool,
                  golden: Optional[str]) -> Query:
    def run():
        code, listing = cli_reduce(literal, steps)
        verdict = reduces_within(nu_all(parse_pwf(literal)), UNIT, steps)
        return code, listing, verdict

    def check(out) -> Optional[str]:
        code, listing, verdict = out
        lines = listing.splitlines()
        if code != 0 or lines != sorted(set(lines)):
            return f"cli reduce exit {code}, listing not sorted and distinct"
        if golden is not None and digest(listing) != golden:
            return f"listing digest {digest(listing)} != regression golden"
        # The unit is listed exactly when every pair has cancelled.
        unit_listed = f"<1 ; {REDUCE_FUSION}>" in lines
        if verdict != reaches or unit_listed != reaches:
            return (f"{literal}: reduces_within {verdict}, unit listed "
                    f"{unit_listed}, expected {reaches}")
        return None

    return Query("reduce", run, check)


def reduce(rng, wrap_pole) -> list[Query]:
    queries = [_reduce_query(literal, steps, reaches, golden)
               for (literal, steps, reaches), golden in
               zip(REDUCE_ANCHORS, GOLDENS["reduce_listings"])]
    for i in range(REDUCE_TERMS):
        negative = i % 4 == 2  # a three-pair term
        literal, steps = dual_pair_term(rng, REDUCE_SHAPES[i % 2], negative)
        queries.append(_reduce_query(literal, steps, not negative, None))
    rng.shuffle(queries)
    return queries


# -- decide ----------------------------------------------------------------

DECIDE_COROLLARIES = 32
DECIDE_ADJOINTS = 48
DECIDE_CONGRUENT = 48
SIBLING_COUNTS = range(2, 11)
ODD = parse_nameset("@1")
I2 = sigma_tau(remap_subst([((1, 2), (2, 2))]))


FAMILIES = (None, ((1,), (2,)), ((2, 1), (2, 2)), ((1, 1), (1, 2)))


def random_fusion(rng, shape, family, max_name=15, max_class=4) -> Fusion:
    """A finite partition of a few classes, joined with the given family
    generator (a region remap), if any.  `shape` draws how many classes
    and their sizes, `rng` which names fill them."""
    pool = list(range(max_name + 1))
    rng.shuffle(pool)
    pairs = []
    for _ in range(shape.randrange(4)):
        size = shape.randint(2, max_class)
        cls, pool = pool[:size], pool[size:]
        pairs.extend(zip(cls, cls[1:]))
    return Fusion(frozenset(tuple(sorted(p)) for p in pairs),
                  frozenset({family}) if family else frozenset())


def _inject(e: Fusion, w) -> Fusion:
    return map_fusion(e, remap_subst([((), w)]))


def _corollary_query(rng, i: int) -> Query:
    # The family generators cycle through every pair and the class sizes
    # are drawn from i alone, so each seed gets the same mix of shapes and
    # draws only the names.
    shape = random.Random(f"corollary:{i}")
    e = random_fusion(rng, shape, FAMILIES[i % len(FAMILIES)])
    f = random_fusion(rng, shape,
                      FAMILIES[i // len(FAMILIES) % len(FAMILIES)])
    probes = rng.sample(range(256), 6)

    def run():
        e1, e2, e12 = _inject(e, (1,)), _inject(e, (2,)), _inject(e, (1, 2))
        f2 = _inject(f, (2,))
        pairs = [(remove(join_all([e1, f2, phi()]), ODD),
                  join_all([e12, f2, I2])),
                 (remove(join_all([e1, f2, identity_I()]), ODD),
                  join(e2, f2)),
                 (remove(join(e1, phi()), ODD), join(e12, I2))]
        return all(equal(lhs, rhs) and all(
            class_of(lhs, n) == class_of(rhs, n) for n in probes)
            for lhs, rhs in pairs)

    return Query("corollary", run, expect(True))


def small_pwf(shape, label: list[int], actions: int, fused: bool) -> Pwf:
    """`shape` draws which of the names 0..3 each action uses, its
    polarity and which two of 0..4 are fused; `label` renames them."""
    proc = NIL
    for _ in range(actions):
        proc = Act(label[shape.randrange(4)], shape.choice(["up", "down"]),
                   (), proc)
    pairs = []
    if fused:
        a, b = (label[n] for n in shape.sample(range(5), 2))
        pairs.append((min(a, b), max(a, b)))
    return Pwf(proc, Fusion(frozenset(pairs)))


def _adjoint_query(rng, i: int) -> Query:
    # Action counts and fusions cycle, and the shapes are drawn from i
    # alone, so each seed gets the same queries up to a renaming of the
    # names, which it draws.
    shape = random.Random(f"adjoint:{i}")
    label = rng.sample(range(5), 5)
    p = small_pwf(shape, label, i % 3, i // 9 % 2 == 0)
    q = small_pwf(shape, label, i // 3 % 3, i // 18 % 2 == 0)
    return Query("adjoint", lambda: equal_pwf(
        star(1, star(1, as_pwf(phi()), p), q), par(p, q)), expect(True))


# Terms for the congruence queries, written here so the rewrites do not
# lean on the package: a node is ("nil",), ("act", subj, up, bound, body),
# ("par", left, right) or ("nu", name, body).

def random_term(rng, depth: int, fresh: itertools.count):
    if depth == 0:
        return ("nil",)
    roll = rng.random()
    if roll < 0.3:
        return ("par", random_term(rng, depth - 1, fresh),
                random_term(rng, depth - 1, fresh))
    if roll < 0.45:
        x = next(fresh)
        return ("nu", x, _use(rng, x, random_term(rng, depth - 1, fresh)))
    bound = (next(fresh),) if rng.random() < 0.3 else ()
    body = random_term(rng, depth - 1, fresh)
    if bound:
        body = _use(rng, bound[0], body)
    return ("act", rng.randrange(6), rng.random() < 0.5, bound, body)


def _use(rng, x, body):
    """Put one action on the bound name x in front of or beside body."""
    act = ("act", x, rng.random() < 0.5, (), ("nil",))
    if rng.random() < 0.5:
        return ("par", act, body)
    return ("act", x, rng.random() < 0.5, (), body)


def _free(node) -> frozenset:
    kind = node[0]
    if kind == "nil":
        return frozenset()
    if kind == "act":
        return (_free(node[4]) - set(node[3])) | {node[1]}
    if kind == "par":
        return _free(node[1]) | _free(node[2])
    return _free(node[2]) - {node[1]}


def _rename(node, old, new):
    kind = node[0]
    if kind == "nil":
        return node
    if kind == "act":
        _, subj, up, bound, body = node
        if old in bound:
            return node
        return ("act", new if subj == old else subj, up, bound,
                _rename(body, old, new))
    if kind == "par":
        return ("par", _rename(node[1], old, new), _rename(node[2], old, new))
    if node[1] == old:
        return node
    return ("nu", node[1], _rename(node[2], old, new))


def congruent_copy(rng, node, fresh: itertools.count):
    """Rewrite with structural congruence rules and alpha-renaming:
    commute and re-associate parallels, add and drop the unit, rename
    binders to fresh names, and extrude restrictions over parallels."""
    kind = node[0]
    if kind == "nil":
        return ("par", ("nil",), ("nil",)) if rng.random() < 0.2 else node
    if kind == "act":
        _, subj, up, bound, body = node
        body = congruent_copy(rng, body, fresh)
        if bound:
            new = next(fresh)
            body = _rename(body, bound[0], new)
            bound = (new,)
        return ("act", subj, up, bound, body)
    if kind == "nu":
        new = next(fresh)
        return ("nu", new, congruent_copy(
            rng, _rename(node[2], node[1], new), fresh))
    left = congruent_copy(rng, node[1], fresh)
    right = congruent_copy(rng, node[2], fresh)
    if rng.random() < 0.5:
        left, right = right, left
    if right[0] == "par" and rng.random() < 0.5:
        return ("par", ("par", left, right[1]), right[2])
    if left[0] == "nu" and left[1] not in _free(right) and rng.random() < 0.5:
        return ("nu", left[1], ("par", left[2], right))
    if rng.random() < 0.2:
        return ("par", ("par", left, ("nil",)), right)
    return ("par", left, right)


def flip_one(rng, node):
    """Flip the polarity of one action, changing the count of outputs."""
    acts = []

    def walk(path, n):
        if n[0] == "act":
            acts.append(path)
            walk(path + (4,), n[4])
        elif n[0] == "par":
            walk(path + (1,), n[1])
            walk(path + (2,), n[2])
        elif n[0] == "nu":
            walk(path + (2,), n[2])

    walk((), node)
    target = rng.choice(acts)

    def rebuild(path, n):
        if path == target:
            return ("act", n[1], not n[2], n[3], n[4])
        items = list(n)
        for k in range(1, len(items)):
            if isinstance(items[k], tuple) and items[k] and \
                    isinstance(items[k][0], str):
                items[k] = rebuild(path + (k,), items[k])
        return tuple(items)

    return rebuild((), node)


def to_process(node):
    kind = node[0]
    if kind == "nil":
        return NIL
    if kind == "act":
        _, subj, up, bound, body = node
        return Act(subj, "up" if up else "down", bound, to_process(body))
    if kind == "par":
        return Par(to_process(node[1]), to_process(node[2]))
    return Nu(node[1], to_process(node[2]))


def _has_action(node) -> bool:
    return node[0] == "act" or any(
        _has_action(c) for c in node[1:]
        if isinstance(c, tuple) and c and isinstance(c[0], str))


def _congruence_query(rng, i: int) -> Query:
    fresh = itertools.count(100)
    node = ("nil",)
    while not _has_action(node):
        node = random_term(rng, 4 + i % 3, fresh)
    fus = Fusion(frozenset({tuple(sorted(rng.sample(range(6), 2)))})
                 if rng.random() < 0.5 else frozenset())
    same = i % 2 == 0
    other = congruent_copy(rng, node if same else flip_one(rng, node), fresh)
    p, q = Pwf(to_process(node), fus), Pwf(to_process(other), fus)
    return Query("congruence", lambda: equal_pwf(p, q), expect(same))


def random_association(rng, leaves: list):
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randrange(1, len(leaves))
    return Par(random_association(rng, leaves[:cut]),
               random_association(rng, leaves[cut:]))


# At k >= 9 canonicalization gives up with a ProcessError (ROADMAP item
# 3); those queries count as failed, any other exception as wrong.
SIBLINGS_MAY_FAIL = 9


def _siblings_query(rng, k: int) -> Query:
    atom = Act(0, "up", (), NIL)
    p = Pwf(random_association(rng, [atom] * k), DELTA)
    q = Pwf(random_association(rng, [atom] * k), DELTA)
    return Query(f"siblings k={k}", lambda: equal_pwf(p, q), expect(True),
                 (ProcessError,) if k >= SIBLINGS_MAY_FAIL else ())


def decide(rng, wrap_pole) -> list[Query]:
    queries = [_corollary_query(rng, i) for i in range(DECIDE_COROLLARIES)]
    queries += [_adjoint_query(rng, i) for i in range(DECIDE_ADJOINTS)]
    queries += [_congruence_query(rng, i) for i in range(DECIDE_CONGRUENT)]
    queries += [_siblings_query(rng, k) for k in SIBLING_COUNTS]
    rng.shuffle(queries)
    return queries


# -- models ----------------------------------------------------------------
#
# Boolean algebras 2^n (tensor = par = meet, perp = complement, unit = top,
# separator = {top}) pass cs, ca, cpa and the derived properties, and the
# corpus is sound in them.  They have no [window]/[M] sections, so ccpa
# stops at `m-present`; that report is a regression golden.  A mutant
# whose perp sends two elements to the same image fails `perp-involutive`.

SOUNDNESS_SIZES = (1, 2, 3, 4)
MUTANT_SIZES = (3, 4)


def boolean_model_text(rng, n: int, mutant: bool = False) -> str:
    subsets = [frozenset(c) for k in range(n + 1)
               for c in itertools.combinations(range(n), k)]
    labels = [f"x{i}" for i in range(len(subsets))]
    rng.shuffle(labels)
    name = dict(zip(subsets, labels))
    full = frozenset(range(n))
    perp = {a: full - a for a in subsets}
    if mutant:
        a, b = rng.sample(subsets, 2)
        perp[a] = perp[b]
    # The checkers scan the carrier in its listed order, so the order is
    # kept (bottom first, top last) and only the labels are drawn: the
    # cost of a model does not depend on the seed.
    carrier = subsets
    lines = ["[carrier]", " ".join(name[c] for c in carrier), "[leq]"]
    lines += [f"{name[a]} <= {name[a | {x}]}"
              for a in subsets for x in range(n) if x not in a]
    for section in ("tensor", "par"):
        lines.append(f"[{section}]")
        lines += [f"{name[a]} {name[b]} -> {name[a & b]}"
                  for a in carrier for b in carrier]
    lines.append("[perp]")
    lines += [f"{name[a]} -> {name[perp[a]]}" for a in carrier]
    lines += ["[unit]", name[full], "[separator]", name[full]]
    return "\n".join(lines)


def _check_query(model, n: int, level: str) -> Query:
    checker = getattr(calgebra, f"check_{level}")

    def check(report) -> Optional[str]:
        if level == "ccpa":
            rows = report_rows(report)
            golden = GOLDENS["ccpa_rows"]
            if rows != [tuple(r) for r in golden]:
                return f"ccpa rows {rows!r} != regression golden"
            report = [r for r in report if r[0] != "m-present"]
        if not calgebra.passed(report):
            return f"2^{n} {level}: {[r for r in report if not r[1]]!r}"
        return None

    return Query(f"check 2^{n} {level}", lambda: checker(model), check)


def _mutant_query(model, level: str) -> Query:
    checker = getattr(calgebra, f"check_{level}")

    def check(report) -> Optional[str]:
        failed = [name for name, ok, _ in report if not ok]
        return None if "perp-involutive" in failed else \
            f"mutant {level}: failed rows {failed!r}"

    return Query(f"mutant {level}", lambda: checker(model), check)


def _soundness_query(corpus, model) -> Query:
    """check_soundness of every corpus proof in one model."""
    def check(reports) -> Optional[str]:
        unsound = [label for label, report in reports.items()
                   if not report or not all(ok for _, ok, _ in report)]
        return f"unsound in a Boolean algebra: {unsound}" if unsound \
            else None
    return Query("soundness", lambda: {
        label: mll.check_soundness(proof, model)
        for label, proof in corpus.items()}, check)


def _realizer_query(label: str, proof) -> Query:
    golden = parse_pwf(GOLDENS["realizers"][label])

    def check(value) -> Optional[str]:
        return None if equal_pwf(value, golden) else \
            f"realizer {label} differs from its regression golden"

    return Query("realizer", lambda: mll.evaluate_realizer(
        mll.extract_realizer(proof)), check)


def models(rng, wrap_pole) -> list[Query]:
    corpus = mll.load_corpus()
    small = calgebra.parse_model(boolean_model_text(rng, 3))
    large = calgebra.parse_model(boolean_model_text(rng, 4))
    queries = [_check_query(small, 3, level)
               for level in ("cs", "ca", "cpa", "ccpa", "derived_props")]
    # check_ccpa on 2^4 runs check_cpa, check_ca and check_cs and keeps
    # their rows, so the three lower levels are not run again.
    queries += [_check_query(large, 4, level)
                for level in ("ccpa", "derived_props")]
    for n in MUTANT_SIZES:
        mutant = calgebra.parse_model(boolean_model_text(rng, n, True))
        queries += [_mutant_query(mutant, level) for level in ("cs", "ca")]
    for n in SOUNDNESS_SIZES:
        model = {3: small, 4: large}.get(n) or \
            calgebra.parse_model(boolean_model_text(rng, n))
        queries.append(_soundness_query(corpus, model))
    queries += [_realizer_query(label, p) for label, p in corpus.items()]
    rng.shuffle(queries)
    return queries


WORKLOADS = {"sandbox": sandbox, "reduce": reduce, "decide": decide,
             "models": models}
