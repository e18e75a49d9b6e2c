"""End-to-end acceptance gate: one test (and one printed verdict line)
per top-level claim the package makes.  Run with `pytest -s` to see the
verdict lines as they are produced.
"""

import itertools
import random

from congruence_oracle import alpha_key, enumerate_universe, oracle_partition

from fusioncalc import calgebra, hy_encodings, mll, realizability
from fusioncalc.fusion import (DELTA, Fusion, class_of, equal, identity_I,
                               join, join_all, map_fusion, meet, parse_fusion,
                               phi, related, remove, sigma_tau)
from fusioncalc.names import NameSet, finite, parse_nameset, residue
from fusioncalc.process import NIL, Act, Par, canonical
from fusioncalc.pwf import (Pwf, REALIZER_WORDS, as_pwf, equal_pwf, nu_all,
                            nu_finite, nu_name, nu_set, par, parse_pwf,
                            pwf_str, relabel_word, star)
from fusioncalc.reduction import pole_regular_on
from fusioncalc.subst import remap_subst


def _verdict(label: str, ok: bool) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _random_fusion(rng, max_name=15, max_class=4):
    pairs = []
    pool = list(range(max_name + 1))
    rng.shuffle(pool)
    for _ in range(rng.randrange(4)):
        size = rng.randint(2, max_class)
        cls, pool = pool[:size], pool[size:]
        pairs.extend(zip(cls, cls[1:]))
    return Fusion(frozenset(tuple(sorted(p)) for p in pairs))


def _random_nameset(rng):
    singles = frozenset(rng.sample(range(20), rng.randrange(5)))
    words = [(1,), (2,), (1, 2), (2, 1)]
    residues = frozenset(rng.sample(words, rng.randrange(3)))
    return NameSet(singles, residues, False)


def _random_pwf(rng, names=4):
    proc = NIL
    for _ in range(rng.randrange(3)):
        proc = Act(rng.randrange(names), rng.choice(["up", "down"]), (), proc)
    pairs = []
    if rng.random() < 0.5:
        a, b = rng.sample(range(names + 1), 2)
        pairs.append((min(a, b), max(a, b)))
    return Pwf(proc, Fusion(frozenset(pairs)))


def _par_all(parts, extra_fus=None):
    out = parts[0]
    for q in parts[1:]:
        out = par(out, q)
    if extra_fus is not None:
        out = Pwf(out.proc, join(out.fus, extra_fus))
    return out


def test_criterion_01_fusion_algebra_suite():
    rng = random.Random(1)
    ok = True
    for _ in range(50):
        e, f, g = (_random_fusion(rng) for _ in range(3))
        ok = ok and equal(join(e, f), join(f, e))
        ok = ok and equal(join(join(e, f), g), join(e, join(f, g)))
        ok = ok and equal(join(e, e), e) and equal(meet(e, e), e)
        ok = ok and equal(meet(e, f), meet(f, e))
        ok = ok and equal(meet(e, join(e, f)), e)
        ok = ok and equal(join(e, meet(e, f)), e)
        X, Y = _random_nameset(rng), _random_nameset(rng)
        ok = ok and equal(remove(remove(e, X), Y), remove(e, X.union(Y)))
    e, f, g = (parse_fusion(t) for t in ("{0~1}", "{1~2}", "{0~2}"))
    ok = ok and related(meet(join(e, f), g), 0, 2)
    ok = ok and equal(join(meet(e, g), meet(f, g)), DELTA)
    _verdict("criterion 01 fusion-algebra-suite", ok)


def test_criterion_02_injection_corollaries():
    rng = random.Random(2)
    odd = parse_nameset("@1")
    i2 = sigma_tau(remap_subst([((1, 2), (2, 2))]))

    def inject(e, w):
        return map_fusion(e, remap_subst([((), w)]))

    ok = True
    for trial in range(100):
        e, f = _random_fusion(rng), _random_fusion(rng)
        e1, e2, e12 = inject(e, (1,)), inject(e, (2,)), inject(e, (1, 2))
        f2 = inject(f, (2,))
        checks = [
            (remove(join_all([e1, f2, phi()]), odd),
             join_all([e12, f2, i2])),
            (remove(join_all([e1, f2, identity_I()]), odd), join(e2, f2)),
            (remove(join(e1, phi()), odd), join(e12, i2)),
        ]
        for lhs, rhs in checks:
            ok = ok and equal(lhs, rhs)
            for n in rng.sample(range(256), 6):
                ok = ok and class_of(lhs, n) == class_of(rhs, n)
    _verdict("criterion 02 injection-corollaries", ok)


def test_criterion_03_nu_goldens_and_commutation():
    out = nu_set(parse_nameset("@1"), parse_pwf("<1!() ; {1~3, 5~4}>"))
    ok = pwf_str(out) == "<new 3. 3!() ; {}>"

    closed = nu_finite(frozenset({0, 3}),
                       parse_pwf("<0!().1?() ; {0~1~2, 3~4}>"),
                       class_closure=True)
    ok = ok and equal_pwf(closed, parse_pwf("<new 2. 2!().2?() ; {}>"))
    ok = ok and closed.fus == DELTA

    atoms = [(s, pol) for s in range(4) for pol in ("up", "down")]
    procs = [NIL]
    procs += [Act(s, pol, (), NIL) for s, pol in atoms]
    procs += [Act(s1, p1, (), Act(s2, p2, (), NIL))
              for (s1, p1), (s2, p2) in itertools.product(atoms, repeat=2)]
    procs += [Par(Act(s1, p1, (), NIL), Act(s2, p2, (), NIL))
              for (s1, p1), (s2, p2) in
              itertools.combinations_with_replacement(atoms, 2)]
    fusions = [DELTA, parse_fusion("{0~1}"), parse_fusion("{2~3}")]
    for proc, fus in itertools.product(procs, fusions):
        p = Pwf(proc, fus)
        for x, y in itertools.combinations(range(4), 2):
            ok = ok and equal_pwf(nu_name(x, nu_name(y, p)),
                                  nu_name(y, nu_name(x, p)))
    _verdict("criterion 03 nu-goldens-and-commutation", ok)


def test_criterion_04_adjoint_parallel():
    rng = random.Random(4)
    ok = True
    for _ in range(100):
        p, q = _random_pwf(rng), _random_pwf(rng)
        ok = ok and equal_pwf(star(1, star(1, as_pwf(phi()), p), q),
                              par(p, q))
    _verdict("criterion 04 adjoint-parallel", ok)


def test_criterion_05_catalog_restriction_chains():
    rng = random.Random(5)
    ok = True
    for label, remaps in REALIZER_WORDS.items():
        # full-relabelling chain: the whole family of region remaps
        # dissolves under closing every name.  It needs every source
        # region inside the odd half of the name space; COMP and CTX
        # have even source regions and route through intermediate
        # stages, so only their stepwise identities are checked.
        if all(u[-1] == 1 for u, _ in remaps):
            tau = sigma_tau(remap_subst(remaps))
            for _ in range(25):
                comps = [_random_pwf(rng) for _ in remaps]
                bystander = relabel_word(_random_pwf(rng), (2,))
                lhs = nu_all(_par_all(
                    [relabel_word(c, u) for c, (u, _) in zip(comps, remaps)]
                    + [bystander], tau))
                rhs = nu_all(_par_all(
                    [relabel_word(c, v) for c, (_, v) in zip(comps, remaps)]
                    + [bystander]))
                ok = ok and equal_pwf(lhs, rhs)
        # stepwise identity: one region remap dissolves under closing
        # the source region, moving its component onto the image
        trials = 25 if all(u[-1] == 1 for u, _ in remaps) else 50
        for trial in range(trials):
            u, v = remaps[trial % len(remaps)]
            a, b = _random_pwf(rng), _random_pwf(rng)
            fam = sigma_tau(remap_subst([(u, v)]))
            inner = par(relabel_word(a, u), relabel_word(b, v))
            lhs = nu_set(residue(u), Pwf(inner.proc, join(inner.fus, fam)))
            rhs = par(relabel_word(a, v), relabel_word(b, v))
            ok = ok and equal_pwf(lhs, rhs)
    _verdict("criterion 05 catalog-restriction-chains", ok)


def test_criterion_06_congruence_oracle_agreement():
    universe = enumerate_universe(max_actions=3, names=range(4))
    partition_canon: dict = {}
    for p in universe:
        partition_canon.setdefault(alpha_key(canonical(p)), set()).add(
            alpha_key(p))
    partition_oracle = {frozenset(map(alpha_key, members))
                        for members in oracle_partition(3, range(4))}
    ok = set(map(frozenset, partition_canon.values())) == partition_oracle
    _verdict("criterion 06 congruence-oracle-agreement", ok)


def test_criterion_07_realizability_sandbox():
    members = realizability.default_universe(limit=160)
    ok = len(members) >= 150
    for pole_text in ("always", "done:8"):
        u = realizability.Universe(members,
                                   realizability.parse_pole(pole_text))
        for name, law_ok, witness in realizability.check_laws(u, samples=8):
            ok = ok and law_ok
    ok = ok and pole_regular_on(realizability.make_pole_done(8), members)
    _verdict("criterion 07 realizability-sandbox", ok)


def test_criterion_08_finite_model_checker():
    ok = True
    for name in ("boolean2", "boolean4"):
        m = calgebra.load_model(name)
        for check in (calgebra.check_cs, calgebra.check_ca,
                      calgebra.check_cpa):
            ok = ok and calgebra.passed(check(m))
        ok = ok and all(value == m.unit
                        for value in m.combinators().values())
    mutated = calgebra.load_model("mutated_diamond")
    report = calgebra.check_cs(mutated)
    ok = ok and not calgebra.passed(report)
    ok = ok and any(witness for _, law_ok, witness in report if not law_ok)
    _verdict("criterion 08 finite-model-checker", ok)


def test_criterion_09_mll_corpus_soundness_extraction():
    corpus = mll.load_corpus()
    ok = len(corpus) == 20
    for proof in corpus.values():
        mll.check_proof(proof)
    for name in calgebra.shipped_model_names():
        m = calgebra.load_model(name)
        if not calgebra.passed(calgebra.check_ca(m)):
            continue
        for proof in corpus.values():
            report = mll.check_soundness(proof, m)
            ok = ok and report and all(entry[1] for entry in report)
    ax = mll.evaluate_realizer(mll.extract_realizer(mll.parse_proof("(ax X)")))
    one = mll.evaluate_realizer(mll.extract_realizer(mll.parse_proof("(one)")))
    ok = ok and equal_pwf(ax, as_pwf(identity_I()))
    ok = ok and equal_pwf(one, Pwf(NIL, DELTA))
    _verdict("criterion 09 mll-corpus-soundness-extraction", ok)


def test_criterion_10_hy_reduction_tests():
    report = {label: verdict
              for label, verdict, _ in hy_encodings.check_hy_reductions()}
    ok = all(report[label] == "pass" for label in ("M", "K", "F", "D"))
    ok = ok and all(report[label] == "not-encodable"
                    for label in ("Bl", "Br", "S"))
    _verdict("criterion 10 hy-reduction-tests", ok)
