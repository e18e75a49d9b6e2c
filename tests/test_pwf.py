import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fusioncalc.fusion import (DELTA, Fusion, FusionError,
                               NotRepresentableError, _classes, equal,
                               fusion_str, identity_I, join, parse_fusion,
                               phi, sigma_tau)
from fusioncalc.names import finite, parse_nameset, residue
from fusioncalc.process import NIL, Act, parse_process, process_str
from fusioncalc.pwf import (
    Pwf, PwfError, REALIZER_WORDS, as_pwf, bullet, equal_pwf, fn_contains,
    hereditary_closure, normalize, nu_all, nu_finite, nu_name, nu_set,
    par, parse_pwf, prefix, pwf_str, realizer_catalog, relabel, relabel_word,
    sigma_node, star, unrelabel, _closure_step)
from fusioncalc.subst import Substitution, finite_subst, remap_subst
from fusioncalc.terms import multiset_form
from fusion_reference import canonical_subst
from pwf_reference import (np_nu_all, np_nu_set, np_star,
                           reference_nu_name)
from subst_reference import compose, reference_substitute, scoped_processes


def pwfs(max_actions=2, names=4):
    def build(actions, fused):
        proc = NIL
        for subject, polarity in actions:
            proc = Act(subject, polarity, (), proc)
        pairs = frozenset(tuple(sorted(p)) for p in fused if p[0] != p[1])
        return Pwf(proc, Fusion(pairs))

    action = st.tuples(st.integers(0, names - 1),
                       st.sampled_from(["up", "down"]))
    pair = st.tuples(st.integers(0, names), st.integers(0, names))
    return st.builds(build, st.lists(action, max_size=max_actions),
                     st.lists(pair, max_size=1))


def test_fn_contains():
    assert not fn_contains(parse_pwf("<1 ; {}>"), 0)
    assert fn_contains(parse_pwf("<0!() ; {0~5}>"), 5)
    assert fn_contains(parse_pwf("<1 ; {[1 <-> 2]}>"), 7)


def test_equal_pwf_identifies_fused_subjects():
    assert equal_pwf(parse_pwf("<0!() ; {0~1}>"), parse_pwf("<1!() ; {0~1}>"))
    assert not equal_pwf(parse_pwf("<0!() ; {}>"), parse_pwf("<0!() ; {[1 <-> 2]}>"))
    assert not equal_pwf(parse_pwf("<0!() ; {}>"), parse_pwf("<1!() ; {}>"))


def test_par_joins():
    p = par(parse_pwf("<0!() ; {0~1}>"), parse_pwf("<2?() ; {2~3}>"))
    assert equal_pwf(p, parse_pwf("<0!() | 2?() ; {0~1, 2~3}>"))


def test_prefix_guard():
    assert prefix(0, "up", (1,), parse_pwf("<1 ; {}>")) == \
        parse_pwf("<0!(1) ; {}>")
    with pytest.raises(PwfError):
        prefix(0, "up", (1,), parse_pwf("<1 ; {1~2}>"))
    prefix(0, "down", (), parse_pwf("<1 ; {1~2}>"))  # empty vector: no guard


def test_nu_name_goldens():
    assert pwf_str(nu_name(0, parse_pwf("<0!() ; {}>"))) == "<new 0. 0!() ; {}>"
    assert equal_pwf(nu_name(0, parse_pwf("<0!() ; {0~1}>")),
                     parse_pwf("<1!() ; {}>"))
    assert equal_pwf(nu_name(3, parse_pwf("<0!() ; {}>")),
                     parse_pwf("<0!() ; {}>"))


@given(pwfs(), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_nu_name_commutes(p, x, y):
    assert equal_pwf(nu_name(x, nu_name(y, p)), nu_name(y, nu_name(x, p)))


def test_nu_finite_order_is_immaterial():
    p = parse_pwf("<0!().1?() ; {0~2}>")
    a = nu_finite(frozenset({0, 1}), p)
    b = nu_name(0, nu_name(1, p))
    assert equal_pwf(a, b)


def test_nu_finite_class_closure_example():
    p = parse_pwf("<0!().1?() ; {0~1~2, 3~4}>")
    result = nu_finite(frozenset({0, 3}), p, class_closure=True)
    assert equal_pwf(result, parse_pwf("<new 2. 2!().2?() ; {}>"))
    # the literal default keeps the unbound class remnants
    literal = nu_finite(frozenset({0, 3}), p)
    assert equal(literal.fus, parse_fusion("{1~2}"))


def test_hereditary_closure_trace():
    S, sigma = hereditary_closure(parse_nameset("@1"),
                                  parse_pwf("<1!() ; {1~3, 5~4}>"))
    assert S == {1, 3}
    assert sigma.apply(1) == 3 and sigma.apply(3) == 3


def test_hereditary_closure_on_delta_is_identity():
    S, sigma = hereditary_closure(parse_nameset("{0,2}"),
                                  parse_pwf("<0!().2?().5!() ; {}>"))
    assert S == {0, 2}
    assert sigma.apply(0) == 0 and sigma.apply(2) == 2


def _fusions():
    """Fusions of up to three pairs of names 0..7, alone or with a
    family generator."""
    pair = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda ab: ab[0] != ab[1]).map(lambda ab: f"{ab[0]}~{ab[1]}")
    family = st.sampled_from([[], ["[1 <-> 2]"], ["[1.1 <-> 2]"]])
    return st.builds(lambda pairs, fam: parse_fusion(
        "{" + ", ".join(pairs + fam) + "}"),
        st.lists(pair, max_size=3), family)


def _compose_chain(S, p):
    """hereditary_closure's σ as one `compose` per step of S."""
    sigma = Substitution()
    for s, t in zip(sorted(S), _closure_step(S, _classes(p.fus))):
        sigma = compose(finite_subst({s: t}), sigma)
    return sigma


@given(scoped_processes(), _fusions(), st.sampled_from(
    ["all", "@1", "@2", "@1.2", "{0,2}", "{1,3,4} + @2.1"]))
@settings(max_examples=200, deadline=None)
def test_hereditary_closure_map_equals_the_compose_chain(proc, fus, X):
    p = Pwf(proc, fus)
    S, sigma = hereditary_closure(parse_nameset(X), p)
    chain = _compose_chain(S, p)
    for x in S | fus.endpoints() | set(range(64)):
        assert sigma.apply(x) == chain.apply(x)


def test_hereditary_closure_makes_no_compose_call():
    """σ is one finite map: the package has no `compose` to call."""
    S, sigma = hereditary_closure(
        parse_nameset("all"), parse_pwf("<0!().2?() ; {0~1~2, 3~4, 5~6}>"))
    assert S == {0, 1, 2} and sigma.apply(0) == sigma.apply(1) == 2
    assert not any(hasattr(module, "compose") for name, module
                   in list(sys.modules.items())
                   if name.startswith("fusioncalc"))


@given(scoped_processes(), _fusions())
@settings(max_examples=200, deadline=None)
def test_sigma_node_is_the_form_of_the_substituted_process(proc, fus):
    """σ on the multiset form commutes with σ on the process."""
    p = Pwf(proc, fus)
    expected = multiset_form(
        reference_substitute(proc, canonical_subst(fus)))[0]
    assert sigma_node(p) == expected


@given(scoped_processes(), _fusions())
@settings(max_examples=200, deadline=None)
def test_each_printed_new_lists_its_binders_in_ascending_order(proc, fus):
    for binders in re.findall(r"new ([\d ]+)\.", pwf_str(normalize(
            Pwf(proc, fus)))):
        names = [int(x) for x in binders.split()]
        assert names == sorted(names), binders


NAME_SETS = ["all", "@1", "@2", "@1.2", "{0,2}", "{1,3,4}", "{5,7}",
             "{1,3,4} + @2.1"]


def _outcome(op, *args):
    """op(*args), or the class of the fusion or PWF error it raises."""
    try:
        return op(*args)
    except (FusionError, PwfError) as exc:
        return type(exc)


@given(scoped_processes(), _fusions(), st.sampled_from(NAME_SETS))
@settings(max_examples=300, deadline=None)
def test_the_np_seed_changes_no_nu_set(proc, fus, X):
    """Seeding the hereditary closure with the classes of the free names
    and the pair endpoints inside X (`pwf_reference`) gives the PWF, or
    the error, that the library's seed gives, printed alike."""
    p, names = Pwf(proc, fus), parse_nameset(X)
    for ours, ref in ((_outcome(nu_set, names, p),
                       _outcome(np_nu_set, names, p)),
                      (_outcome(nu_all, p), _outcome(np_nu_all, p))):
        if isinstance(ours, type):
            assert ref is ours
        else:
            assert equal_pwf(ours, ref)
            assert pwf_str(ours) == pwf_str(ref)


@given(scoped_processes(), _fusions(), st.integers(0, 15))
@settings(max_examples=300, deadline=None)
def test_nu_name_prints_as_the_direct_binder(proc, fus, x):
    """`nu_name`, which is `nu_set` of {x}, prints the PWF, or raises the
    error class, of binding x directly under x -> x* (`pwf_reference`):
    the vacuous ν that `nu_set` leaves out is one `tidy` drops."""
    p = Pwf(proc, fus)
    ours, ref = _outcome(nu_name, x, p), _outcome(reference_nu_name, x, p)
    if isinstance(ours, type):
        assert ref is ours
    else:
        assert pwf_str(ours) == pwf_str(ref)


@given(scoped_processes(max_leaves=4), _fusions(),
       scoped_processes(max_leaves=4), _fusions(), st.sampled_from([1, 2]))
@settings(max_examples=300, deadline=None)
def test_the_np_seed_changes_no_star(p_proc, p_fus, q_proc, q_fus, i):
    """The same for `star i`, whose restriction is a ν of a region; the
    two may print α-variants, so only `equal_pwf` is compared."""
    p, q = Pwf(p_proc, p_fus), Pwf(q_proc, q_fus)
    ours, ref = _outcome(star, i, p, q), _outcome(np_star, i, p, q)
    if isinstance(ours, type):
        assert ref is ours
    else:
        assert equal_pwf(ours, ref)


def test_nu_set_goldens():
    out = nu_set(parse_nameset("@1"), parse_pwf("<1!() ; {1~3, 5~4}>"))
    assert pwf_str(out) == "<new 3. 3!() ; {}>"
    p = parse_pwf("<0!().1 | 0?().1 ; {}>")
    assert equal_pwf(nu_set(parse_nameset("all"), p),
                     parse_pwf("<new 0.(0!() | 0?()) ; {}>"))


def test_nu_all():
    assert equal_pwf(nu_all(parse_pwf("<1 ; {}>")), parse_pwf("<1 ; {}>"))
    out = nu_all(parse_pwf("<0!() ; {0~1}>"))
    assert equal_pwf(out, parse_pwf("<new 1. 1!() ; {}>"))
    assert out.fus == DELTA


@given(pwfs())
@settings(max_examples=40, deadline=None)
def test_nu_all_closes_everything(p):
    out = nu_all(p)
    assert out.fus == DELTA
    from fusioncalc.process import free_names
    assert not free_names(out.proc)


def test_relabel_examples():
    assert equal_pwf(relabel(parse_pwf("<0!() ; {}>"), 1),
                     parse_pwf("<1!() ; {}>"))
    assert fusion_str(relabel(as_pwf(identity_I()), 2).fus) == \
        "{[1.2 <-> 2.2]}"


@given(pwfs(), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_unrelabel_inverts_relabel(p, i):
    assert equal_pwf(unrelabel(relabel(p, i), i), p)


def test_unrelabel_rejects_out_of_image():
    with pytest.raises(PwfError):
        unrelabel(parse_pwf("<0!() ; {}>"), 1)  # 0 is not odd
    with pytest.raises(PwfError):
        unrelabel(as_pwf(identity_I()), 1)  # family crosses the injections


def test_bullet_splits_namespaces():
    b = bullet(parse_pwf("<0!() ; {}>"), parse_pwf("<0?() ; {}>"))
    assert equal_pwf(b, parse_pwf("<1!() | 0?() ; {}>"))


@given(pwfs(), pwfs())
@settings(max_examples=30, deadline=None)
def test_star_star_phi_is_par(p, q):
    lhs = star(1, star(1, as_pwf(phi()), p), q)
    assert equal_pwf(lhs, par(p, q))


@given(pwfs())
@settings(max_examples=20, deadline=None)
def test_star_with_phi_relabels(p):
    lhs = star(1, as_pwf(phi()), p)
    rhs = Pwf(relabel(p, 1).proc,
              join(relabel(p, 1).fus, identity_I()))
    assert equal_pwf(lhs, rhs)


def test_catalog_contents():
    catalog = realizer_catalog()
    assert equal(catalog["ID"], identity_I())
    assert REALIZER_WORDS["ASSOC_R"] == (((1, 1), (1, 1, 2)),
                                         ((1, 2, 1), (2, 1, 2)),
                                         ((2, 2, 1), (2, 2)))
    assert REALIZER_WORDS["COMM"] == (((1, 1), (2, 2)), ((2, 1), (1, 2)))
    assert set(catalog) == {"ID", "ASSOC_R", "ASSOC_L", "COMM",
                            "UNIT_INTRO_L", "UNIT_ELIM_L", "UNIT_INTRO_R",
                            "UNIT_ELIM_R", "COMP", "CONTRA", "CTX"}


def _random_pwf(rng):
    proc = NIL
    for _ in range(rng.randrange(3)):
        proc = Act(rng.randrange(4), rng.choice(["up", "down"]), (), proc)
    pairs = []
    if rng.random() < 0.5:
        a, b = rng.sample(range(5), 2)
        pairs.append((min(a, b), max(a, b)))
    return Pwf(proc, Fusion(frozenset(pairs)))


def test_restriction_step_for_each_catalog_remap():
    """One family (u <-> v) dissolves under nu over u's residue, moving
    the u-side component onto v."""
    rng = random.Random(11)
    for label, remaps in REALIZER_WORDS.items():
        for u, v in remaps:
            for _ in range(3):
                a, b = _random_pwf(rng), _random_pwf(rng)
                fam = sigma_tau(remap_subst([(u, v)]))
                lhs_inner = par(relabel_word(a, u), relabel_word(b, v))
                lhs = nu_set(residue(u),
                             Pwf(lhs_inner.proc, join(lhs_inner.fus, fam)))
                rhs = par(relabel_word(a, v), relabel_word(b, v))
                assert equal_pwf(lhs, rhs), (label, u, v)


def test_pwf_literal_roundtrip():
    for text in ["<1 ; {}>", "<0!() ; {0~1}>",
                 "<new 3. 3!() ; {}>", "<1 ; {[1 <-> 2]}>"]:
        p = parse_pwf(text)
        assert equal_pwf(parse_pwf(pwf_str(p)), p)
