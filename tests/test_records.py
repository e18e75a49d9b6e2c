"""Records: the value classes hash as their field tuples, are equal only
within one class, print as `Class(field=value, ...)`, refuse assignment,
and compile no methods, so importing the CLI loads neither `dataclasses`
nor `inspect`.  The hash values fix the iteration order of every set and
dict of records, and with it the printed outputs."""

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fusioncalc
from fusioncalc import mll
from fusioncalc.fusion import DELTA, Fusion
from fusioncalc.names import NameSet, parse_nameset
from fusioncalc.process import NIL, Act, Nil, Nu, Par, parse_process
from fusioncalc.pwf import Pwf, parse_pwf, realizer_catalog
from fusioncalc.subst import Substitution, finite_subst, remap_subst

# The fields of each record class, in order: the hash of a record is the
# hash of this tuple.
FIELDS = {
    Nil: (), Par: ("left", "right"),
    Act: ("subject", "polarity", "bound", "body"), Nu: ("name", "body"),
    NameSet: ("singletons", "residues", "universal", "excluded"),
    Substitution: ("finite_map", "word_remaps"),
    Fusion: ("pairs", "families"), Pwf: ("proc", "fus"),
    mll.One: (), mll.Var: ("name",), mll.Perp: ("body",),
    mll.Tensor: ("left", "right"), mll.Join: ("left", "right"),
    mll.Exists: ("var", "body"), mll.Ax: ("formula",),
    mll.Ex: ("perm", "sub"), mll.SubRule: ("sub", "extension"),
    mll.Cut: ("left", "right", "formula"), mll.OneIntro: (),
    mll.TensorIntro: ("left", "right"),
    mll.ExistsIntro: ("sub", "var", "body", "witness"),
    mll.Const: ("label",), mll.Star1: ("func", "arg"),
}


def field_tuple(r) -> tuple:
    return tuple(getattr(r, name) for name in FIELDS[type(r)])


def nodes(r):
    """r and every record below it, depth first."""
    yield r
    for value in field_tuple(r):
        if type(value) in FIELDS:
            yield from nodes(value)


NAMES = st.sampled_from(["0", "1", "2", "1.2", "3.1.2"])
BOUND = st.sampled_from(["", "4", "4, 5.1"])
PROCESS_TEXTS = st.recursive(
    st.just("1") | st.builds("{}{}({})".format, NAMES, st.sampled_from("!?"),
                             BOUND),
    lambda inner: st.builds("({}) | ({})".format, inner, inner)
    | st.builds("new {}. ({})".format, NAMES, inner)
    | st.builds("{}{}({}).({})".format, NAMES, st.sampled_from("!?"), BOUND,
                inner),
    max_leaves=6)


@given(PROCESS_TEXTS)
@settings(max_examples=80, deadline=None)
def test_parsed_processes_hash_as_their_field_tuples(text):
    for node in nodes(parse_process(text)):
        assert hash(node) == hash(field_tuple(node))
        assert node == type(node)(*field_tuple(node))


def test_values_hash_as_their_field_tuples():
    values = [*realizer_catalog().values(), parse_nameset("{0, 3, 1.2}"),
              NameSet(universal=True, excluded=frozenset({3})), NameSet(),
              finite_subst({3: 1, 1: 2}), remap_subst([((1,), (2,))]),
              Pwf(NIL, DELTA),
              parse_pwf("<0!(1) ; {0~1, [1 <-> 2.1]}>")]
    for proof in mll.load_corpus().values():
        values += [*nodes(proof), *nodes(mll.extract_realizer(proof))]
        values += [node for f in mll.check_proof(proof) for node in nodes(f)]
    assert {type(r) for r in values} == set(FIELDS) - {Nil, Par, Act, Nu}
    for r in values:
        assert hash(r) == hash(field_tuple(r)), r
        assert r == type(r)(*field_tuple(r)), r


def test_repr_names_the_class_and_each_field():
    assert repr(parse_process("new 2. 0!(1).2?()")) == (
        "Nu(name=2, body=Act(subject=0, polarity='up', bound=(1,), "
        "body=Act(subject=2, polarity='down', bound=(), body=Nil())))")
    assert repr(parse_pwf("<0!() ; {0~1, [1 <-> 2.1]}>")) == (
        "Pwf(proc=Act(subject=0, polarity='up', bound=(), body=Nil()), "
        "fus=Fusion(pairs=frozenset({(0, 1)}), "
        "families=frozenset({((1,), (2, 1))})))")
    assert repr(parse_nameset("{0, 3, 1.2}")) == (
        "NameSet(singletons=frozenset({0, 2, 3}), residues=frozenset(), "
        "universal=False, excluded=frozenset())")
    assert repr(finite_subst({3: 1, 1: 2})) == (
        "Substitution(finite_map=((1, 2), (3, 1)), word_remaps=frozenset())")
    assert repr(mll.parse_formula("ex X. X * Y v 1 ^")) == (
        "Exists(var='X', body=Join(left=Tensor(left=Var(name='X'), "
        "right=Var(name='Y')), right=Perp(body=One())))")
    assert repr(mll.load_corpus()["cut_tensor"]) == (
        "Cut(left=TensorIntro(left=Ax(formula=Var(name='X')), "
        "right=Ax(formula=Var(name='Y'))), right=Ax(formula=Var(name='Y')), "
        "formula=Var(name='Y'))")
    assert repr(mll.Star1(mll.Const("UNIT"), mll.OneIntro())) == (
        "Star1(func=Const(label='UNIT'), arg=OneIntro())")


def test_records_of_different_classes_are_unequal():
    x, one = mll.Var("X"), mll.One()
    pairs = [(mll.Tensor(x, one), mll.Join(x, one)),
             (mll.Tensor(x, one), mll.TensorIntro(x, one)),
             (mll.Var("X"), mll.Const("X")), (mll.Perp(x), mll.Ax(x)),
             (one, mll.OneIntro()), (NIL, one),
             (Par(NIL, NIL), mll.Tensor(NIL, NIL)),
             (Pwf(NIL, DELTA), mll.Star1(NIL, DELTA))]
    for r, s in pairs:
        assert r != s and not r == s
        assert len({r, s}) == 2
    assert mll.Tensor(x, one) != (x, one) and NIL != ()
    assert Nil() == NIL
    assert mll.Tensor(x, one) == mll.Tensor(mll.Var("X"), mll.One())


@pytest.mark.parametrize("record, name", [
    (DELTA, "pairs"), (NIL, "name"), (Par(NIL, NIL), "left"),
    (Pwf(NIL, DELTA), "fus"), (mll.Var("X"), "name"),
    (finite_subst({1: 2}), "_table"), (NameSet(), "universal")])
def test_records_refuse_assignment(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_records_survive_pickle_and_copy():
    """A record is rebuilt from its field tuple, so the slotted classes,
    whose assignment raises, still round-trip."""
    values = [parse_process("new 2. 0!(1).2?() | 1"), DELTA,
              parse_pwf("<0!(1) ; {0~1, [1 <-> 2.1]}>"),
              finite_subst({3: 1, 1: 2}), parse_nameset("{0, 3, 1.2}"),
              mll.load_corpus()["cut_tensor"]]
    for r in values:
        for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert twin == r and repr(twin) == repr(r)
    assert pickle.loads(pickle.dumps(values[3]))(3) == 1


def test_only_finmodel_is_a_dataclass():
    found = set()
    for info in pkgutil.iter_modules(fusioncalc.__path__):
        if info.ispkg or info.name == "__main__":
            continue
        module = importlib.import_module(f"fusioncalc.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__}
    assert found == {"calgebra.FinModel"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Nor does importing `realizability` load the `calgebra` checkers:
    the report rows it returns are `record.Report`s."""
    src = Path(fusioncalc.__file__).resolve().parent.parent
    for module, unloaded in (("fusioncalc.cli", {"dataclasses", "inspect"}),
                             ("fusioncalc.realizability",
                              {"fusioncalc.calgebra"})):
        code = (f"import sys, {module}; "
                f"print(*sorted({unloaded!r} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.stdout.strip() == "", module
