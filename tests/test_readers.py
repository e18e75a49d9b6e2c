"""The mll and name-set readers against the parent readers of
`parse_reference`, on printed formulas, the corpus proofs and name-set
literals, and on every literal one character away from one: each input
gives an equal value, or an exception of the same class.

Four differences are intended, and each is checked as it stands:
- A letter and a digit that touch are two tokens of `names.Tokens`, as
  in a process literal (`new0. 0!()`).  The old mll tokenizer read one
  token from any run of letters, digits and `_`, so `X1` was a
  variable and `1v` no token; now they read as `X 1` and `1 v`.  So
  the old reader is checked on the text with a space at each such
  boundary.
- An mll variable is ASCII: `É` was a variable and is an error now.
- A natural is ASCII digits only.  The old permutation reader took any
  `isdigit()` run, so `(ex (٢ ١) (ax X))` read the permutation (2 1),
  and a universe spec size went through `int()`, which also takes
  other numerals, `_` and a `+`.
- A name-set member is one name token, and a dotted name needs a letter
  after each dot.  The old reader handed `parse_name` the text between
  commas, and `word` stripped it, so `{1.}` read 1 and `{1. 2}` read 2.
"""

import re
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import parse_reference as reference
from fusioncalc import cli
from fusioncalc.mll import (Exists, Join, MllError, One, Perp, Tensor, Var,
                            formula_str, parse_formula, parse_proof)
from fusioncalc.names import parse_nameset

# the characters of the grammars, whitespace, a letter of no keyword, a
# digit, `_`, a non-ASCII letter and a digit that is not ASCII
MLL_ALPHABET = "()^*., 12XYvex_É٢"
NAMESET_ALPHABET = "{}@+,. 012alx٣"

_EMPTY_WORD = re.compile(r"\d\.(?!\d)")


def outcome(read, text):
    try:
        return read(text)
    except Exception as exc:
        return type(exc)


# where an ASCII letter or `_` touches a digit
_TOUCH = re.compile(r"(?<=[A-Za-z_])(?=\d)|(?<=\d)(?=[A-Za-z_])")


def _spaced(text: str) -> str:
    """The text as the new tokenizer splits it, for the old reader."""
    return _TOUCH.sub(" ", text)


def _edited(literal: str, alphabet: str, data) -> list[str]:
    """The literal and a few of its one-character insertions and
    deletions."""
    texts = [literal]
    for _ in range(6):
        at = data.draw(st.integers(0, len(literal)))
        char = data.draw(st.sampled_from(alphabet) | st.none())
        texts.append(literal[:at] + literal[at + 1:] if char is None
                     else literal[:at] + char + literal[at:])
    return texts


def _check(read, read_reference, texts, differs, error):
    """Where `differs(text)`, the new reader must raise `error`;
    elsewhere both readers give the same."""
    for text in texts:
        got, want = outcome(read, text), outcome(read_reference, text)
        if differs(text):
            assert got is error, text
        else:
            assert got == want, text


def _check_mll(read, read_reference, texts):
    """A text with a non-ASCII character is an error; any other reads as
    the old reader reads it with the letters and digits apart."""
    _check(read, lambda text: read_reference(_spaced(text)), texts,
           lambda text: not text.isascii(), MllError)


VARIABLES = ("X", "Y", "Z", "X_")

formulas = st.recursive(
    st.one_of(st.just(One()), st.sampled_from(VARIABLES).map(Var)),
    lambda sub: st.one_of(st.builds(Perp, sub), st.builds(Tensor, sub, sub),
                          st.builds(Join, sub, sub),
                          st.builds(Exists, st.sampled_from(VARIABLES), sub)),
    max_leaves=6)


def _corpus_proofs() -> list[str]:
    text = (resources.files("fusioncalc") / "proofs" /
            "corpus.proofs").read_text(encoding="utf-8")
    return [line.split("#", 1)[0].partition("=")[2].strip()
            for line in text.splitlines() if "=" in line.split("#", 1)[0]]


def _namesets():
    name = st.sampled_from(["0", "3", "12", "1.2", "0.1.1", "7.2.2"])
    words = st.sampled_from(["", "1", "2", "1.2", "2.1.1"])
    part = (st.lists(name, max_size=3).flatmap(
                lambda names: st.sampled_from([",", ", "]).map(
                    lambda comma: "{" + comma.join(names) + "}"))
            | words.map(lambda w: "@" + w) | st.just("all"))
    return st.lists(part, min_size=1, max_size=3).flatmap(
        lambda parts: st.sampled_from(["+", " + "]).map(
            lambda plus: plus.join(parts)))


@given(formulas, st.data())
@settings(max_examples=200, deadline=None)
def test_printed_formulas_read_as_the_old_reader_read_them(f, data):
    assert parse_formula(formula_str(f)) == f
    _check_mll(parse_formula, reference.parse_formula,
               _edited(formula_str(f), MLL_ALPHABET, data))


@given(st.sampled_from(_corpus_proofs()), st.data())
@settings(max_examples=200, deadline=None)
def test_corpus_proofs_read_as_the_old_reader_read_them(text, data):
    assert parse_proof(text) == reference.parse_proof(text)
    _check_mll(parse_proof, reference.parse_proof,
               _edited(text, MLL_ALPHABET, data))


@given(_namesets(), st.data())
@settings(max_examples=200, deadline=None)
def test_nameset_literals_read_as_the_old_reader_read_them(text, data):
    _check(parse_nameset, reference.parse_nameset,
           _edited(text, NAMESET_ALPHABET, data),
           lambda t: _EMPTY_WORD.search(t) is not None, ValueError)


@pytest.mark.parametrize("read, read_reference, text, error", [
    (parse_formula, reference.parse_formula, "X1 * Y", MllError),
    (parse_proof, reference.parse_proof, "(exists (one) X1 Y)", None),
    (parse_formula, reference.parse_formula, "1v X", None),
    (parse_formula, reference.parse_formula, "ex É. É", MllError),
    (parse_proof, reference.parse_proof, "(ax X_1)", MllError),
    (parse_proof, reference.parse_proof, "(ex (٢ ١) (ax X))", MllError),
    (parse_nameset, reference.parse_nameset, "{1.}", ValueError),
    (parse_nameset, reference.parse_nameset, "{0, 1. 2} + @1", ValueError),
])
def test_the_intended_differences(read, read_reference, text, error):
    """Each text reads differently: where `error` is None, the old
    reader rejected it and the new one takes it (as the old one takes
    it spaced); otherwise the other way round."""
    old, new = outcome(read_reference, text), outcome(read, text)
    if error is None:
        assert old is MllError
        assert new == read_reference(_spaced(text))
    else:
        assert not isinstance(old, type) and new is error


@pytest.mark.parametrize("value", ["١٦", "1_6", "+16"])
def test_universe_sizes_are_ascii_naturals(value):
    """`int()` takes each of these; a universe spec size does not."""
    assert int(value) == 16
    with pytest.raises(ValueError, match="limit is a decimal natural"):
        cli._parse_universe_spec(f"limit={value}")
