"""The literal readers against the character scanners they replaced
(`parse_reference`), on printed literals and on every literal one
character away from one: each input gives an equal value, or an
exception of the same class.

Two differences are intended, and each is checked as it stands:
- A PWF literal splits at its first `;`, the scanner at its last `;`
  outside braces.  They split apart only where the text holds a second
  `;`, or a brace before the first, and then neither reads it; the
  error comes from the part where reading stopped.
- A fusion literal reads its names as tokens, as a process does.  The
  scanner handed `parse_name` the text between separators, so `{0~1.}`
  read 1 for `1.`: a name with an empty dotted word.  That is an error
  now.
"""

import re
from unittest import mock

from hypothesis import given, settings, strategies as st

import parse_reference as reference
from fusioncalc import cli, realizability
from fusioncalc.fusion import Fusion, fusion_str, parse_fusion
from fusioncalc.names import word
from fusioncalc.process import parse_process, process_str
from fusioncalc.pwf import Pwf, parse_pwf, pwf_str
from subst_reference import scoped_processes

# the characters of the grammars, whitespace, a letter and a digit that
# is not ASCII
ALPHABET = "<>;{}[]()~!?|,.=-_ 0129nwx٣"

_EMPTY_WORD = re.compile(r"\d\.(?!\d)")


def outcome(read, text):
    try:
        return read(text)
    except Exception as exc:
        return type(exc)


def _fusions():
    pair = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda ab: ab[0] != ab[1]).map(lambda ab: tuple(sorted(ab)))
    words = st.sampled_from(["", "1", "2", "1.2", "2.2", "1.1.2"]).map(word)
    family = st.tuples(words, words).filter(lambda uv: uv[0] != uv[1])
    return st.builds(lambda pairs, families: Fusion(frozenset(pairs),
                                                    frozenset(families)),
                     st.lists(pair, max_size=3), st.lists(family, max_size=2))


def _specs():
    sizes = st.sampled_from(["max_actions", "names", "limit"]).flatmap(
        lambda key: st.integers(-2, 200).map(lambda n: f"{key}={n}"))
    fusions = st.lists(_fusions(), min_size=1, max_size=2).map(
        lambda fs: "fusions=" + "|".join(map(fusion_str, fs)))
    return st.lists(sizes | fusions, max_size=3).flatmap(
        lambda items: st.sampled_from([",", ", "]).map(
            lambda comma: comma.join(items)))


def _edited(literal: str, data) -> list[str]:
    """The literal and a few of its one-character insertions and
    deletions."""
    texts = [literal]
    for _ in range(6):
        at = data.draw(st.integers(0, len(literal)))
        char = data.draw(st.sampled_from(ALPHABET) | st.none())
        texts.append(literal[:at] + literal[at + 1:] if char is None
                     else literal[:at] + char + literal[at:])
    return texts


def _split_moves(text: str) -> bool:
    """Whether the scanner's split of a PWF literal is not at its first
    `;`: the literal holds a second `;`, or a brace before the first."""
    before, _, after = text.strip()[1:-1].partition(";")
    return ";" in after or "{" in before or "}" in before


def _check(read, read_reference, texts, fusion_text=lambda t: "",
           split_moves=lambda t: False):
    """`fusion_text` is the part of a text that a fusion reader reads."""
    for text in texts:
        got, want = outcome(read, text), outcome(read_reference, text)
        if split_moves(text):
            assert isinstance(got, type) and isinstance(want, type), text
        elif _EMPTY_WORD.search(fusion_text(text)) and \
                not isinstance(want, type):
            assert got is ValueError, text
        else:
            assert got == want, text


@given(scoped_processes(), st.data())
@settings(max_examples=150, deadline=None)
def test_process_literals_read_as_the_scanner_read_them(p, data):
    _check(parse_process, reference.parse_process,
           _edited(process_str(p), data))


@given(_fusions(), st.data())
@settings(max_examples=150, deadline=None)
def test_fusion_literals_read_as_the_scanner_read_them(e, data):
    _check(parse_fusion, reference.parse_fusion, _edited(fusion_str(e), data),
           fusion_text=str)


@given(scoped_processes(), _fusions(), st.data())
@settings(max_examples=150, deadline=None)
def test_pwf_literals_read_as_the_scanner_read_them(p, e, data):
    _check(parse_pwf, reference.parse_pwf, _edited(pwf_str(Pwf(p, e)), data),
           fusion_text=lambda t: t.rpartition(";")[2],
           split_moves=_split_moves)


@given(_specs(), st.data())
@settings(max_examples=150, deadline=None)
def test_universe_specs_read_as_the_scanner_read_them(spec, data):
    """The spec's values, as the universe receives them."""
    with mock.patch.object(realizability, "default_universe",
                           lambda *sizes: sizes):
        _check(cli._parse_universe_spec, reference.parse_universe_spec,
               _edited(spec, data), fusion_text=str)


def test_the_intended_differences():
    """A brace before the `;` stops the process reader, a second `;` the
    fusion reader, and a name with an empty dotted word is no name."""
    for text, want, got in (("<0!{() ; {}>", "PwfError", "ProcessError"),
                            ("<0!() ; ;{}>", "ProcessError", "ValueError"),
                            ("<0!() ; {0~1.}>", "ok", "ValueError")):
        for read, seen in ((reference.parse_pwf, want), (parse_pwf, got)):
            result = outcome(read, text)
            assert (result.__name__ if isinstance(result, type)
                    else "ok") == seen, (text, read)
