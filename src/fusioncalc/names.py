"""Name arithmetic for the two dyadic injections and symbolic name sets.

Names are plain naturals.  A Word is a sequence of letters in {1,2},
applied left to right with the leftmost letter innermost: tag(n, "1.2")
= 2*(2n+1) = 4n+2.  A NameSet is a finite union of singletons and
residue classes (images of tag(., w)), optionally all of N, minus a
finite excluded set.  The excluded part has no surface syntax; it only
arises from complements, so that NameSets are closed under the boolean
operations the fusion calculus needs.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .record import Record

Name = int
Word = tuple[int, ...]

EPSILON: Word = ()


def word(text: str) -> Word:
    """Parse a dotted word literal such as "1.2" (empty string = epsilon)."""
    if not text:
        return EPSILON
    letters = text.split(".")
    if any(letter not in ("1", "2") for letter in letters):
        raise ValueError(f"word letters must be 1 or 2: {text!r}")
    return tuple(map(int, letters))


def word_str(w: Word) -> str:
    return ".".join(str(letter) for letter in w)


def tag(n: Name, w: Word) -> Name:
    for letter in w:
        n = 2 * n + 1 if letter == 1 else 2 * n
    return n


def untag(x: Name, w: Word) -> Optional[Name]:
    """Inverse of tag: the n with tag(n, w) = x, if x lies in w's residue."""
    for letter in reversed(w):
        if letter == 1:
            if x % 2 == 0:
                return None
            x = (x - 1) // 2
        else:
            if x % 2 == 1:
                return None
            x = x // 2
    return x


def is_suffix(u: Word, w: Word) -> bool:
    """True iff u is a suffix of w (so residue(w) is inside residue(u))."""
    return len(u) <= len(w) and w[len(w) - len(u):] == u


def natural(text: str, what: str,
            error: type[Exception] = ValueError) -> int:
    """`text` as a plain natural: ASCII decimal digits only, with no sign,
    space, underscore or other numeral (`int()` takes all of them).
    Otherwise raises `error`, saying that `what` is a decimal natural."""
    if not (text.isascii() and text.isdigit()):
        raise error(f"{what} is a decimal natural: {text!r}")
    return int(text)


def parse_name(text: str) -> Name:
    """A decimal natural or dotted sugar n.w, e.g. "1.1.2" = tag(1, "1.2"),
    with a letter after each dot."""
    head, dot, rest = text.partition(".")
    if dot and not rest:
        raise ValueError(f"a dot needs a word letter after it: {text!r}")
    return tag(natural(head, "a name"), word(rest))


# a token: a name (digits, with dotted sugar), a word (letters), the
# family arrow, or any other character; whitespace only separates
_TOKEN = re.compile(r"(?P<name>\d+(?:\.\d+)*)|(?P<word>[A-Za-z_]+)"
                    r"|(?P<op><->|\S)")


class Tokens:
    """A cursor over the tokens of a calculus literal, found by one
    pattern (the tokenizer recipe of the `re` documentation).  A token is
    (kind, text, position): kind "name", "word" or "op", and a last one
    of kind "end".  `error` is the reader's exception class, raised with
    the position of the token that stopped it.  Every inline literal is
    read from it: processes, fusions, name sets, `--universe` specs, and
    mll formulas and proofs."""

    __slots__ = ("text", "tokens", "i", "error")

    def __init__(self, text: str, error: type[Exception]) -> None:
        self.text, self.error, self.i = text, error, 0
        self.tokens = [(m.lastgroup, m[0], m.start())
                       for m in _TOKEN.finditer(text)]
        self.tokens.append(("end", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, text: Optional[str] = None):
        """The next token, read, if its text is `text` (any token but the
        end when None); None otherwise."""
        token = self.tokens[self.i]
        if token[0] == "end" or text is not None and token[1] != text:
            return None
        self.i += 1
        return token

    def expect(self, text: str) -> None:
        if self.take(text) is None:
            raise self.fail(f"expected {text!r}")

    def read(self, parse):
        """The next token, read by `parse` (`parse_name`, `word`, or
        `natural` with its `what`); its ValueError gains the token's
        position."""
        _, text, at = self.peek()
        try:
            value = parse(text)
        except ValueError as exc:
            raise self.fail(str(exc), at) from None
        self.i += 1
        return value

    def end(self, value):
        """value, once no token is left to read."""
        kind, text, _ = self.peek()
        if kind != "end":
            raise self.fail(f"trailing input {text!r}")
        return value

    def fail(self, message: str, at: Optional[int] = None) -> Exception:
        if at is None:
            at = self.peek()[2]
        return self.error(f"{message} at position {at} in {self.text!r}")


class NameSet(Record):
    __slots__ = ("singletons", "residues", "universal", "excluded")

    def __init__(self, singletons: frozenset[Name] = frozenset(),
                 residues: frozenset[Word] = frozenset(),
                 universal: bool = False,
                 excluded: frozenset[Name] = frozenset()) -> None:
        # normalize: excluded names that would not be members anyway are
        # dropped, and members listed as singletons are never excluded
        excl = frozenset(
            x for x in excluded
            if universal or any(untag(x, w) is not None for w in residues)
        )
        if universal:
            singletons = residues = frozenset()
        object.__setattr__(self, "singletons",
                           frozenset(singletons - excluded))
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "universal", universal)
        object.__setattr__(self, "excluded", excl)

    def member(self, x: Name) -> bool:
        if x in self.excluded:
            return False
        if self.universal or x in self.singletons:
            return True
        return any(untag(x, w) is not None for w in self.residues)

    def is_empty_like(self) -> bool:
        return not (self.universal or self.singletons or self.residues)

    def is_all(self) -> bool:
        return self.universal and not self.excluded

    def union(self, other: "NameSet") -> "NameSet":
        merged = NameSet(
            singletons=self.singletons | other.singletons,
            residues=self.residues | other.residues,
            universal=self.universal or other.universal,
        )
        excl = {x for x in self.excluded | other.excluded
                if not self.member(x) and not other.member(x)}
        return NameSet(merged.singletons, merged.residues, merged.universal,
                       frozenset(excl))

    def complement(self) -> "NameSet":
        if self.universal:
            return NameSet(singletons=self.excluded)
        if not self.residues:
            return NameSet(universal=True, excluded=self.singletons,
                           singletons=self.excluded)
        depth = max(len(w) for w in self.residues)
        comp_residues = frozenset(
            w for w in _all_words(depth)
            if not any(is_suffix(u, w) for u in self.residues)
        )
        return NameSet(singletons=self.excluded, residues=comp_residues,
                       excluded=self.singletons)

    def __str__(self) -> str:
        if self.excluded:
            inner = NameSet(self.singletons, self.residues, self.universal)
            return f"({inner} minus {{{','.join(map(str, sorted(self.excluded)))}}})"
        if self.universal:
            return "all"
        parts = []
        if self.singletons:
            parts.append("{" + ",".join(str(x) for x in sorted(self.singletons)) + "}")
        for w in sorted(self.residues):
            parts.append("@" + word_str(w))
        return " + ".join(parts) if parts else "{}"


def _all_words(depth: int) -> Iterable[Word]:
    if depth == 0:
        yield EPSILON
        return
    def gen(k: int) -> Iterable[Word]:
        if k == 0:
            yield EPSILON
        else:
            for rest in gen(k - 1):
                yield (1,) + rest
                yield (2,) + rest
    yield from gen(depth)


EMPTY = NameSet()
ALL = NameSet(universal=True)


def finite(xs: Iterable[Name]) -> NameSet:
    return NameSet(singletons=frozenset(xs))


def residue(w: Word) -> NameSet:
    return NameSet(residues=frozenset([w]))


def index_set(w: Word, X: NameSet) -> NameSet:
    """The set of indices n with tag(n, w) in X, again as a NameSet."""
    singles = {n for x in X.singletons if (n := untag(x, w)) is not None}
    residues: set[Word] = set()
    universal = X.universal
    for r in X.residues:
        if is_suffix(r, w):
            universal = True
        elif is_suffix(w, r):
            residues.add(r[:len(r) - len(w)])
    excl = {n for x in X.excluded if (n := untag(x, w)) is not None}
    return NameSet(frozenset(singles), frozenset(residues), universal,
                   frozenset(excl))


def read_word(tokens: Tokens) -> Word:
    """The word at the cursor, if a name token holds one; else epsilon."""
    return tokens.read(word) if tokens.peek()[0] == "name" else EPSILON


def parse_nameset(text: str) -> NameSet:
    """Grammar: `{3,5}` | `@1` | `@1.2` | `all`, joined with `+`; an
    error names the position of the token that stopped the reader."""
    tokens = Tokens(text, ValueError)
    result = EMPTY
    while True:
        if tokens.take("all"):
            part = ALL
        elif tokens.take("@"):
            part = residue(read_word(tokens))
        elif tokens.take("{"):
            members: list[Name] = []
            while not tokens.take("}"):
                if members:
                    tokens.expect(",")
                members.append(tokens.read(parse_name))
            part = finite(members)
        else:
            raise tokens.fail("expected '{', '@' or 'all'")
        result = result.union(part)
        if not tokens.take("+"):
            return tokens.end(result)
