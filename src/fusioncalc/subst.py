"""Representable substitutions on names: a finite map plus word remaps.

A word remap (u -> v) sends tag(n, u) to tag(n, v) for every n and is
identity elsewhere.  The finite map takes precedence over remaps, so
a mixed substitution overrides a remap on finitely many names (an entry
x -> x pins the identity there).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .names import Name, Word, is_suffix, tag, untag, word_str
from .record import Record


class SubstitutionError(Exception):
    pass


class Substitution(Record):
    # `_table` is the lookup table of apply; not a field, so equality and
    # hashing still read finite_map alone
    __slots__ = ("finite_map", "word_remaps", "_table")

    def __init__(self, finite_map: Iterable[tuple[Name, Name]] = (),
                 word_remaps: Iterable[tuple[Word, Word]] = frozenset()
                 ) -> None:
        table = dict(finite_map)
        remaps = frozenset((u, v) for u, v in word_remaps if u != v)
        for u, v in remaps:
            for u2, _ in remaps:
                if u != u2 and (is_suffix(u, u2) or is_suffix(u2, u)):
                    raise SubstitutionError(
                        f"overlapping remap domains {word_str(u)} / {word_str(u2)}")
        object.__setattr__(self, "finite_map", tuple(sorted(table.items())))
        object.__setattr__(self, "word_remaps", remaps)
        object.__setattr__(self, "_table", table)

    def apply(self, x: Name) -> Name:
        if x in self._table:
            return self._table[x]
        for u, v in self.word_remaps:
            n = untag(x, u)
            if n is not None:
                return tag(n, v)
        return x

    def __call__(self, x: Name) -> Name:
        return self.apply(x)

    def __str__(self) -> str:
        fin = ", ".join(f"{k}:={v}" for k, v in self.finite_map)
        rem = ", ".join(f"{word_str(u)} -> {word_str(v)}"
                        for u, v in sorted(self.word_remaps))
        if rem:
            return "{" + fin + " ; " + rem + "}"
        return "{" + fin + "}"


def finite_subst(mapping: Mapping[Name, Name]) -> Substitution:
    return Substitution(tuple(mapping.items()))


def remap_subst(remaps: Iterable[tuple[Word, Word]]) -> Substitution:
    return Substitution((), frozenset(remaps))
