"""Representable substitutions on names: a finite map plus word remaps.

A word remap (u -> v) sends tag(n, u) to tag(n, v) for every n and is
identity elsewhere.  The finite map takes precedence over remaps, which
is what lets canonical substitutions override a remap on finitely many
names (an entry x -> x pins the identity there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .names import Name, Word, is_suffix, tag, untag, word_str


class SubstitutionError(Exception):
    pass


@dataclass(frozen=True)
class Substitution:
    finite_map: tuple[tuple[Name, Name], ...] = ()
    word_remaps: frozenset[tuple[Word, Word]] = frozenset()

    def __post_init__(self) -> None:
        table = dict(self.finite_map)
        object.__setattr__(self, "finite_map", tuple(sorted(table.items())))
        # lookup table for apply; not a field, so equality and hashing
        # still read finite_map alone
        object.__setattr__(self, "_table", table)
        remaps = frozenset((u, v) for u, v in self.word_remaps if u != v)
        for u, v in remaps:
            for u2, _ in remaps:
                if u != u2 and (is_suffix(u, u2) or is_suffix(u2, u)):
                    raise SubstitutionError(
                        f"overlapping remap domains {word_str(u)} / {word_str(u2)}")
        object.__setattr__(self, "word_remaps", remaps)

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


IDENTITY = Substitution()


def finite_subst(mapping: Mapping[Name, Name]) -> Substitution:
    return Substitution(tuple(mapping.items()))


def remap_subst(remaps: Iterable[tuple[Word, Word]]) -> Substitution:
    return Substitution((), frozenset(remaps))


def _split_remap(pair: tuple[Word, Word]) -> list[tuple[Word, Word]]:
    u, v = pair
    return [((1,) + u, (1,) + v), ((2,) + u, (2,) + v)]


def compose(sigma: Substitution, tau: Substitution) -> Substitution:
    """compose(sigma, tau) applies tau first: x |-> sigma(tau(x))."""
    fm: dict[Name, Name] = {}
    for x, y in tau.finite_map:
        fm[x] = sigma.apply(y)
    tau_dom_words = frozenset(u for u, _ in tau.word_remaps)
    # names that tau remaps by word into sigma's finite domain need
    # explicit entries, since the chained remap would miss the override
    for z, _ in sigma.finite_map:
        for u, v in tau.word_remaps:
            n = untag(z, v)
            if n is not None:
                x = tag(n, u)
                fm.setdefault(x, sigma.apply(z))
        if z not in tau._table and not any(
                untag(z, u) is not None for u in tau_dom_words):
            fm.setdefault(z, sigma.apply(z))
    remaps: set[tuple[Word, Word]] = set()
    # chain tau's remaps through sigma's remaps, splitting when a remap
    # of sigma reaches deeper than the image word
    work = list(tau.word_remaps)
    guard = 0
    while work:
        guard += 1
        if guard > 4096:
            raise SubstitutionError("remap composition does not stabilize")
        u, v = work.pop()
        deeper = [su for su, _ in sigma.word_remaps
                  if is_suffix(v, su) and len(su) > len(v)]
        if deeper:
            work.extend(_split_remap((u, v)))
            continue
        image = v
        for su, sv in sigma.word_remaps:
            if is_suffix(su, v):
                image = v[:len(v) - len(su)] + sv
                break
        remaps.add((u, image))
    # sigma's remaps keep acting where tau is the identity; carve their
    # domains away from tau's remap domains
    work = list(sigma.word_remaps)
    guard = 0
    while work:
        guard += 1
        if guard > 4096:
            raise SubstitutionError("remap composition does not stabilize")
        su, sv = work.pop()
        if any(is_suffix(tu, su) for tu in tau_dom_words):
            continue  # fully inside tau's domain: already chained
        if any(is_suffix(su, tu) for tu in tau_dom_words):
            work.extend(_split_remap((su, sv)))
            continue
        remaps.add((su, sv))
    # finite-map keys of tau shadow any remap; identity entries pin names
    # sigma's remaps would otherwise move
    for x in dict(tau.finite_map):
        fm.setdefault(x, sigma.apply(tau.apply(x)))
    return Substitution(tuple(fm.items()), frozenset(remaps))
