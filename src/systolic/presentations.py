"""Finite group presentations and their abelian invariants.

Words are sequences of nonzero signed generator indices (1-based): ``3``
is the third generator, ``-3`` its inverse.  Only abelian invariants are
computed; no Tietze moves, no word problem.
"""
from __future__ import annotations

import math
import re

from ._record import record
from .snf import smith_normal_form


def free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent x, x^-1 pairs."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(tuple(word)))


def commutator(u, v) -> tuple[int, ...]:
    u, v = tuple(u), tuple(v)
    return free_reduce(u + v + inverse_word(u) + inverse_word(v))


@record
class Presentation:
    generator_count: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.generator_count < 1:
            raise ValueError("a presentation needs at least one generator")
        reduced = tuple(free_reduce(r) for r in self.relators)
        object.__setattr__(self, "relators", reduced)
        for rel in reduced:
            for letter in rel:
                if letter == 0 or abs(letter) > self.generator_count:
                    raise ValueError(f"letter {letter} out of range in relator {rel}")

    def exponent_sums(self) -> dict[tuple[int, int], int]:
        """Nonzero exponent sums {(relator, generator): sum}, indexed from 0."""
        sums: dict[tuple[int, int], int] = {}
        for i, rel in enumerate(self.relators):
            for letter in rel:
                key = (i, abs(letter) - 1)
                sums[key] = sums.get(key, 0) + (1 if letter > 0 else -1)
        return {key: value for key, value in sums.items() if value}


@record
class AbelianizedGroup:
    """Z^free_rank plus cyclic factors in a divisibility chain."""

    free_rank: int
    torsion_factors: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        chain = self.torsion_factors
        if any(d <= 1 for d in chain):
            raise ValueError("torsion factors must exceed 1")
        if any(chain[i + 1] % chain[i] for i in range(len(chain) - 1)):
            raise ValueError("torsion factors must form a divisibility chain")

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion_factors)


def abelianization(presentation: Presentation) -> AbelianizedGroup:
    """Abelian invariants from the Smith form of the exponent-sum matrix."""
    shape = (len(presentation.relators), presentation.generator_count)
    form = smith_normal_form(presentation.exponent_sums(), shape)
    return AbelianizedGroup(
        presentation.generator_count - form.rank, form.torsion_factors
    )


def heisenberg_presentation(n: int) -> Presentation:
    """Integer Heisenberg lattice with x-coordinate scaled by n.

    Generators a, b, c with [a, b] = c^n and c central; derived from the
    matrix generators (x=n), (y=1), (z=1) of the upper triangular group.
    """
    if n < 1:
        raise ValueError("lattice scale n must be a positive integer")
    a, b, c = 1, 2, 3
    relators = (
        free_reduce(commutator([a], [b]) + (-c,) * n),
        commutator([a], [c]),
        commutator([b], [c]),
    )
    return Presentation(3, relators)


# The most letters the relators of a parsed presentation may expand to,
# counting every power and commutator as it is written out.
MAX_LETTERS = 1_000_000

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\[|\]|\(|\)|,|\^|-?\d+)")


def parse_presentation(text: str) -> Presentation:
    """Parse ``"a,b,c ; [a,b]c^-5, [a,c], [b,c]"`` into a Presentation.

    Words are juxtapositions of atoms; an atom is a generator name, a
    commutator ``[u,v]``, or a parenthesised word, optionally followed by
    ``^k`` with integer k.
    """
    if ";" not in text:
        raise ValueError("presentation string must be '<generators> ; <relators>'")
    gen_part, rel_part = text.split(";", 1)
    names = [g.strip() for g in gen_part.split(",") if g.strip()]
    if not names or len(set(names)) != len(names):
        raise ValueError("generator names must be nonempty and distinct")
    index = {name: i + 1 for i, name in enumerate(names)}
    expanded = 0

    def expand(letters: int) -> None:
        # counted before the letters are written, so a huge power is refused
        nonlocal expanded
        expanded += letters
        if expanded > MAX_LETTERS:
            raise ValueError(f"relators expand past the cap of {MAX_LETTERS} letters")

    def tokenize(s: str) -> list[str]:
        tokens, pos = [], 0
        while pos < len(s):
            match = _TOKEN.match(s, pos)
            if not match:
                raise ValueError(f"bad syntax near {s[pos:pos + 12]!r}")
            tokens.append(match.group(1))
            pos = match.end()
        return tokens

    def parse_word(tokens: list[str], pos: int, stop: set[str]) -> tuple[tuple[int, ...], int]:
        word: list[int] = []
        while pos < len(tokens) and tokens[pos] not in stop:
            atom, pos = parse_atom(tokens, pos)
            exponent = 1
            if pos < len(tokens) and tokens[pos] == "^":
                try:
                    exponent = int(tokens[pos + 1])
                except (IndexError, ValueError):
                    raise ValueError("'^' must be followed by an integer") from None
                pos += 2
            if exponent < 0:
                atom, exponent = inverse_word(atom), -exponent
            expand(len(atom) * exponent)
            word.extend(atom * exponent)
        return free_reduce(word), pos

    def parse_atom(tokens: list[str], pos: int) -> tuple[tuple[int, ...], int]:
        tok = tokens[pos]
        if tok == "[":
            left, pos = parse_word(tokens, pos + 1, {","})
            right, pos = parse_word(tokens, pos + 1, {"]"})
            expand(2 * (len(left) + len(right)))
            return commutator(left, right), pos + 1
        if tok == "(":
            inner, pos = parse_word(tokens, pos + 1, {")"})
            return inner, pos + 1
        if tok in index:
            return (index[tok],), pos + 1
        segmented = _segment(tok, index)
        if segmented is not None:
            return segmented, pos + 1
        raise ValueError(f"unknown generator or token {tok!r}")

    relators = []
    for chunk in _split_relators(rel_part):
        tokens = tokenize(chunk)
        word, pos = parse_word(tokens, 0, set())
        if pos != len(tokens):
            raise ValueError(f"trailing tokens in relator {chunk!r}")
        relators.append(word)
    return Presentation(len(names), tuple(relators))


def _segment(token: str, index: dict[str, int]) -> tuple[int, ...] | None:
    """Greedy longest-match split of a juxtaposed identifier like 'ab' into a, b."""
    names = sorted(index, key=len, reverse=True)
    out: list[int] = []
    pos = 0
    while pos < len(token):
        match = next((n for n in names if token.startswith(n, pos)), None)
        if match is None:
            return None
        out.append(index[match])
        pos += len(match)
    return tuple(out)


def _split_relators(text: str) -> list[str]:
    """Split on top-level commas only (commas inside [..] belong to commutators)."""
    chunks, depth, current = [], 0, []
    for ch in text:
        if ch == "[" or ch == "(":
            depth += 1
        elif ch == "]" or ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append("".join(current))
            current = []
        else:
            current.append(ch)
    chunks.append("".join(current))
    return [c.strip() for c in chunks if c.strip()]
