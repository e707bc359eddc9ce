"""Finite group presentations and their abelian invariants.

Only abelian invariants are computed, so a relator is kept as its
exponent-sum row: the nonzero ``(generator, sum)`` pairs, with generators
0-based and strictly increasing.  The parser builds these rows directly and
never writes a word out letter by letter; there are no Tietze moves and no
word problem.
"""
from __future__ import annotations

import re

from ._caps import MAX_DIGITS, check
from ._record import record, trusted
from .snf import smith_normal_form


@record
class Presentation:
    generator_count: int
    relators: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if type(self.generator_count) is not int or self.generator_count < 1:
            raise ValueError(f"generator_count {self.generator_count!r} is not a positive integer")
        if type(self.relators) is not tuple:
            raise ValueError(f"relators of type {type(self.relators).__name__} are not a tuple of relators")
        for rel in self.relators:
            if type(rel) is not tuple or any(type(pair) is not tuple or len(pair) != 2 for pair in rel):
                raise ValueError(f"relator {rel!r} is not a tuple of (generator, total) pairs")
            previous = -1
            for generator, total in rel:
                if type(generator) is not int or not previous < generator < self.generator_count:
                    raise ValueError(f"generator {generator!r} out of range or order in relator {rel}")
                if type(total) is not int or total == 0:
                    raise ValueError(f"exponent sum {total!r} in relator {rel} is not a nonzero integer")
                previous = generator


@record
class AbelianizedGroup:
    """Z^free_rank plus cyclic factors in a divisibility chain."""

    free_rank: int
    torsion_factors: tuple[int, ...]


def abelianization(presentation: Presentation) -> AbelianizedGroup:
    """Abelian invariants from the Smith form of the exponent-sum matrix."""
    entries = {(i, j): v for i, rel in enumerate(presentation.relators) for j, v in rel}
    form = smith_normal_form(entries)
    return AbelianizedGroup(
        presentation.generator_count - form.rank, form.torsion_factors
    )


def heisenberg_presentation(n: int) -> Presentation:
    """Integer Heisenberg lattice with x-coordinate scaled by n.

    Generators a, b, c with [a, b] = c^n and c central; derived from the
    matrix generators (x=n), (y=1), (z=1) of the upper triangular group.
    The relators [a, b] c^-n, [a, c], [b, c] have exponent sums -n on c and
    zero elsewhere.
    """
    if n < 1:
        raise ValueError("lattice scale n must be a positive integer")
    return Presentation(3, (((2, -n),), (), ()))


# The most letters the relators of a parsed presentation may expand to.  An
# atom raised to ^k counts |k| times the sum of the absolute exponent sums in
# its row, before the row is scaled, so a huge power is refused at once; a
# reduced word has at least as many letters as that sum.
MAX_LETTERS = 1_000_000

# The most trie steps that splitting juxtaposed names may take in one
# presentation; README states the cost at the cap.
MAX_SEGMENT_STEPS = 2_000_000

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\[|\]|\(|\)|,|\^|-?[0-9]+)")


def parse_presentation(text: str) -> Presentation:
    """Parse ``"a,b,c ; [a,b]c^-5, [a,c], [b,c]"`` into a Presentation.

    Words are juxtapositions of atoms; an atom is a generator name, a
    commutator ``[u,v]``, or a parenthesised word, optionally followed by
    ``^k`` with integer k.  A word's row is the sum of its atoms' rows, each
    times its k; a commutator's row is zero once both sides have parsed.
    Relators are separated by commas outside brackets.
    """
    if ";" not in text:
        raise ValueError("presentation string must be '<generators> ; <relators>'")
    gen_part, rel_part = text.split(";", 1)
    names = [g.strip() for g in gen_part.split(",") if g.strip()]
    if not names or len(set(names)) != len(names):
        raise ValueError("generator names must be nonempty and distinct")
    index = {name: i for i, name in enumerate(names)}
    trie: dict = {}  # one level per character; the key "" holds the generator a name ends at
    for name, generator in index.items():
        node = trie
        for ch in name:
            node = node.setdefault(ch, {})
        node[""] = generator
    counted = walked = 0

    def parse_word(tokens: list[str], pos: int, stop: set[str]) -> tuple[dict[int, int], int]:
        nonlocal counted
        row: dict[int, int] = {}
        while pos < len(tokens) and tokens[pos] not in stop:
            atom, pos = parse_atom(tokens, pos)
            exponent = 1
            if pos < len(tokens) and tokens[pos] == "^":
                digits = tokens[pos + 1].lstrip("-") if pos + 1 < len(tokens) else ""
                if not digits.isdecimal():
                    raise ValueError("'^' must be followed by an integer")
                check("_caps.MAX_DIGITS", len(digits), MAX_DIGITS, "an exponent after '^' has a digit count of")
                exponent = int(tokens[pos + 1])
                pos += 2
            counted += abs(exponent) * sum(map(abs, atom.values()))
            if counted > MAX_LETTERS:
                check("presentations.MAX_LETTERS", counted, MAX_LETTERS,
                      "the relators expand to a letter count of at least")
            for generator, total in atom.items():
                row[generator] = row.get(generator, 0) + exponent * total
        return row, pos

    def parse_atom(tokens: list[str], pos: int) -> tuple[dict[int, int], int]:
        nonlocal walked
        tok = tokens[pos]
        if tok == "[" or tok == "(":  # a commutator's row is zero, a parenthesised word's is the word's
            row, pos = parse_word(tokens, pos + 1, {"," if tok == "[" else ")"})
            if tok == "[" and pos < len(tokens):
                row, pos = {}, parse_word(tokens, pos + 1, {"]"})[1]
            if pos == len(tokens):
                raise ValueError(f"{tok!r} is not closed")
            return row, pos + 1
        if tok in index:
            return {index[tok]: 1}, pos + 1
        segmented, walked = _segment(tok, trie, walked)
        if segmented is not None:
            return segmented, pos + 1
        raise ValueError(f"unknown generator or token {tok!r}")

    tokens, relators, pos = _tokenize(rel_part.rstrip()), [], -1
    while pos < len(tokens):  # a relator ends at a comma outside brackets; one of no tokens is skipped
        row, end = parse_word(tokens, pos + 1, {","})
        if end > pos + 1:
            relators.append(tuple(sorted((g, total) for g, total in row.items() if total)))
        pos = end
    # the rows are sorted, nonzero and in range by construction
    return trusted(Presentation, len(names), tuple(relators))


def _tokenize(s: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(s):
        match = _TOKEN.match(s, pos)
        if not match:
            raise ValueError(f"bad syntax near {s[pos:pos + 12]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def _segment(token: str, trie: dict, steps: int) -> tuple[dict[int, int] | None, int]:
    """Greedy longest-match split of a juxtaposed identifier like 'ab' into a, b.

    ``trie`` holds the names, one level per character.  At each position the
    walk down it stops where no name goes on, so it takes at most one step
    per character of the longest name and one for the character that ends
    it.  Returns the names' counts (None if the token does not split) and
    the steps taken, ``steps`` before it included, refusing the token once
    they pass ``MAX_SEGMENT_STEPS``.
    """
    row: dict[int, int] = {}
    pos = 0
    while pos < len(token):
        node, match = trie, None
        for end in range(pos, len(token)):
            node = node.get(token[end])
            if node is None:
                break
            if "" in node:
                match = node[""], end + 1
        steps += end - pos + 1
        if steps > MAX_SEGMENT_STEPS:
            check("presentations.MAX_SEGMENT_STEPS", steps, MAX_SEGMENT_STEPS,
                  "splitting juxtaposed names takes a step count of at least")
        if match is None:
            return None, steps
        generator, pos = match
        row[generator] = row.get(generator, 0) + 1
    return row, steps
