import math
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from systolic import presentations
from systolic.presentations import (
    AbelianizedGroup,
    Presentation,
    abelianization,
    heisenberg_presentation,
    parse_presentation,
)

import oracles


class TestWords:
    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            Presentation(2, (((2, 1),),))

    @pytest.mark.parametrize("row", [
        ((-1, 1),), ((0, 0),), ((1, 2), (0, 1)), ((0, 1), (0, 1)), ((0, 1.0),), ((0, True),),
    ])
    def test_rows_other_than_increasing_nonzero_sums_are_refused(self, row):
        with pytest.raises(ValueError):
            Presentation(2, (row,))

    @pytest.mark.parametrize("count", [2.5, "x", True, None, 0, -1])
    def test_generator_count_other_than_a_positive_int_is_refused(self, count):
        # 2.5 was accepted and "x" raised TypeError
        refusal = f"generator_count {count!r} is not a positive integer"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            Presentation(count, ())

    def test_rows_are_sorted_nonzero_exponent_sums(self):
        presentation = parse_presentation("a,b,c ; c^2 a b^-1 a^-1 b, (ab)^-3 [a,c]^5, a a^-1")
        assert presentation.relators == (((2, 2),), ((0, -3), (1, -3)), ())
        # empty relators, a leading and a trailing comma, a commutator relator,
        # commas inside commutators and trailing whitespace
        for text, rows in (
            ("a ; a,,a^2, ,", (((0, 1),), ((0, 2),))),
            ("a,b ; ,a b, b^3,", (((0, 1), (1, 1)), ((1, 3),))),
            ("a,b ; [a,b]", ((),)),
            ("a,b ; [a^2, b] a, [b, a^-1]b^-2", (((0, 1),), ((1, -2),))),
            ("a,b ; a^2 b \t\n ", (((0, 2), (1, 1)),)),
        ):
            assert parse_presentation(text).relators == rows, text

    def test_juxtaposed_names_take_the_longest_name_first(self):
        presentation = parse_presentation("a, ab, abc, c ; abcab, aab^2, cabc")
        assert presentation.relators == (((1, 1), (2, 1)), ((0, 2), (1, 2)), ((2, 1), (3, 1)))

    def test_juxtaposed_names_among_many_generators_parse_quickly(self):
        # 6000 generators and 4000 tokens of two juxtaposed names, an 81 KB
        # string: a scan of every name per token and position takes seconds
        rng = random.Random(6)
        names = [f"x{i}" for i in range(6000)]
        pairs = [rng.sample(range(6000), 2) for _ in range(4000)]
        text = ",".join(names) + " ; " + ", ".join(names[i] + names[j] for i, j in pairs)
        start = time.perf_counter()
        presentation = parse_presentation(text)
        assert time.perf_counter() - start < 1.0
        assert presentation.relators == tuple(tuple(sorted(((i, 1), (j, 1)))) for i, j in pairs)

    def test_many_name_lengths_with_other_first_characters_parse_quickly(self):
        # a 125 602-byte string: 400 name lengths, all but one starting with
        # 'a', and one 45 000-character token of 'b's; slicing every length
        # at every position takes seconds
        names = ["b"] + ["a" * k for k in range(2, 401)]
        text = ",".join(names) + " ; " + "b" * 45_000
        start = time.perf_counter()
        presentation = parse_presentation(text)
        assert time.perf_counter() - start < 1.0
        assert presentation.relators == (((0, 45_000),),)

    def test_many_name_lengths_with_one_first_character_parse_quickly(self):
        # 'x' and 'x' + 'a' * k for k = 1 .. 399, and one 45 000-character
        # token of 'x's: trying every length that starts with 'x' at every
        # position takes seconds
        names = ["x"] + ["x" + "a" * k for k in range(1, 400)]
        text = ",".join(names) + " ; " + "x" * 45_000
        start = time.perf_counter()
        presentation = parse_presentation(text)
        assert time.perf_counter() - start < 1.0
        assert presentation.relators == (((0, 45_000),),)

    def test_names_extending_the_match_are_refused_at_the_step_cap(self):
        # 'a' and 'a' * k + 'b' for k = 1 .. 299, and one 45 000-character
        # token of 'a's: every position walks about 300 trie levels before it
        # falls back to 'a', 13.5 million steps in all, which took 1.5 s
        names = ["a"] + ["a" * k + "b" for k in range(1, 300)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"past the cap \(presentations\.MAX_SEGMENT_STEPS = {presentations.MAX_SEGMENT_STEPS}\)$"):
            parse_presentation(",".join(names) + " ; " + "a" * 45_000)
        assert time.perf_counter() - start < 1.0

    def test_segmenting_counts_every_trie_step(self, monkeypatch):
        # a walk takes one step per character it reads, the one that ends it too
        trie = {"b": {"": 0}, "c": {"d": {"": 1}}}
        assert presentations._segment("cd" * 5, trie, 0) == ({1: 5}, 14)
        assert presentations._segment("cd" * 4 + "bb", trie, 0) == ({1: 4, 0: 2}, 15)
        assert presentations._segment("cdx", trie, 0) == (None, 4)
        # the steps of the tokens before count too
        assert presentations._segment("cd" * 5, trie, 100) == ({1: 5}, 114)
        monkeypatch.setattr(presentations, "MAX_SEGMENT_STEPS", 14)
        assert presentations._segment("cd" * 5, trie, 0) == ({1: 5}, 14)
        with pytest.raises(ValueError, match=r"a step count of at least 15, past the cap \(presentations\.MAX_SEGMENT_STEPS = 14\)$"):
            presentations._segment("cd" * 5, trie, 1)


    def test_the_step_cap_counts_the_whole_presentation(self, monkeypatch):
        # each 'cdcd' takes 5 steps: four such tokens, over three relators,
        # reach a cap of 20, and a fifth passes it
        monkeypatch.setattr(presentations, "MAX_SEGMENT_STEPS", 20)
        text = "cd ; cdcd cdcd, cdcd^2, cdcd"
        assert parse_presentation(text).relators == (((0, 4),), ((0, 4),), ((0, 2),))
        with pytest.raises(ValueError, match=r"a step count of at least 23, past the cap \(presentations\.MAX_SEGMENT_STEPS = 20\)$"):
            parse_presentation(text + " cdcd")


class TestAbelianization:
    def test_commutator_relator_gives_free_abelian(self):
        image = abelianization(parse_presentation("a,b ; [a,b]"))
        assert image == AbelianizedGroup(2, ())

    def test_cyclic(self):
        assert abelianization(parse_presentation("a ; a^6")) == AbelianizedGroup(0, (6,))

    def test_no_relators(self):
        assert abelianization(Presentation(3, ())) == AbelianizedGroup(3, ())

    def test_memory_linear_in_the_presentation(self):
        # 6000 generators, each its own relator: a dense exponent matrix
        # would hold 36 million entries
        names = [f"x{i}" for i in range(6000)]
        presentation = parse_presentation(",".join(names) + " ; " + ", ".join(names))
        tracemalloc.start()
        image = abelianization(presentation)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert image == AbelianizedGroup(0, ())
        assert peak < 32 * 2 ** 20


class TestHeisenberg:
    def test_scale_one_torsion_free(self):
        assert abelianization(heisenberg_presentation(1)) == AbelianizedGroup(2, ())

    def test_scale_five(self):
        assert abelianization(heisenberg_presentation(5)) == AbelianizedGroup(2, (5,))

    def test_scale_hundred(self):
        assert abelianization(heisenberg_presentation(100)).torsion_factors == (100,)

    def test_torsion_order_over_family(self):
        for n in range(1, 201):
            assert math.prod(abelianization(heisenberg_presentation(n)).torsion_factors) == n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_presentation(0)


class TestFreeProduct:
    def test_two_cyclic_groups(self):
        image = abelianization(parse_presentation("a,b ; a^2, b^2"))
        assert image.torsion_factors == (2, 2)
        assert math.prod(image.torsion_factors) == 4

    def test_ten_fold_order_two(self):
        names = [f"g{i}" for i in range(10)]
        text = ",".join(names) + " ; " + ", ".join(f"{g}^2" for g in names)
        image = abelianization(parse_presentation(text))
        assert math.prod(image.torsion_factors) == 2 ** 10

    def test_trivial_factor_neutral(self):
        base = parse_presentation("a,b,c ; [a,b]c^-5, [a,c], [b,c]")
        product = parse_presentation("a,b,c,t ; [a,b]c^-5, [a,c], [b,c], t")
        assert abelianization(product) == abelianization(base)

    def test_direct_sum_of_invariants(self):
        # (generator count, relators over the placeholders {0}, {1}, ...)
        samples = [
            (1, ["{0}^4"]),
            (1, ["{0}^6"]),
            (3, ["[{0},{1}]{2}^-3", "[{0},{2}]", "[{1},{2}]"]),
            (2, ["[{0},{1}]"]),
        ]

        def group(*factors):
            names, relators = [], []
            for prefix, (count, rels) in zip("xy", factors):
                gens = [f"{prefix}{i}" for i in range(count)]
                names += gens
                relators += [rel.format(*gens) for rel in rels]
            return abelianization(parse_presentation(",".join(names) + " ; " + ", ".join(relators)))

        for p1 in samples:
            for p2 in samples:
                combined, a1, a2 = group(p1, p2), group(p1), group(p2)
                assert combined.free_rank == a1.free_rank + a2.free_rank
                assert combined.torsion_factors == oracles.merge_torsion_chains(
                    a1.torsion_factors, a2.torsion_factors
                )


class TestParser:
    def test_quoted_example(self):
        presentation = parse_presentation("a,b,c ; [a,b]c^-5, [a,c], [b,c]")
        assert abelianization(presentation) == AbelianizedGroup(2, (5,))
        direct = heisenberg_presentation(5)
        assert abelianization(presentation) == abelianization(direct)

    def test_powers_and_parens(self):
        presentation = parse_presentation("g ; g^7")
        assert abelianization(presentation).torsion_factors == (7,)
        nested = parse_presentation("a,b ; (ab)^2, [a,b]")
        # Z^2 modulo (2, 2) is Z + Z_2
        assert abelianization(nested) == AbelianizedGroup(1, (2,))

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_presentation("a ; b")

    def test_requires_semicolon(self):
        with pytest.raises(ValueError):
            parse_presentation("a, b")

    @pytest.mark.parametrize("text, opener", [("a ; [a", "["), ("a ; (a", "("), ("a ; [a,a", "["),
                                              ("a ; a, (a^2 a", "("), ("a ; [(a), a] [a, a", "[")])
    def test_an_unclosed_bracket_is_named(self, text, opener):
        # it was refused as trailing tokens, though none trail
        with pytest.raises(ValueError, match=f"^{re.escape(repr(opener))} is not closed$"):
            parse_presentation(text)

    def test_the_relator_text_is_tokenized_once(self, monkeypatch):
        calls = []
        tokenize = presentations._tokenize
        monkeypatch.setattr(presentations, "_tokenize", lambda text: calls.append(text) or tokenize(text))
        presentation = parse_presentation("a,b ; [a,b] a^2, (a b)^3, b^-1")
        assert presentation.relators == (((0, 2),), ((0, 3), (1, 3)), ((1, -1),))
        assert len(calls) == 1

    def test_a_syntax_error_comes_before_any_relator_is_read(self):
        # the context is the next 12 characters of the whole relator text
        with pytest.raises(ValueError, match=r"^bad syntax near ' #, b \$\$\$\$\$\$'$"):
            parse_presentation("a,b ; c, a #, b $$$$$$$$")


@given(st.permutations(range(3)), st.lists(st.booleans(), min_size=3, max_size=3))
def test_abelianization_invariant_under_relator_shuffle_and_inversion(perm, flips):
    base = heisenberg_presentation(6)
    relators = [base.relators[i] for i in perm]
    # inverting a relator negates its row
    relators = [tuple((g, -total) for g, total in r) if flip else r for r, flip in zip(relators, flips)]
    shuffled = Presentation(3, tuple(relators))
    assert abelianization(shuffled) == abelianization(base)


@given(st.integers(1, 60), st.integers(1, 60))
def test_free_product_torsion_orders_multiply(n1, n2):
    image = abelianization(parse_presentation(f"a,b ; a^{n1}, b^{n2}"))
    assert math.prod(image.torsion_factors) == n1 * n2


NAME_POOL = ("a", "b", "c", "ab", "abc", "ba", "x1", "x12", "y", "_z")


def _random_presentation(rng: random.Random) -> str:
    """Nested powers, zero and negative exponents, commutators, parentheses
    and juxtaposed names of mixed lengths, with a few stray edits."""
    names = rng.sample(NAME_POOL, rng.randint(1, 5))

    def word(depth: int) -> str:
        return " ".join(atom(depth) for _ in range(rng.randint(0 if depth else 1, 3)))

    def atom(depth: int) -> str:
        kinds = ("name", "name", "juxtaposed", "commutator", "parens")
        kind = rng.choice(kinds if depth < 3 else kinds[:3])
        if kind == "name":
            text = rng.choice(names)
        elif kind == "juxtaposed":
            text = "".join(rng.choice(names) for _ in range(rng.randint(2, 3)))
        elif kind == "commutator":
            text = f"[{word(depth + 1)},{word(depth + 1)}]"
        else:
            text = f"({word(depth + 1)})"
        if rng.random() < 0.5:
            text += f"^{rng.randint(-12, 12)}"
        return text

    text = ",".join(names) + " ; " + ", ".join(word(0) for _ in range(rng.randint(0, 4)))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice("[](),^;-1a ") + text[at:]
    return text


def _rows(text: str):
    presentation = parse_presentation(text)
    return presentation.generator_count, presentation.relators


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def _capped(outcome, cap) -> bool:
    """Whether ``outcome`` is a refusal by the letter cap, whatever count it names."""
    return isinstance(outcome, str) and outcome.endswith(f", past the cap (presentations.MAX_LETTERS = {cap})")


def test_rows_match_the_letter_path(monkeypatch):
    # a small cap, so that many inputs reach it; the letter path counts at
    # least as much as the rows, and may refuse where the rows stay under it
    cap = 300
    monkeypatch.setattr(presentations, "MAX_LETTERS", cap)
    rng = random.Random(19)
    tally = Counter()
    for _ in range(3000):
        text = _random_presentation(rng)
        new = _outcome(lambda: _rows(text))
        old = _outcome(lambda: oracles.presentation_rows(text, cap))
        if _capped(old, cap) and not _capped(new, cap):
            tally["letter cap only"] += 1
            old = _outcome(lambda: oracles.presentation_rows(text, 10 ** 7))
        tally["refused" if isinstance(new, str) else "accepted"] += 1
        tally["refused at the cap"] += _capped(new, cap)
        # both refused at the cap: the letters counted may be more than the rows
        assert new == old or _capped(new, cap) and _capped(old, cap), text
    assert tally["accepted"] > 1000 and tally["refused"] > 500
    assert tally["letter cap only"] > 100 and tally["refused at the cap"] > 100


def test_the_cap_counts_rows_not_letters(monkeypatch):
    cap = presentations.MAX_LETTERS
    # a commutator counts only its sides, and a cancelling word its row:
    # 800 000 and 600 000 here, against 2 400 000 and 1 800 000 letters
    assert abelianization(parse_presentation("a,b ; [a^400000, b^400000]")) == AbelianizedGroup(2, ())
    image = abelianization(parse_presentation("a,b ; (a b a^-1)^600000"))
    assert image == AbelianizedGroup(1, (600000,))
    for text in ("a,b ; [a^400000, b^400000]", "a,b ; (a b a^-1)^600000"):
        assert _capped(_outcome(lambda: oracles.presentation_rows(text)), cap)
    # the atom (a b^-1) counts 2 and each power of it 2|k|: 1 000 000 at k = 499 999
    assert parse_presentation("a,b ; (a b^-1)^-499999").relators == (((0, -499999), (1, 499999)),)
    for text in ("a,b ; [a^600000, b^400001]", "a,b ; (a b^-1)^-500000"):
        with pytest.raises(ValueError, match=rf"past the cap \(presentations\.MAX_LETTERS = {cap}\)$"):
            parse_presentation(text)
