import tracemalloc

import pytest
from hypothesis import given, strategies as st

from systolic.presentations import (
    AbelianizedGroup,
    Presentation,
    abelianization,
    commutator,
    free_reduce,
    heisenberg_presentation,
    inverse_word,
    parse_presentation,
)

import oracles


class TestWords:
    def test_free_reduction(self):
        assert free_reduce([1, 2, -2, -1, 3]) == (3,)

    def test_inverse(self):
        assert inverse_word((1, 2, -3)) == (3, -2, -1)

    def test_commutator_expansion(self):
        assert commutator([1], [2]) == (1, 2, -1, -2)

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            Presentation(2, ((3,),))


class TestAbelianization:
    def test_commutator_relator_gives_free_abelian(self):
        image = abelianization(Presentation(2, (commutator([1], [2]),)))
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
            assert abelianization(heisenberg_presentation(n)).torsion_order == n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_presentation(0)


class TestFreeProduct:
    def test_two_cyclic_groups(self):
        image = abelianization(parse_presentation("a,b ; a^2, b^2"))
        assert image.torsion_factors == (2, 2)
        assert image.torsion_order == 4

    def test_ten_fold_order_two(self):
        names = [f"g{i}" for i in range(10)]
        text = ",".join(names) + " ; " + ", ".join(f"{g}^2" for g in names)
        image = abelianization(parse_presentation(text))
        assert image.torsion_order == 2 ** 10

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


@given(st.permutations(range(3)), st.lists(st.booleans(), min_size=3, max_size=3))
def test_abelianization_invariant_under_relator_shuffle_and_inversion(perm, flips):
    base = heisenberg_presentation(6)
    relators = [base.relators[i] for i in perm]
    relators = [inverse_word(r) if flip else r for r, flip in zip(relators, flips)]
    shuffled = Presentation(3, tuple(relators))
    assert abelianization(shuffled) == abelianization(base)


@given(st.integers(1, 60), st.integers(1, 60))
def test_free_product_torsion_orders_multiply(n1, n2):
    image = abelianization(parse_presentation(f"a,b ; a^{n1}, b^{n2}"))
    assert image.torsion_order == n1 * n2
