import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gmanvol.seifert
from gmanvol import (
    EmptyInput,
    FiberSlope,
    GenusZeroUnsupported,
    GeometryType,
    SeifertInvariants,
    commutator_realizable,
    ehn_horizontal_foliation,
    euler_number,
    fill_framed_piece,
    geometry_type,
    milnor_wood_check,
    min_genus_for_ehn,
    orbifold_euler_char,
)


@st.composite
def filling_pairs(draw, max_len=6):
    pairs = []
    for _ in range(draw(st.integers(0, max_len))):
        alpha = draw(st.integers(1, 9))
        beta = draw(
            st.integers(-9, 9).filter(
                lambda b, a=alpha: __import__("math").gcd(a, abs(b)) == 1
            )
        )
        pairs.append((alpha, beta))
    return tuple(pairs)


class TestEulerNumber:
    def test_empty_sum(self):
        assert euler_number(SeifertInvariants(2)) == 0

    def test_three_fractions(self):
        inv = SeifertInvariants(0, ((2, 1), (3, 1), (5, 1)))
        assert euler_number(inv) == Fraction(31, 30)

    def test_integer_slope(self):
        for k in (-4, 0, 7):
            assert euler_number(SeifertInvariants(1, ((1, k),))) == k

    @given(filling_pairs(), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, rng):
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        base = SeifertInvariants(1, pairs)
        other = SeifertInvariants(1, tuple(shuffled))
        assert euler_number(base) == euler_number(other)
        assert orbifold_euler_char(base) == orbifold_euler_char(other)


class TestOrbifoldEulerChar:
    def test_closed_genus_two(self):
        assert orbifold_euler_char(SeifertInvariants(2)) == -2

    def test_237(self):
        inv = SeifertInvariants(0, ((2, 1), (3, 1), (7, 1)))
        assert orbifold_euler_char(inv) == Fraction(-1, 42)

    def test_torus_base(self):
        assert orbifold_euler_char(SeifertInvariants(1)) == 0


class TestGeometryType:
    def test_sl2tilde(self):
        inv = SeifertInvariants(0, ((2, 1), (3, 1), (7, 1)))
        assert geometry_type(inv) is GeometryType.SL2TILDE

    def test_euclidean(self):
        assert geometry_type(SeifertInvariants(1)) is GeometryType.EUCLIDEAN

    def test_h2xr(self):
        assert geometry_type(SeifertInvariants(2)) is GeometryType.H2XR

    def test_remaining_rows(self):
        assert geometry_type(SeifertInvariants(1, ((1, 3),))) is GeometryType.NIL
        assert geometry_type(SeifertInvariants(0, ((1, 1),))) is GeometryType.SPHERICAL
        assert geometry_type(SeifertInvariants(0)) is GeometryType.S2XR


class TestMilnorWood:
    def test_boundary_case(self):
        assert milnor_wood_check(2, 2) is True

    def test_too_large(self):
        assert milnor_wood_check(3, 2) is False

    def test_zero_euler(self):
        assert milnor_wood_check(0, 1) is True

    def test_genus_zero_rejected(self):
        with pytest.raises(GenusZeroUnsupported):
            milnor_wood_check(0, 0)

    @pytest.mark.parametrize(
        "e, genus, name",
        [
            (2.5, 2, "e"),
            (Fraction(1, 2), 2, "e"),
            ("1", 2, "e"),
            (True, 2, "e"),
            (0, 2.0, "genus"),
            (0, True, "genus"),
        ],
        ids=["float-e", "fraction-e", "str-e", "bool-e", "float-genus", "bool-genus"],
    )
    def test_non_int_rejected(self, e, genus, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
            milnor_wood_check(e, genus)


class TestHorizontalFoliation:
    def test_half_fractions(self):
        assert ehn_horizontal_foliation(SeifertInvariants(1, ((2, 1), (2, -1)))) is True

    def test_large_integer_slope(self):
        assert ehn_horizontal_foliation(SeifertInvariants(2, ((1, 3),))) is False

    def test_empty(self):
        assert ehn_horizontal_foliation(SeifertInvariants(1)) is True

    def test_genus_zero_rejected(self):
        with pytest.raises(GenusZeroUnsupported):
            ehn_horizontal_foliation(SeifertInvariants(0, ((2, 1),)))

    def test_circle_bundle_matches_milnor_wood(self):
        for genus in range(1, 6):
            for e in range(-20, 21):
                inv = SeifertInvariants(genus, ((1, e),))
                assert ehn_horizontal_foliation(inv) == milnor_wood_check(e, genus)

    @given(st.integers(1, 6), st.integers(1, 4))
    def test_zero_euler_small_ratios_always_foliate(self, half_count, alpha):
        # Opposite pairs (alpha, 1), (alpha, -1) give Euler number zero with
        # every ratio in [-1, 1]; a genus above half the fiber count is
        # ample.
        pairs = ((alpha, 1), (alpha, -1)) * half_count
        genus = len(pairs) // 2 + 1
        inv = SeifertInvariants(genus, pairs)
        assert euler_number(inv) == 0
        assert ehn_horizontal_foliation(inv) is True


class TestMinGenus:
    def test_three_negative_units(self):
        assert min_genus_for_ehn([(1, -1)] * 3) == 3

    def test_empty(self):
        assert min_genus_for_ehn([]) == 1

    def test_single_three(self):
        assert min_genus_for_ehn([(1, 3)]) == 3

    @given(filling_pairs())
    def test_minimality(self, pairs):
        g = min_genus_for_ehn(pairs)
        assert ehn_horizontal_foliation(SeifertInvariants(g, pairs)) is True
        if g >= 2:
            assert ehn_horizontal_foliation(SeifertInvariants(g - 1, pairs)) is False


class TestCommutatorRealizable:
    def test_boundary_strictness(self):
        assert commutator_realizable([1], 1) is False

    def test_fractions(self):
        assert commutator_realizable([Fraction(1, 2), Fraction(1, 4)], 1) is True

    def test_cancellation(self):
        assert commutator_realizable([5, -5], 1) is True

    def test_translation_class_wrapper(self):
        assert commutator_realizable([Fraction(3, 2)], 2) is True

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            commutator_realizable([], 1)

    @pytest.mark.parametrize(
        "alphas",
        [[0.5, 1.25], [Fraction(1, 2), 0.5], ["1/2"], [True], [1, False], [None]],
        ids=["floats", "fraction-and-float", "str", "true", "false", "none"],
    )
    def test_non_exact_translation_class_rejected(self, alphas):
        with pytest.raises(TypeError, match="^translation class must be an int or a Fraction, got "):
            commutator_realizable(alphas, 2)

    @pytest.mark.parametrize("genus", [2.0, True, Fraction(2), "2"], ids=repr)
    def test_non_int_genus_rejected(self, genus):
        with pytest.raises(TypeError, match="^genus must be an int, got "):
            commutator_realizable([1], genus)

    def test_int_and_fraction_mixed(self):
        assert commutator_realizable([1, Fraction(-1, 2)], 1) is True
        assert commutator_realizable([1, Fraction(1, 2)], 1) is False

    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=8), min_size=1, max_size=6
        ),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
    )
    def test_permutation_and_negation_invariance(self, values, genus, rng):
        base = commutator_realizable(values, genus)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert commutator_realizable(shuffled, genus) == base
        assert commutator_realizable([-v for v in values], genus) == base


class TestFillFramedPiece:
    def test_zero_framing(self):
        inv = fill_framed_piece(2, [(1, 0), (1, 0)])
        assert inv == SeifertInvariants(2, ((1, 0), (1, 0)))
        assert euler_number(inv) == 0

    def test_negative_slope(self):
        inv = fill_framed_piece(2, [(1, -1)])
        assert inv.exceptional == ((1, -1),)
        assert euler_number(inv) == -1

    def test_mixed_slopes(self):
        inv = fill_framed_piece(3, [(2, 1), (3, -2)])
        assert euler_number(inv) == Fraction(-1, 6)

    def test_sign_normalization(self):
        assert fill_framed_piece(2, [(-2, 3)]).exceptional == ((2, -3),)

    def test_fiber_rejected(self):
        with pytest.raises(FiberSlope):
            fill_framed_piece(2, [(0, 1)])


class TestInvariantsValidation:
    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            SeifertInvariants(1, ((4, 2),))

    def test_zero_beta_needs_alpha_one(self):
        with pytest.raises(ValueError):
            SeifertInvariants(1, ((3, 0),))
        assert SeifertInvariants(1, ((1, 0),)).exceptional == ((1, 0),)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            SeifertInvariants(-1)

    @pytest.mark.parametrize(
        "genus, pairs",
        [
            (1, ((2.7, 1),)),
            (1, (("3", 1),)),
            (1, ((True, 1),)),
            (1, ((3, 1.0),)),
            (1, ((3, "1"),)),
            (1, ((1, False),)),
            (2.5, ()),
            (2.0, ()),
            ("2", ()),
            (True, ()),
        ],
    )
    def test_non_integers_rejected(self, genus, pairs):
        with pytest.raises(TypeError):
            SeifertInvariants(genus, pairs)


def reference_euler_number(inv):
    return sum((Fraction(b, a) for a, b in inv.exceptional), Fraction(0))


def reference_orbifold_euler_char(inv):
    total = Fraction(2 - 2 * inv.genus)
    for alpha, _ in inv.exceptional:
        total -= 1 - Fraction(1, alpha)
    return total


def reference_geometry_type(inv):
    e = reference_euler_number(inv)
    chi = reference_orbifold_euler_char(inv)
    if chi < 0:
        return GeometryType.SL2TILDE if e != 0 else GeometryType.H2XR
    if chi == 0:
        return GeometryType.NIL if e != 0 else GeometryType.EUCLIDEAN
    return GeometryType.SPHERICAL if e != 0 else GeometryType.S2XR


def reference_floor_ceil_sums(pairs):
    floors = sum(math.floor(Fraction(b, a)) for a, b in pairs)
    ceilings = sum(math.ceil(Fraction(b, a)) for a, b in pairs)
    return floors, ceilings


def reference_ehn_horizontal_foliation(inv):
    floors, ceilings = reference_floor_ceil_sums(inv.exceptional)
    return floors <= 2 * inv.genus - 2 and ceilings >= 2 - 2 * inv.genus


def reference_min_genus_for_ehn(pairs):
    floors, ceilings = reference_floor_ceil_sums(pairs)
    return max(1, math.ceil(Fraction(floors + 2, 2)), math.ceil(Fraction(2 - ceilings, 2)))


BIG = 10**40


@st.composite
def big_filling_pairs(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        alpha = draw(st.integers(1, BIG))
        beta = draw(st.integers(-BIG, BIG))
        common = math.gcd(alpha, abs(beta))
        pairs.append((alpha // common, beta // common))
    return tuple(pairs)


class TestIntegerArithmeticMatchesFractions:
    """The integer sums agree exactly with the per-term Fraction formulas."""

    @given(st.integers(0, 6), big_filling_pairs())
    def test_invariants(self, genus, pairs):
        inv = SeifertInvariants(genus, pairs)
        assert euler_number(inv) == reference_euler_number(inv)
        assert orbifold_euler_char(inv) == reference_orbifold_euler_char(inv)
        assert geometry_type(inv) is reference_geometry_type(inv)
        if genus == 0:
            with pytest.raises(GenusZeroUnsupported):
                ehn_horizontal_foliation(inv)
        else:
            assert ehn_horizontal_foliation(inv) is reference_ehn_horizontal_foliation(inv)

    @given(
        st.lists(
            st.tuples(
                st.integers(-BIG, BIG).filter(lambda a: a != 0),
                st.integers(-BIG, BIG),
            ),
            max_size=8,
        )
    )
    def test_min_genus_on_raw_pairs(self, pairs):
        # Raw pairs are neither normalized nor coprime; alpha may be negative.
        assert min_genus_for_ehn(pairs) == reference_min_genus_for_ehn(pairs)

    @pytest.mark.parametrize("function", [euler_number, orbifold_euler_char])
    def test_one_fraction_per_call(self, function, monkeypatch):
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(gmanvol.seifert, "Fraction", CountingFraction)
        inv = SeifertInvariants(2, ((2, 1), (3, -1), (5, 2), (7, 3)))
        value = function(inv)
        assert len(built) == 1
        assert value == {
            euler_number: reference_euler_number,
            orbifold_euler_char: reference_orbifold_euler_char,
        }[function](inv)
