"""Exact invariants of closed orientable Seifert fibered spaces.

A closed Seifert manifold over an orientable base is recorded as a base
genus g together with an ordered list of filling pairs (alpha_i, beta_i),
one per exceptional fiber.  A plain circle bundle of Euler number e is the
datum (g, [(1, e)]).  The two fundamental numerical invariants are

    euler number            e = sum_i beta_i / alpha_i
    orbifold Euler char     chi = 2 - 2 g - sum_i (1 - 1 / alpha_i)

and the pair of signs (e, chi) determines which of the six Seifert
geometries the manifold carries.  All arithmetic in this module is exact;
no operation ever produces a float.  Each invariant is summed in plain
integers over one common denominator, the product of the alpha_i, and
reduced to a Fraction once; floors and ceilings of beta_i/alpha_i come from
integer floor division.

The decision procedures included here are the Milnor-Wood inequality for
flat circle bundles and the Eisenbud-Hirsch-Neumann floor/ceiling test for
the existence of a horizontal foliation, together with the commutator
realizability test for products of shifted elliptic elements in the
universal cover of PSL(2, R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EmptyInput, FiberSlope, GenusZeroUnsupported


@dataclass(frozen=True)
class SeifertInvariants:
    """Closed Seifert datum (g, 0; beta_1/alpha_1, ..., beta_l/alpha_l).

    The genus and every alpha and beta must be ints (bool is rejected).
    Each pair (alpha, beta) must be coprime with alpha >= 1; a pair with
    beta = 0 therefore forces alpha = 1.  The list may be empty.
    """

    genus: int
    exceptional: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _require_int(self.genus, "genus")
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")
        pairs = tuple((a, b) for a, b in self.exceptional)
        for alpha, beta in pairs:
            _require_int(alpha, "alpha")
            _require_int(beta, "beta")
            if alpha < 1:
                raise ValueError(f"alpha must be positive, got {alpha}")
            if math.gcd(alpha, abs(beta)) != 1:
                raise ValueError(f"filling pair ({alpha}, {beta}) is not coprime")
        object.__setattr__(self, "exceptional", pairs)


def _require_int(value, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


class GeometryType(Enum):
    """The six geometries a closed orientable Seifert manifold can carry."""

    SPHERICAL = "spherical"
    S2XR = "s2xr"
    EUCLIDEAN = "euclidean"
    NIL = "nil"
    H2XR = "h2xr"
    SL2TILDE = "sl2tilde"


def euler_number(inv: SeifertInvariants) -> Fraction:
    """Euler number of the Seifert fibration, sum of beta_i/alpha_i."""
    num, den = 0, 1
    for alpha, beta in inv.exceptional:
        num, den = num * alpha + beta * den, den * alpha
    return Fraction(num, den)


def orbifold_euler_char(inv: SeifertInvariants) -> Fraction:
    """Euler characteristic of the base orbifold, 2 - 2g - sum(1 - 1/alpha_i)."""
    # Rewritten as (2 - 2g - l) + sum 1/alpha_i for l exceptional pairs.
    num, den = 2 - 2 * inv.genus - len(inv.exceptional), 1
    for alpha, _ in inv.exceptional:
        num, den = num * alpha + den, den * alpha
    return Fraction(num, den)


def geometry_type(inv: SeifertInvariants) -> GeometryType:
    """Classify the geometry from the signs of (euler number, orbifold chi)."""
    return _geometry(euler_number(inv), orbifold_euler_char(inv))


def _geometry(e: Fraction | int, chi: Fraction | int) -> GeometryType:
    # Only the signs are read, so e and chi may be numerators over one
    # positive denominator.
    if chi < 0:
        return GeometryType.SL2TILDE if e != 0 else GeometryType.H2XR
    if chi == 0:
        return GeometryType.NIL if e != 0 else GeometryType.EUCLIDEAN
    return GeometryType.SPHERICAL if e != 0 else GeometryType.S2XR


def milnor_wood_check(e: int, genus: int) -> bool:
    """Flat circle bundle test over a genus g > 0 surface: |e| <= 2g - 2.

    e and genus must be ints (not bools), or TypeError is raised.
    """
    _require_int(e, "e")
    _require_int(genus, "genus")
    if genus < 1:
        raise GenusZeroUnsupported("Milnor-Wood test requires positive genus")
    return abs(e) <= 2 * genus - 2


def ehn_horizontal_foliation(inv: SeifertInvariants) -> bool:
    """Horizontal foliation test of Eisenbud, Hirsch and Neumann.

    A closed Seifert manifold over an orientable base of genus g >= 1
    carries a horizontal foliation transverse to the fibers exactly when

        sum_i floor(beta_i/alpha_i) <= 2g - 2   and
        sum_i ceil(beta_i/alpha_i)  >= 2 - 2g.
    """
    if inv.genus < 1:
        raise GenusZeroUnsupported("horizontal foliation test requires genus >= 1")
    return inv.genus >= min_genus_for_ehn(inv.exceptional)


def min_genus_for_ehn(exceptional: Iterable[tuple[int, int]]) -> int:
    """Smallest base genus g >= 1 at which the foliation test passes.

    Both inequalities loosen as g grows, so the answer is the larger of the
    two closed-form thresholds (and at least 1).
    """
    pairs = tuple(exceptional)
    floors = sum(b // a for a, b in pairs)
    ceilings = sum(-(-b // a) for a, b in pairs)
    # floors <= 2g - 2  <=>  g >= (floors + 2) / 2
    # ceilings >= 2 - 2g  <=>  g >= (2 - ceilings) / 2
    need_floor = -((-(floors + 2)) // 2)
    need_ceil = -((-(2 - ceilings)) // 2)
    return max(1, need_floor, need_ceil)


def commutator_realizable(alphas: Sequence[Fraction | int], genus: int) -> bool:
    """Can the product of shifts by the given amounts be a product of g commutators?

    The criterion is strict: |alpha_1 + ... + alpha_s| < 2g - 1.  Each
    alpha must be an int (not a bool) or a Fraction, and genus an int, or
    TypeError is raised.
    """
    _require_int(genus, "genus")
    if genus < 1:
        raise GenusZeroUnsupported("commutator realizability requires genus >= 1")
    values = list(alphas)
    for value in values:
        if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
            raise TypeError(
                f"translation class must be an int or a Fraction, got {type(value).__name__}"
            )
    if not values:
        raise EmptyInput("commutator realizability needs at least one translation class")
    return abs(sum(values)) < 2 * genus - 1


def fill_framed_piece(genus: int, slopes: Sequence) -> SeifertInvariants:
    """Close up a framed trivial circle bundle by Dehn filling along slopes.

    Each slope is a primitive pair (a, b) in the section-fiber basis of one
    boundary torus; it is normalized to a > 0 and read off as the filling
    pair (alpha, beta) = (a, b).  The fiber slope (0, 1) cannot be filled
    along while keeping the Seifert fibration, so it is rejected.
    """
    pairs = []
    for slope in slopes:
        a, b = (slope if isinstance(slope, tuple) else (slope.a, slope.b))
        if a == 0:
            raise FiberSlope("cannot fill along the fiber slope (0, b)")
        if a < 0:
            a, b = -a, -b
        pairs.append((a, b))
    return SeifertInvariants(genus, tuple(pairs))
