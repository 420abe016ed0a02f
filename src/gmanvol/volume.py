"""Seifert-volume lower-bound certificates for covers of graph manifolds.

The certified quantity is the volume of a representation of the fundamental
group of an explicit finite cover into the universal cover of SL(2, R),
computed through two exact identities:

* a filled circle-bundle piece that carries a horizontal foliation admits a
  flat connection whose Chern-Simons invariant is 2 pi^2 times the Euler
  number of the filled piece (cs_of_filled_piece);
* the Godbillon-Vey invariant of the associated representation is twice the
  Chern-Simons invariant (gv_of_certified_connection).

All values are exact rational multiples of pi^2, carried as their Fraction
coefficient, and the emitted bound is a statement about the cover named in
the certificate, never about the input manifold itself (volume can only be
pushed down a covering, not up).

Every certificate comes from one path, volume_lower_bound.  It chooses one
plan (_choose_plan): the pieces to fill with one slope per slot, and the
prime q of the characteristic cover after which every filled piece passes
the foliation test (q = 1: no cover).  The prime is the largest that
min_prime_for_ehn_cover returns for a filled piece: it exceeds every
boundary count, as characteristic_cover requires.  It builds that cover,
takes the flat connection on each filled piece, and certifies the
Godbillon-Vey value 2 * sum of |cs(P)| over the plan.  Every neighbor of
the plan carries a connection that kills the fiber and contributes zero.
What remains existential is the boundary translation data of those
neighbors: realizing it as a product of commutators needs |sum of
translation classes| < 2 genus - 1, and the certificate records the genus
threshold under a configured bound on that sum, discharged by the
existence of genus-raising covers of every order.

The filled pieces depend on the absolute Euler number |e|, the sum of
|e(P)|, where e(P) is the Euler number of piece P filled along its
canonical framing.

Case |e| != 0.  The plan fills the piece P with the largest |e(P)| (ties
go to the smallest id) along its canonical framing.  It contributes
|cs| = 2 pi^2 |e(P)|, so the bound is 4 pi^2 |e(P)|, not 4 pi^2 |e|.

Case |e| = 0.  The graph must already have all gluing matrices equal to
plus or minus the swap J (inputs outside that form are rejected: the
normalizing cover that arranges it is not constructed by this tool).  The
plan fills two adjacent pieces joined by r parallel tori, with the slope
section-minus-fiber on the shared tori, which the swap carries to itself,
so the two boundary connection normal forms match.  Each side's filled
Euler number has magnitude r, the combined connection has
|cs| = 4 pi^2 r, and the bound is 8 pi^2 r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coverings import (
    CoveredGraph,
    certificate_to_document,
    characteristic_cover,
    min_prime_for_ehn_cover,
)
from .errors import EhnFails, GmanvolError, PMJFormRequired
from .graph import (
    GraphManifold,
    Slope,
    _filled_piece_table,
    _require_valid,
    is_pm_j_form,
)
from .seifert import (
    SeifertInvariants,
    _require_int,
    ehn_horizontal_foliation,
    euler_number,
    fill_framed_piece,
)
from .serialize import format_rational

CASE_NONZERO = "e_nonzero"
CASE_ZERO_PMJ = "e_zero_pmj"

SHARED_FILLING_SLOPE = Slope(1, -1)


@dataclass(frozen=True)
class VolumeConfig:
    """Knobs for certificate emission.

    alpha_bound is the assumed bound on the sum of boundary translation
    classes of each fiber-killed neighbor; it parameterizes the existential
    genus side condition and nothing else.  It must be an int (not a bool),
    or TypeError is raised.  It bounds an absolute value, so a negative
    bound raises GmanvolError.
    """

    alpha_bound: int = 10**6

    def __post_init__(self):
        _require_int(self.alpha_bound, "alpha_bound")
        if self.alpha_bound < 0:
            raise GmanvolError(
                f"alpha_bound bounds an absolute value, so it cannot be {self.alpha_bound}"
            )


@dataclass(frozen=True)
class _Plan:
    """What a certificate fills and how far it covers first.

    fillings maps each filled piece, in plan order, to its filling slopes,
    one per slot.  r is the number of shared tori of the swap pair, or None
    when |e| != 0.  q is the prime of the characteristic cover, or 1 when
    every filled piece already foliates and no cover is needed.
    """

    fillings: dict[str, tuple[Slope, ...]]
    r: int | None
    q: int


@dataclass(frozen=True)
class VolumeCertificate:
    """A checkable lower bound on the Seifert volume of an explicit cover.

    The asserted statement is SV(cover) >= bound * pi^2, with bound an exact
    Fraction.  The cover applies the tower (left to right) to the input: the
    characteristic cover at prime plan.q, or nothing when plan.q is 1.  So
    the cover is tower[-1].manifold, or the input when the tower is empty.
    to_document derives the case, the cover degree, the chosen piece or
    pair and the slot-keyed filling slopes from the plan.
    """

    plan: _Plan
    tower: tuple[CoveredGraph, ...]
    bound: Fraction
    side_conditions: tuple[dict, ...]

    def to_document(self) -> dict:
        fillings, r = self.plan.fillings, self.plan.r
        if r is None:
            case, chosen = CASE_NONZERO, {"piece": next(iter(fillings))}
        else:
            case, chosen = CASE_ZERO_PMJ, {"pieces": list(fillings), "r": r}
        return {
            "case": case,
            "cover_degree": math.prod(stage.certificate.total_degree for stage in self.tower),
            "tower": [certificate_to_document(stage.certificate) for stage in self.tower],
            "chosen": chosen,
            "filling_slopes": dict(
                sorted(
                    (f"{pid}:{slot}", [slope.a, slope.b])
                    for pid, slopes in fillings.items()
                    for slot, slope in enumerate(slopes)
                )
            ),
            "bound_pi2": format_rational(self.bound),
            "side_conditions": list(self.side_conditions),
        }


def cs_of_filled_piece(inv: SeifertInvariants) -> Fraction:
    """Chern-Simons invariant of the flat connection on a foliated filled piece.

    Defined only when the horizontal foliation test passes; the value is
    2 pi^2 times the Euler number of the filled piece, returned as its
    coefficient of pi^2.
    """
    if not ehn_horizontal_foliation(inv):
        raise EhnFails(
            "the filled piece admits no horizontal foliation, so the flat "
            "connection with known Chern-Simons invariant does not exist"
        )
    return 2 * euler_number(inv)


def gv_of_certified_connection(cs: Fraction) -> Fraction:
    """Godbillon-Vey value of the representation: twice the Chern-Simons value."""
    return 2 * Fraction(cs)


def _commutator_side_conditions(
    gm: GraphManifold, chosen: tuple[str, ...], config: VolumeConfig
) -> list[dict]:
    """Existential genus conditions for the fiber-killed neighbors.

    For a neighbor sharing r tori with the chosen piece(s), the boundary
    holonomy shifts sum to an unknown value alpha; writing their product as
    genus many commutators needs |alpha| < 2 genus - 1 (strict).  Under the
    configured bound B on |alpha| the condition becomes
    genus > (B + 1) / 2, and genus-raising covers reach any genus.
    """
    conditions = []
    shared: dict[str, int] = {}
    # Each torus with one side on a chosen piece is reached once, through
    # that piece's slot; gm is valid, so every slot has its edge.
    incidence = gm._incidence
    for pid in chosen:
        for slot in range(incidence.pieces[pid].boundary):
            index, side = incidence.slots[(pid, slot)]
            edge = gm.edges[index]
            neighbor = (edge.tail if side == "head" else edge.head)[0]
            if neighbor not in chosen:
                shared[neighbor] = shared.get(neighbor, 0) + 1
    bound = config.alpha_bound
    threshold = Fraction(bound + 1, 2)
    for neighbor in sorted(shared):
        conditions.append(
            {
                "type": "neighbor-commutator-genus",
                "piece": neighbor,
                "shared_tori": shared[neighbor],
                "translation_sum_bound": format_rational(bound),
                "genus_threshold": format_rational(threshold),
                "discharged_by": "genus-raising covers reach any base genus",
            }
        )
    conditions.append(
        {
            "type": "commutator-realizability",
            "inequality": "|alpha_1 + ... + alpha_r| < 2*genus - 1",
            "strict": True,
        }
    )
    conditions.append(
        {
            "type": "fiber-killed-zero-contribution",
            "rule": (
                "a neighbor whose holonomy kills the fiber factors through its "
                "base surface group, so its Godbillon-Vey contribution is zero"
            ),
        }
    )
    return conditions


def _choose_plan(gm: GraphManifold) -> _Plan:
    """The one plan of a valid graph: filled pieces, slopes, r and prime.

    The swap pair is the one joined by the most parallel tori (ties broken
    lexicographically); each side takes section-minus-fiber on the shared
    tori, in its own coordinates, and its canonical framing elsewhere.
    """
    table = _filled_piece_table(gm)
    # |e(P)| = |euler| / den, compared by cross-multiplying.  The table is in
    # piece-id order and only a strictly larger |e(P)| replaces the best, so
    # ties go to the smallest id; no nonzero e(P) leaves chosen as None.
    chosen, best, best_den = None, 0, 1
    for pid, row in table.items():
        euler = abs(row.euler)
        if euler * best_den > best * row.den:
            chosen, best, best_den = pid, euler, row.den
    if chosen is not None:
        fillings = {chosen: tuple(Slope(*pair) for pair in table[chosen].framing)}
        r = None
    else:
        if not is_pm_j_form(gm):
            raise PMJFormRequired(
                "absolute Euler number is zero but the gluing matrices are not all "
                "plus/minus swaps; the finite cover that normalizes a "
                "zero-absolute-Euler graph manifold into swap form is not "
                "constructed by this tool"
            )
        shared_ends: dict[tuple[str, str], list[tuple[str, int]]] = {}
        for edge in gm.edges:
            pair = tuple(sorted((edge.tail[0], edge.head[0])))
            shared_ends.setdefault(pair, []).extend((edge.tail, edge.head))
        pair = min(shared_ends, key=lambda p: (-len(shared_ends[p]), p))
        ends = set(shared_ends[pair])
        fillings = {
            pid: tuple(
                SHARED_FILLING_SLOPE if (pid, slot) in ends else Slope(alpha, beta)
                for slot, (alpha, beta) in enumerate(table[pid].framing)
            )
            for pid in pair
        }
        r = len(shared_ends[pair]) // 2

    q = max(min_prime_for_ehn_cover(gm, pid, slopes) for pid, slopes in fillings.items())
    return _Plan(fillings, r, q)


def volume_lower_bound(
    gm: GraphManifold, config: VolumeConfig | None = None
) -> VolumeCertificate:
    """Emit a positive Seifert-volume lower bound for a finite cover of gm."""
    config = config or VolumeConfig()
    _require_valid(gm)
    plan = _choose_plan(gm)
    tower = (characteristic_cover(gm, plan.q),) if plan.q > 1 else ()
    # A filled piece keeps its slopes on the cover, and the tower's record
    # gives its covered genus without indexing the cover.
    cs = []
    for pid, slopes in plan.fillings.items():
        genus = tower[-1].certificate.per_piece[pid].genus_up if tower else gm.piece(pid).genus
        cs.append(cs_of_filled_piece(fill_framed_piece(genus, slopes)))
    cs_magnitude = sum(abs(value) for value in cs)

    side_conditions = []
    if plan.r is not None:
        if cs_magnitude != 4 * plan.r:
            raise AssertionError("combined Chern-Simons magnitude must equal 4r")
        side_conditions = [
            {
                "type": "boundary-normal-form-match",
                "pieces": list(plan.fillings),
                "rule": (
                    "every plus/minus swap carries the section-minus-fiber slope of "
                    "one side to that of the other, so the boundary connection "
                    "normal forms on the shared tori agree with equal dx and dy "
                    "coefficients"
                ),
            },
            {
                "type": "orientation-convention",
                "filled_euler": [format_rational(value / 2) for value in cs],
                "rule": (
                    "in the fixed transport convention both filled Euler numbers "
                    "equal -r; the certified Chern-Simons magnitude "
                    "2*pi^2*(|e1| + |e2|) does not depend on orientation bookkeeping"
                ),
            },
        ]
    side_conditions.extend(_commutator_side_conditions(gm, tuple(plan.fillings), config))

    return VolumeCertificate(
        plan=plan,
        tower=tower,
        bound=gv_of_certified_connection(cs_magnitude),
        side_conditions=tuple(side_conditions),
    )
