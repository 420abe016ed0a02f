"""Seifert-volume lower-bound certificates for covers of graph manifolds.

The certified quantity is the volume of a representation of the fundamental
group of an explicit finite cover into the universal cover of SL(2, R),
computed through two exact identities:

* a filled circle-bundle piece that carries a horizontal foliation admits a
  flat connection whose Chern-Simons invariant is 2 pi^2 times the Euler
  number of the filled piece (cs_of_filled_piece);
* the Godbillon-Vey invariant of the associated representation is twice the
  Chern-Simons invariant (gv_of_certified_connection).

All values are exact rational multiples of pi^2 and the emitted bound is a
statement about the cover named in the certificate, never about the input
manifold itself (volume can only be pushed down a covering, not up).

Every certificate comes from one path, volume_lower_bound.  It computes
e(P), the Euler number of each piece P filled along its canonical framing,
once, and picks a plan: the pieces to fill and one filling slope per slot.
It covers the graph until every planned filled piece passes the foliation
test, takes the flat connection on each of them, and certifies the
Godbillon-Vey value 2 * sum of |cs(P)| over the plan.  Every neighbor of
the plan carries a connection that kills the fiber and contributes zero.
What remains existential is the boundary translation data of those
neighbors: realizing it as a product of commutators needs |sum of
translation classes| < 2 genus - 1, and the certificate records the genus
threshold under a configured bound on that sum, discharged by the
existence of genus-raising covers of every order.

The plan depends on the absolute Euler number |e|, the sum of |e(P)|.

Case |e| != 0.  The plan is the piece P with the largest |e(P)| (ties go
to the smallest id), filled along its canonical framing.  It contributes
|cs| = 2 pi^2 |e(P)|, so the bound is 4 pi^2 |e(P)|, not 4 pi^2 |e|.

Case |e| = 0.  The graph must already have all gluing matrices equal to
plus or minus the swap J (inputs outside that form are rejected: the
normalizing cover that arranges it is not constructed by this tool).  The
plan is two adjacent pieces joined by r parallel tori, filled with the
slope section-minus-fiber on the shared tori, which the swap carries to
itself, so the two boundary connection normal forms match.  Each side's
filled Euler number has magnitude r, the combined connection has
|cs| = 4 pi^2 r, and the bound is 8 pi^2 r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coverings import (
    CoveredGraph,
    certificate_to_document,
    characteristic_cover,
    min_prime_for_ehn_cover,
    next_prime_above,
)
from .errors import EhnFails, GmanvolError, PMJFormRequired
from .graph import (
    GraphManifold,
    Slope,
    _filled_euler_table,
    _require_valid,
    canonical_framing,
    filled_piece_invariants,
    is_pm_j_form,
)
from .seifert import SeifertInvariants, ehn_horizontal_foliation, euler_number
from .serialize import format_rational

CASE_NONZERO = "e_nonzero"
CASE_ZERO_PMJ = "e_zero_pmj"

SHARED_FILLING_SLOPE = Slope(1, -1)


@dataclass(frozen=True)
class PiSquaredValue:
    """An exact rational multiple of pi^2."""

    coefficient: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))


@dataclass(frozen=True)
class VolumeConfig:
    """Knobs for certificate emission.

    alpha_bound is the assumed bound on the sum of boundary translation
    classes of each fiber-killed neighbor; it parameterizes the existential
    genus side condition and nothing else.  It bounds an absolute value, so
    a negative bound raises GmanvolError.
    """

    alpha_bound: int = 10**6

    def __post_init__(self):
        if self.alpha_bound < 0:
            raise GmanvolError(
                f"alpha_bound bounds an absolute value, so it cannot be {self.alpha_bound}"
            )


@dataclass(frozen=True)
class VolumeCertificate:
    """A checkable lower bound on the Seifert volume of an explicit cover.

    The asserted statement is SV(cover) >= bound, where the cover is the
    result of applying the covering tower (left to right) to the input and
    has degree total_cover_degree over it.
    """

    case_tag: str
    tower: tuple[CoveredGraph, ...]
    total_cover_degree: int
    chosen_piece: str | None
    chosen_pair: tuple[str, str] | None
    parallel_tori: int | None
    filling_slopes: dict[str, Slope]
    bound: PiSquaredValue
    side_conditions: tuple[dict, ...]
    covered_manifold: GraphManifold = field(repr=False)

    def to_document(self) -> dict:
        if self.case_tag == CASE_NONZERO:
            chosen = {"piece": self.chosen_piece}
        else:
            chosen = {"pieces": list(self.chosen_pair), "r": self.parallel_tori}
        return {
            "case": self.case_tag,
            "cover_degree": self.total_cover_degree,
            "tower": [certificate_to_document(stage.certificate) for stage in self.tower],
            "chosen": chosen,
            "filling_slopes": {
                key: [slope.a, slope.b]
                for key, slope in sorted(self.filling_slopes.items())
            },
            "bound_pi2": format_rational(self.bound.coefficient),
            "side_conditions": list(self.side_conditions),
        }


def cs_of_filled_piece(inv: SeifertInvariants) -> PiSquaredValue:
    """Chern-Simons invariant of the flat connection on a foliated filled piece.

    Defined only when the horizontal foliation test passes; the value is
    2 pi^2 times the Euler number of the filled piece.
    """
    if not ehn_horizontal_foliation(inv):
        raise EhnFails(
            "the filled piece admits no horizontal foliation, so the flat "
            "connection with known Chern-Simons invariant does not exist"
        )
    return PiSquaredValue(2 * euler_number(inv))


def gv_of_certified_connection(cs: PiSquaredValue) -> PiSquaredValue:
    """Godbillon-Vey value of the representation: twice the Chern-Simons value."""
    return PiSquaredValue(2 * cs.coefficient)


def _tower_for(gm: GraphManifold, q_needed: int) -> tuple[tuple[CoveredGraph, ...], GraphManifold, int]:
    """Build the characteristic tower reaching the required prime, if any.

    The constructor needs a prime above every boundary count in the whole
    graph, so the prime used is the smallest one that is at least q_needed
    and above every boundary count (the foliation test only gets easier as
    the covered genus grows).
    """
    if q_needed == 1:
        return (), gm, 1
    max_boundary = max(piece.boundary for piece in gm.pieces)
    q = next_prime_above(max(q_needed - 1, max_boundary))
    stage = characteristic_cover(gm, q)
    return (stage,), stage.manifold, stage.certificate.total_degree


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
    for edge in gm.edges:
        tail, head = edge.tail[0], edge.head[0]
        if (tail in chosen) != (head in chosen):
            neighbor = head if tail in chosen else tail
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


def _swap_pair_plan(gm: GraphManifold) -> tuple[dict[str, list[Slope]], int]:
    """The filling plan of a zero-|e| graph and the r of its chosen pair.

    Raises PMJFormRequired unless every gluing matrix is a plus/minus swap.
    The adjacent pair joined by the most parallel tori is chosen (ties
    broken lexicographically).  Each side is filled with section-minus-fiber
    on the shared tori, in its own coordinates, and with its canonical
    framing elsewhere.
    """
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
    plan = {
        pid: [
            SHARED_FILLING_SLOPE if (pid, slot) in ends else slope
            for slot, slope in enumerate(canonical_framing(gm, pid))
        ]
        for pid in pair
    }
    return plan, len(shared_ends[pair]) // 2


def volume_lower_bound(
    gm: GraphManifold, config: VolumeConfig | None = None
) -> VolumeCertificate:
    """Emit a positive Seifert-volume lower bound for a finite cover of gm."""
    config = config or VolumeConfig()
    _require_valid(gm)
    filled_euler = _filled_euler_table(gm)
    if any(filled_euler.values()):
        chosen = min(filled_euler, key=lambda pid: (-abs(filled_euler[pid]), pid))
        plan, r = {chosen: canonical_framing(gm, chosen)}, None
    else:
        plan, r = _swap_pair_plan(gm)

    q_needed = max(min_prime_for_ehn_cover(gm, pid, slopes) for pid, slopes in plan.items())
    tower, covered, degree = _tower_for(gm, q_needed)
    cs = [
        cs_of_filled_piece(filled_piece_invariants(covered, pid, slopes)).coefficient
        for pid, slopes in plan.items()
    ]
    cs_magnitude = PiSquaredValue(sum(abs(value) for value in cs))

    side_conditions = []
    if r is not None:
        if cs_magnitude.coefficient != 4 * r:
            raise AssertionError("combined Chern-Simons magnitude must equal 4r")
        side_conditions = [
            {
                "type": "boundary-normal-form-match",
                "pieces": list(plan),
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
    side_conditions.extend(_commutator_side_conditions(gm, tuple(plan), config))

    return VolumeCertificate(
        case_tag=CASE_NONZERO if r is None else CASE_ZERO_PMJ,
        tower=tower,
        total_cover_degree=degree,
        chosen_piece=next(iter(plan)) if r is None else None,
        chosen_pair=None if r is None else tuple(plan),
        parallel_tori=r,
        filling_slopes={
            f"{pid}:{slot}": slope
            for pid, slopes in plan.items()
            for slot, slope in enumerate(slopes)
        },
        bound=gv_of_certified_connection(cs_magnitude),
        side_conditions=tuple(side_conditions),
        covered_manifold=covered,
    )
