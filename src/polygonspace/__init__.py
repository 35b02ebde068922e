"""Exact computations on polygon spaces: chambers, volumes, cohomology.

Given an n-vector of positive rational side lengths r, this package
identifies the chamber of r in the wall arrangement ε_I(r) = 0, computes the
chamber's Duistermaat-Heckman volume polynomial exactly, and derives Betti
numbers and a presentation of the cohomology ring of the polygon space M(r),
cross-validated by an independent wall-crossing recursion.
"""

from polygonspace.apolar import (
    ApolarPresentation,
    BaseNotInSet,
    CohomologyClass,
    DegreeOutOfRange,
    EmptyChamber,
    annihilator_generators,
    betti_numbers,
    catalecticant_rank,
    is_zero_class,
    normal_bundle_chern,
    pd_bases_agree,
    pd_class,
    poincare_pairing,
    presentation,
)
from polygonspace.chambers import (
    BudgetExceeded,
    ChamberGraph,
    ChamberNode,
    ChamberSignature,
    DegenerateWall,
    IndexSet,
    LengthVector,
    NonGenericSegment,
    NotAFacet,
    SingularLength,
    Wall,
    adjacent_representative,
    canonical_form,
    enumerate_chambers,
    epsilon,
    external_representative,
    nudge_within_chamber,
    representative,
    segment_crossings,
    signature,
)
from polygonspace.ratpoly import (
    MultiIndex,
    MultiPoly,
    format_rational,
    parse_rational,
)
from polygonspace.volume import (
    AffineIndexUsed,
    Convention,
    NotAdjacent,
    VolumePolynomial,
    WrongTotalDegree,
    intersection_number,
    presented_volume,
    volume_polynomial,
    wall_jump,
)
from polygonspace.wallcross import (
    BadPartition,
    ChamberValidation,
    DecompositionClass,
    WallCrossingReport,
    betti_delta,
    betti_via_path,
    crossing_report,
    validate_chamber,
)

__version__ = "0.1.0"
