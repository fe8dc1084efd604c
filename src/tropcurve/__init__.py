"""Exact combinatorics of non-singular plane tropical curves with real
structure: combinatorial patchworking, twisted edges, GF(2) twist
spaces, real intersection lifts, and hyperbolicity loci."""

from .curve import (
    ComplementComponent,
    DualSubdivision,
    PrimitiveCycle,
    TropicalCurve,
    TropicalPolynomial,
    complement_components,
    curve_from_polynomial,
    honeycomb,
    primitive_cycles,
)
from .gf2 import AffineFlat, Gf2Matrix, Gf2Subspace, Gf2Vector, PhaseLine, kernel, solve_affine
from .hyperbolic import (
    HypAlphaFlat,
    HyperbolicityReport,
    MultiBridge,
    PointVerdict,
    honeycomb_locus,
    hyp_alpha_flat,
    hyperbolic_wrt_point,
    hyperbolicity_locus,
    is_hyperbolic,
    multi_bridges,
)
from .intersect import (
    IntersectionComponent,
    LiftOutcome,
    bezout_total,
    intersection_components,
    is_relatively_twisted,
    real_lift,
    tangency_possible,
    transverse_multiplicity,
)
from .io_render import Scenario, ScenarioSpec, build_scenario, load_spec, render_svg, save_spec
from .realstruct import (
    ComponentReport,
    RealPart,
    RealPhaseStructure,
    SignDistribution,
    TwistSet,
    adm_space,
    count_components_direct,
    count_components_matrix,
    div_space,
    is_admissible,
    is_dividing,
    phase_from_signs,
    phase_from_twists,
    real_part,
    signs_from_phase,
    twists_from_phase,
    twists_from_signs,
)

__version__ = "0.1.0"
