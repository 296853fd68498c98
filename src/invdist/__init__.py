"""Invariant distances (Caratheodory, Kobayashi/Lempert, Bergman) on model
planar and several-variable domains, with verification suites for the
boundary estimates that relate them."""

from .annulus import (
    AnnulusCaratheodory,
    annulus_kobayashi_distance,
    annulus_kobayashi_metric,
    theta_product,
)
from .bergman import (
    bergman_distance,
    bergman_field,
    bergman_kernel,
    bergman_metric,
    shortest_path_length,
)
from .bounds import (
    BoundReport,
    bound_ccvx_lower,
    bound_convex_lower,
    bound_prop1_R,
    boundary_slope_regression,
    envelope_residual_pla,
    experiment_ratio_c_over_l,
    experiment_sector_ratio,
    experiment_slit_coefficient,
    fit_min_constant,
    run_suite,
    sandwich_gen,
    verify_prop5_product,
)
from .conformal import (
    AnnulusCover,
    ConformalMap,
    cayley_map,
    disc_scale_map,
    mobius_disc_automorphism,
    riemann_map,
    sector_map,
    slit_sqrt_map,
)
from .distances import (
    CertifiedValue,
    MetricField,
    annulus_caratheodory,
    caratheodory,
    chart_distances,
    cn_model_distance,
    halfplane_hyperbolic_distance,
    hull_distance,
    kobayashi_field,
    kobayashi_metric,
    lempert,
    poincare_distance,
)
from .domains import (
    Annulus,
    Ball,
    Disc,
    HalfPlane,
    JordanDomain,
    PlanarDomain,
    Polydisc,
    Sector,
    SlitPlane,
    TwoDiscHull,
    UnitDisc,
    domain_from_json,
    domain_to_json,
    ellipse_domain,
    lens_domain,
    two_disc_hull,
    wobbly_domain,
)
from .errors import (
    BranchViolation,
    DegenerateInput,
    DomainViolation,
    InsufficientSamples,
    InvalidDomain,
    InvdistError,
    NoFiniteConstant,
    NonConvergence,
    SchemaError,
    UnsupportedDomain,
)

__version__ = "0.1.0"
