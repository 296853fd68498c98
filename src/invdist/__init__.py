"""Invariant distances (Caratheodory, Kobayashi/Lempert, Bergman) on model
planar and several-variable domains, with verification suites for the
boundary estimates that relate them.

The Bergman layer and the verification suites load on first access to one
of their names (see _LAZY), so that a process that only computes a
Caratheodory or Kobayashi distance does not import them.

numpy loads on first use too.  Every module reaches it as `_np` here: the
numpy module itself if it was imported before this package, else a module
that runs numpy's import on its first attribute access (importlib's
LazyLoader).  That module is entered in sys.modules as "numpy", so numpy's
own imports and any later `import numpy` get the same object; on Python 3.11
an `import numpy` statement loads it at once.  The closed-form distances
(disc, half-plane, sector; Caratheodory, Lempert and Bergman) compute in
Python floats and never load it.  Its first load takes no lock, so the first
use of numpy from several threads at once is unsupported.  Without numpy
installed, importing this package raises the ModuleNotFoundError that
`import numpy` raises.
"""

import importlib as _importlib
import importlib.util as _importlib_util
import sys as _sys


def _bind_numpy():
    """numpy if it is imported, else a module that imports it on first use."""
    module = _sys.modules.get("numpy")
    if module is not None:
        return module
    spec = _importlib_util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


_np = _bind_numpy()

from .annulus import (
    AnnulusCaratheodory,
    annulus_kobayashi_distance,
    annulus_kobayashi_metric,
    theta_product,
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

# public names of the modules that load on first access
_LAZY = {
    **dict.fromkeys(("bergman_distance", "bergman_field", "bergman_kernel", "bergman_metric",
                     "shortest_path_length"), "bergman"),
    **dict.fromkeys(("BoundReport", "bound_ccvx_lower", "bound_convex_lower", "bound_prop1_R",
                     "boundary_slope_regression", "envelope_residual_pla",
                     "experiment_ratio_c_over_l", "experiment_sector_ratio",
                     "experiment_slit_coefficient", "fit_min_constant", "run_suite",
                     "sandwich_gen", "verify_prop5_product"), "bounds"),
}


def __getattr__(name):
    if name == "__all__":   # `from invdist import *` binds the lazy names too
        return [n for n in __dir__() if not n.startswith("_")]
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
