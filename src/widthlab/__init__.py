"""Multifractal spectra, adaptive dyadic partitions, and approximation orders.

The import path: every module is imported eagerly, numpy included. Start-up
is the same for every subcommand, so an import that one subcommand skipped
would only move into another one's call. What no call needs stays out: no
code is generated at import (records are `NamedTuple`s or plain classes, not
dataclasses), `logging` is not imported, and the config hash uses the
built-in SHA-256, not OpenSSL's.
"""

import os as _os

__version__ = "0.1.0"

# OpenBLAS reads this when numpy loads it, so it is set before any submodule
# imports numpy. By default an idle BLAS worker busy-waits for 2^28 cycles
# (about 80 ms here) before it sleeps, burning a core while a short run does
# its Python work; with 4 it sleeps after 2^4 cycles. A value the user set
# wins, and the line does nothing when numpy was loaded before widthlab.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .cubes import Box, DyadicCube, children, neighbors, parse_cube, root, scaled_box
from .errors import (
    ParseError,
    ResourceLimitError,
    SolverError,
    ValidationError,
    WidthlabError,
)
from .measures import (
    AtomicMeasure,
    IfsMap,
    IfsMeasure,
    MeasureModel,
    ProductMeasure,
    UniformMeasure,
    ingest_points,
    lebesgue,
    load_measure,
)
from .spectrum import (
    ClosedFormSpectrum,
    DimensionEstimate,
    EmpiricalSpectrum,
    SpectrumCurve,
    beta_n,
    closed_form_spectrum,
    empirical_spectrum,
    minkowski,
    s_b_solve,
)
from .coarse import (
    CoarseProfile,
    alpha_good_cubes,
    coarse_profile,
    well_separated,
)
from .partition import (
    PartitionResult,
    PartitionRow,
    build_partition,
    entropy_slope,
    partition_row,
)
from .orders import (
    EmbeddingParams,
    OrderReport,
    case_label,
    dual_exponent,
    geometric_bounds,
    lower_order,
    upper_order,
    width_exponent,
)
from .empirical import (
    DecayResult,
    PiecewisePolynomial,
    ProbeResult,
    decay_experiment,
    lq_error,
    moment_project,
    packing_probe,
    piecewise_project,
    sobolev_seminorm,
)
from .functions import Bump, Polynomial, SinProduct, catalog, coordinate

__all__ = [name for name in dir() if not name.startswith("_")]
