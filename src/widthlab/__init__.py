"""Multifractal spectra, adaptive dyadic partitions, and approximation orders.

The import path: every module but `probe` is imported eagerly, numpy
included. Start-up is the same for every subcommand, so an import that one
subcommand skipped would only move into another one's call. What no call
needs stays out:
- `probe`, the packing probe of the lower bound, which only the `probe`
  subcommand runs: `cli` imports it in that handler, and its five public
  names below resolve on first use, through the module `__getattr__`;
- `numpy.polynomial`: the Gauss-Legendre rule computes numpy's `leggauss`
  itself (`quadrature.unit_rule_1d`);
- LAPACK least squares (`np.polyfit`, `np.linalg.lstsq`), whose first call
  costs a process about 0.5 ms: both slopes are fitted exactly in Python
  ints (`partition.fit_loglog`);
- code generation at import (records are `NamedTuple`s or plain classes,
  not dataclasses), `logging`, and OpenSSL (the config hash uses the
  built-in SHA-256);
- `argparse`, with the `gettext` and `locale` lookups of its messages: `cli`
  reads a plain command line itself and imports argparse only for help,
  usage errors and unusual spellings (`cli._direct`);
- the "utf-8-sig" codec: a byte-order mark is cut off before decoding.
`cli.main` freezes the heap it finds for the length of a run, so the run's
collections do not scan the import's objects.

Cube geometry is (level, index) integers throughout (`cubes`): a box
concentric with a cube is the block of same-level cubes around it, so the
package exports no box type.
"""

import os as _os

__version__ = "0.1.0"

# OpenBLAS reads this when numpy loads it, so it is set before any submodule
# imports numpy. By default an idle BLAS worker busy-waits for 2^28 cycles
# (about 80 ms here) before it sleeps, burning a core while a short run does
# its Python work; with 4 it sleeps after 2^4 cycles. A value the user set
# wins, and the line does nothing when numpy was loaded before widthlab.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .cubes import DyadicCube, children, neighbors, parse_cube, root
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
    beta_n,
    closed_form_spectrum,
    empirical_spectrum,
    minkowski,
    s_b_solve,
)
from .coarse import CoarseProfile, coarse_profile
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
    decay_experiment,
    lq_error,
    moment_project,
    piecewise_project,
)
from .functions import Bump, Polynomial, SinProduct, catalog, coordinate

_PROBE_NAMES = ("ProbeResult", "alpha_good_cubes", "packing_probe", "sobolev_seminorm",
                "well_separated")

__all__ = [name for name in dir() if not name.startswith("_")] + list(_PROBE_NAMES)


def __getattr__(name: str):
    if name in _PROBE_NAMES:
        from . import probe

        return getattr(probe, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
