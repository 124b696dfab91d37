"""Continued-fraction statistics of rationals and the lattice orbits they drive.

Exact digit statistics over coprime residues, the geodesic cross-section
that encodes the Gauss map, equidistribution experiments against Haar
measure, counting bounds for escape of mass, and bounded-digit censuses.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .arith import (
    Modulus,
    coprime_array,
    count_coprime_upto,
    dual_residue,
    euler_phi,
    factorize,
    omega,
)
from .cfe import (
    CfeWord,
    ConvergentList,
    DigitHistogram,
    ReducedFraction,
    cfe_digits,
    cfe_len,
    convergents,
    from_digits,
    gauss_map,
    word_frequency,
)
from .crosssec import (
    CrossingRecord,
    CrossSectionPoint,
    DegenerateStartError,
    NumericEvent,
    SectionDomainError,
    crossing_sequence,
    detect_crossings_numeric,
    detect_events_numeric,
    first_crossing,
    kappa_quadrature,
    mean_return_time,
    return_map,
    return_time,
    sample_section,
)
from .gaussmeasure import (
    LN2,
    Interval,
    cylinder_interval,
    digit_probability,
    gauss_cdf,
    gauss_density,
    measure_interval,
)
from .lattice import (
    LatticeError,
    SymmetryError,
    haar_fd_sample,
    orbit_samples,
    verify_symmetry,
)
from .stats import (
    LEN_RATE,
    EmpiricalMeasure,
    FdHistogram,
    MassEscapeBoundError,
    MassEscapeReport,
    SweepSummary,
    averaged_height_tail,
    digit_one_frequency,
    dispersion,
    fd_cell_masses,
    haar_fd_histogram,
    haar_height_tail,
    ks_distance,
    len_stats,
    mass_escape_count,
    nu_bar,
    nu_pq,
    orbit_fd_histogram,
    orbit_height_tail,
    uniform_edges,
)
from .zaremba import (
    HeightBoundError,
    HeightBoundReport,
    ZarembaCensus,
    brute_force_censuses,
    enumerate_bounded,
    exponent_fit,
    height_bound_check,
    members,
)

# the public names are exactly the ones imported above
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
