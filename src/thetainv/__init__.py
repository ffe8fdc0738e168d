"""Exact theta-series invariants of integral lattices.

Lattices are stored through twice their Gram matrix; all series coefficients
are arbitrary-precision rationals and every identity check is an exact
equality.
"""

from .catalog import CatalogEntry, get_lattice, lattice_by_name, parse_lattice_file
from .errors import (
    LatticeFileError,
    NoRationalEmbeddingError,
    NotHomogeneousError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    OddDiagonalError,
    RankMismatchError,
    ResourceLimitError,
    ThetaInvError,
    UnsupportedWeightError,
)
from .harmonic import (
    Poly,
    binomial_delta,
    binomial_telescope,
    diff_pairing,
    harmonic_dimension,
    harmonic_project,
    laplacian,
    pair_poly,
    projector_coeffs,
    radial_eigenvalue,
    radial_norm_scale,
    radius_squared,
    spherical_integral,
)
from .lattice import (
    IntegralLattice,
    ShellTable,
    change_basis,
    enumerate_shells,
    random_unimodular,
    validate_lattice,
)
from .qseries import QSeries, delta_series, eisenstein, sigma
from .theta import (
    InvariantRequest,
    compute,
    invariant_metadata,
    pair_scale,
    pair_term,
    spherical_theta,
    theta_general,
    theta_pair,
    theta_series,
    theta_triple,
    triple_form,
)

__version__ = "0.1.0"
