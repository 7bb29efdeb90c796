"""latticedt: weighted (chamfer) distance transforms on point lattices.

Build masks on Z^2, Z^3, BCC, FCC or custom lattices, decompose them into
wedges for a closed-form distance, optimize integer or real weights
against the Euclidean distance, and run exact two-scan transforms with
independent oracles.
"""

from .chamfer_mask import (
    ChamferMask,
    MaskError,
    Wedge,
    WedgeDecomposition,
    build_wedges,
    convexity_report,
)
from .dt_engine import (
    DistanceMap,
    EngineError,
    GridImage,
    ScanPlan,
    Verdict,
    chamfer_two_scan,
    dijkstra_oracle,
    generate_ball,
    make_scan_plan,
    parallel_iterative_oracle,
    validate_image,
)
from .lattice import (
    Lattice,
    LatticeError,
    bcc_lattice,
    cubic_lattice,
    custom_lattice,
    fcc_lattice,
    lattice_by_name,
    signed_permutation_orbit,
    square_lattice,
)
from .presets import PRESET_NAMES, preset_geometry, preset_mask
from .weight_opt import (
    ErrorStats,
    MaskGeometry,
    RealWeightOptimum,
    WeightRow,
    max_relative_error,
    optimize_real_weights,
    pareto_front,
    search_integer_weights,
)

__version__ = "0.1.0"
