"""Choquet integration against dyadic Hausdorff content on finite lattices.

Exact set functions, norms and operators on dyadic step functions over the
root cube [0,1)^n, plus verification suites for the inequalities that
connect them.
"""

from .content import (
    ContentResult,
    choquet_integral,
    choquet_norm,
    frostman_measure,
    hausdorff_content,
)
from .harness import VerificationReport, random_instance, run_suite
from .lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    Tiling,
    children,
    indicator,
    measure_of_cube,
    validate_tiling,
)
from .maximal import (
    MaximalResult,
    fractional_measure_maximal,
    hl_maximal,
    orlicz_fractional_maximal,
)
from .sparse import (
    CantorConfig,
    SparseFamily,
    apply_sparse,
    cantor_content,
    cantor_family,
    cantor_lux_bound,
    unboundedness_demo,
    verify_sparse,
)
from .spaces import (
    SpaceSpec,
    associate_lower_bound,
    block_norm,
    dual_witness,
    morrey_norm,
    orlicz_morrey_norm,
    pairing,
    tiling_orlicz_morrey_norm,
)
from .young import (
    ExpM1,
    Identity,
    LlogL,
    Power,
    YoungFunction,
    amemiya_functional,
    by_name,
    luxemburg_norm,
    young_equality_residual,
)

__version__ = "0.1.0"
