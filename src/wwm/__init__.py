"""Weak-valued momentum transfer in twin-slit which-way measurements.

The package computes, for any which-way measurement scheme acting on a
twin-slit state, the directly observable weak-valued momentum-transfer
distribution and its companion characterizations (visibility, classical
kicks, Wigner kernels, characteristic function, moments, support
diagnostics), and validates them against a Monte Carlo simulation of the
weak-measurement / post-selection protocol.  hbar = 1 throughout.
"""

import os

# wwm.parallel is the only pool: an OpenBLAS pool would spin on every other
# core and make reductions depend on the core count (a user value is kept)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    CompletenessError,
    ConfigError,
    EvaluationError,
    ExpressionError,
    GridError,
    SchemeError,
    StateError,
    WWMError,
)
from .grid import (
    ComplexField,
    GridSpec,
    forward_ft,
    inverse_ft,
    make_grid,
    momentum_field,
    position_field,
)
from .scheme import (
    Scheme,
    builtin,
    check_completeness,
    haar_unitary,
    parse_scheme,
    print_scheme,
    rebase,
    visibility,
)
from .state import (
    PostMeasurementEnsemble,
    SlitState,
    apply_wwm,
    fringe_visibility,
    gaussian_twin_slits,
    momentum_density,
    narrow_twin_slits,
)
from .transfer import (
    CharacteristicFunction,
    MixedDistribution,
    WignerFunction,
    char_fn,
    classical_transfer,
    moments,
    phi_symmetric,
    support_metric,
    verify_wigner_identity,
    wigner_kernel,
    wigner_state,
)
from .weakvalue import (
    JointWeakTable,
    conditional_cells,
    distribution_from_chi,
    marginal_from_joint,
    pwv_conditional,
    pwv_joint,
    pwv_marginal,
    pwv_narrow_sign,
    rebin_joint,
)
from .simulate import (
    MCConfig,
    MCEstimate,
    back_action,
    default_bins,
    deterministic_cells,
    run_reference,
    run_weak_experiment,
)

__version__ = "0.1.0"
