"""Weak-valued momentum transfer in twin-slit which-way measurements.

The package computes, for any which-way measurement scheme acting on a
twin-slit state, the directly observable weak-valued momentum-transfer
distribution and its companion characterizations (visibility, classical
kicks, Wigner kernels, characteristic function, moments, support
diagnostics), and validates them against a Monte Carlo simulation of the
weak-measurement / post-selection protocol.  hbar = 1 throughout.

The API is used module by module (`from wwm.transfer import char_fn`);
`import wwm` loads no submodule.
"""

import os

# an OpenBLAS pool would spin on every other core and make reductions depend
# on the core count (a user value is kept)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
