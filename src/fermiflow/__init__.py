"""Finite-mode fermionic mean-field dynamics.

Exact sector propagation, three Hartree-Fock formulations, the
commutator-tree expansion of Heisenberg observables, a graded observable
calculus with its state hierarchy, and a deterministic experiment driver.
"""

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS")


def _load_numpy_on_one_blas_thread():
    """Load numpy with OpenBLAS started on one thread, when this import is
    the first to load it and the caller set no thread count. Each OpenBLAS
    worker busy-waits for a while once it starts, a second core's worth
    that no run uses. The variable is removed again, so ``os.environ`` and
    child processes see no change."""
    import os
    import sys

    if "numpy" in sys.modules or any(
            name in os.environ for name in _BLAS_THREAD_VARIABLES):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_on_one_blas_thread()

from .errors import (CapacityError, ConfigError, DivergenceError,
                     FermiflowError, NumericError, RangeError, ShapeError,
                     UnsupportedError, ValidationError)
from .exact import (build_hamiltonian, evolve_exact, evolved_marginal,
                    heisenberg_evolve, heisenberg_observable, second_quantize)
from .experiments import (ExperimentConfig, ExperimentReport, SystemSpec,
                          ground_mode_projector, load_config, run)
from .fock import (FockContext, deformation_check, egorov_check,
                   grassmann_hamiltonian, quantise)
from .graded import (GradedObservable, GradedState, graded_poisson,
                     graded_product, hierarchy_evolve, state_from_density,
                     superflow_observable)
from .hf import (HFConfig, OrbitalSet, density_root, evolve_hf_density,
                 evolve_hf_orbitals, evolve_kappa, marginal_relation_check,
                 quasi_free_marginal)
from .modes import ModeSystem
from .sector import (PSectorOperator, SectorState, marginal, sector_basis,
                     slater, trace_norm)
from .tree import (QuadratureSpec, count_elementary_terms, hf_vs_tree_gap,
                   lifted_series, loop_remainder, reported_radius, tree_series)

__version__ = "0.1.0"
