"""Finite-mode fermionic mean-field dynamics.

Exact sector propagation, three Hartree-Fock formulations, the
commutator-tree expansion of Heisenberg observables, a graded observable
calculus with its state hierarchy, and a deterministic experiment driver.
"""

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
                   loop_remainder, reported_radius, tree_series)

__version__ = "0.1.0"
