"""Seeded experiment configs, one per benchmark workload.

The program only ever sees the JSON file written here, so a workload is
fully described by its name and seed. Sizes are fixed; the seed changes
the random orbitals (``convergence``, ``conservation``) and the random
observable (``tree-truncation``). ``egorov`` uses the ground-mode
projector, so its inputs do not depend on the seed.
"""

import json
import os

DEFAULT_SEED = 1

WHY = {
    "convergence": "the paper's 1/N gap: sector table builds, marginals and "
                   "252-dim eigh; two pool threads build one shared table, "
                   "so cold differs from warm",
    "tree-truncation": "the commutator-tree sweep inside nested thread pools, "
                       "bound by the index-based lift kernel; each row "
                       "computes its series twice",
    "egorov": "the same sweep reached through the graded flow, plus Fock "
              "quantisation; sector_propagator matmuls lead on the d=8 row, "
              "the index kernel on the d=6 row",
    "conservation": "control: 3,000 small RK4 steps of the three HF "
                    "flows; no sector tables and no tree",
}

NAMES = tuple(WHY)


def config(name: str, seed: int) -> dict:
    """The experiment config of workload ``name`` at ``seed``."""
    if name == "convergence":
        # The two N=5 rows need the same cached isometry. Listed first, they
        # start together on two pool threads, so both build it in most
        # calls; later in the sweep they overlap by chance, and the cold
        # time jumps between two modes from call to call.
        sweep = [{"N": 5, "t": 0.3, "p": 1}, {"N": 5, "t": 0.3, "p": 2}]
        sweep += [{"N": n, "t": 0.3, "p": 1} for n in range(2, 5)]
        return {"experiment": "convergence", "system": {"coupling": 1.0},
                "sweep": sweep, "integrator": {"dt": 1e-3},
                "orbitals": "random", "seed": seed}
    if name == "tree-truncation":
        return {"experiment": "tree-truncation", "system": {"coupling": 1.0},
                "sweep": [{"N": 2, "t": 0.2}, {"N": 3, "t": 0.2}],
                "quadrature": {"nodes_per_level": 3, "k_max": 3},
                "seed": seed}
    if name == "egorov":
        return {"experiment": "egorov", "system": {"coupling": 1.0},
                "sweep": [{"N": 3, "t": 0.25}, {"N": 4, "t": 0.25}],
                "quadrature": {"nodes_per_level": 2, "k_max": 3},
                "seed": seed}
    if name == "conservation":
        return {"experiment": "conservation", "system": {"coupling": 1.0},
                "sweep": [{"N": 3, "t": 0.5}, {"N": 4, "t": 0.5}],
                "integrator": {"dt": 1e-3}, "orbitals": "random",
                "seed": seed}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def write_config(name: str, seed: int, directory: str) -> str:
    """Write the workload config into ``directory`` and return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config(name, seed), handle, indent=2, sort_keys=True)
    return path
