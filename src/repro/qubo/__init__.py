"""QUBO / Ising problem layer.

The classical side of the split-execution system: quadratic unconstrained
binary optimization problems (paper Eq. (3)), Ising spin models (Eq. (2)),
the exact conversions between them (Eqs. (4)-(5)), random and graph
(MAX-CUT, maximum independent set) workload generators, the COO text
format, and brute-force reference solvers.
"""

from .conversions import (
    conversion_flop_count,
    ising_to_qubo,
    paper_ising_parameters,
    qubo_to_ising,
)
from .energy import (
    brute_force_ising,
    brute_force_qubo,
    exact_ground_energy,
    ground_states,
    iter_binary_states,
)
from .generators import (
    max_independent_set_qubo,
    maxcut_qubo,
    random_ising,
    random_qubo,
)
from .io import (
    dumps_ising,
    dumps_qubo,
    load_problem,
    loads_ising,
    loads_qubo,
    save_problem,
)
from .ising import IsingModel
from .qubo import Qubo

__all__ = [
    "Qubo",
    "IsingModel",
    "qubo_to_ising",
    "ising_to_qubo",
    "paper_ising_parameters",
    "conversion_flop_count",
    "iter_binary_states",
    "brute_force_qubo",
    "brute_force_ising",
    "ground_states",
    "exact_ground_energy",
    "random_qubo",
    "random_ising",
    "maxcut_qubo",
    "max_independent_set_qubo",
    "dumps_qubo",
    "loads_qubo",
    "dumps_ising",
    "loads_ising",
    "save_problem",
    "load_problem",
]
