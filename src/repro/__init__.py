"""repro — reproduction of *Performance Models for Split-execution Computing Systems*.

This library rebuilds, end to end, the system analyzed by Humble et al.
(IPPS 2016, arXiv:1607.01084): an asymmetric multi-processor node that pairs
a conventional CPU with a D-Wave-style quantum processing unit, the
ASPEN-language performance models that describe it, and every substrate those
models depend on.

Subpackages
-----------
``repro.qubo``
    QUBO/Ising problems, exact conversions (paper Eqs. 4-5), random and
    graph workload generators, the COO problem format, brute-force
    reference solvers.
``repro.hardware``
    Chimera connectivity graphs (Fig. 3), fault models, control precision,
    DW2 timing constants.
``repro.embedding``
    Minor embedding: the Cai-Macready-Roy heuristic, deterministic clique
    embeddings, verification, parameter setting, and chain decoding.
``repro.annealer``
    Simulated quantum annealer (heat-bath sampler), exact solver, the
    energy-sorted sample set, anneal schedules, and the timed device facade.
``repro.aspen``
    A from-scratch implementation of the ASPEN performance-modeling language
    subset used by the paper (Figs. 5-8), with bundled model files.
``repro.runtime``
    Discrete-event simulation of the split-execution sequence (Fig. 2) and
    of the three integration architectures (Fig. 1).
``repro.core``
    The paper's contribution: analytical stage models, the Eq.-6 repetition
    planner, the end-to-end pipeline model, scaling/crossover studies,
    calibration, and report generation (Fig. 9).
``repro.backends``
    The ``PerformanceBackend`` protocol and registry unifying the three
    model realizations (closed forms, ASPEN listings, DES runtime).
``repro.studies``
    Declarative scenario studies: spec grids (with a ``backend`` axis),
    the sharded deterministic executor, columnar results artifacts, the
    content-addressed shard cache, and report generation.
"""

from __future__ import annotations

__version__ = "1.0.0"

from .qubo import IsingModel, Qubo  # noqa: F401  (convenience re-exports)

__all__ = ["Qubo", "IsingModel", "__version__"]
