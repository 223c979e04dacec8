"""qnodes: uncertainty products and nodal structure of three exactly
solvable 1D quantum systems, with independent numerical verification.

Three computation paths answer the same questions and must agree:

- `analytic`: closed-form expectation values and uncertainties,
- `oracle`: Simpson quadrature and discrete derivatives on sampled states,
- `eigensolver`: finite-difference Hamiltonians rediscovering the
  eigenstates, energies, and node counts from scratch.
"""

__version__ = "0.1.0"

from .analytic import (
    ExpectationSet,
    UncertaintyRecord,
    box_energy,
    box_expectations,
    box_psi,
    box_uncertainties,
    oscillator_energy,
    oscillator_expectations,
    oscillator_uncertainties,
    ring_density,
    ring_energy,
    ring_lz_stats,
    ring_psi,
    ring_theta_stats,
    ring_uncertainties,
)
from .eigensolver import (
    EigenResult,
    Hamiltonian,
    build_hamiltonian,
    default_eigen_grid,
    eigen_uncertainties,
    ring_momentum_state,
    solve_lowest,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateError,
    DomainError,
    GridError,
    NormalizationError,
    QnodesError,
)
from .grids import GridSpec, SampledFunction, derivative, quad, spectral_derivative
from .model import (
    Box,
    Constants,
    Oscillator,
    Ring,
    RingSuperposition,
    Scales,
    SystemSpec,
    predicted_node_count,
    scales,
    validate_state,
)
from .nodal import NodeReport, count_nodes, density_flatness
from .oracle import (
    default_grid,
    momentum_moments,
    oracle_uncertainties,
    position_moments,
    ring_lz_by_quadrature,
    ring_theta_by_quadrature,
    sample_state,
)
from .report import (
    SweepConfig,
    SweepRow,
    corrupt_first_product,
    emit,
    run_sweep,
    verify_rows,
)
from .special import hermite, oscillator_psi
