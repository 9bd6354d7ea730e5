"""Stable Lagrange subspaces and bundles for quadratic-regulator
Hamiltonians at finite spectral truncation.

Two construction routes (Lyapunov-Perron fixed point and ordered-Schur
oracle) for the stationary frequency-condition case, plus the
spatial-averaging pipeline with nonautonomous drivers, uniform
nonoscillation and the singular-form certificate.
"""

from .dichotomy import DichotomySplit, GridFunction, dichotomy_split
from .frequency import (
    QuadraticFormTriple,
    frequency_condition_margin,
    level_set,
    make_frequency_grid,
    resolvent_sup_norm,
    smith_form_triple,
)
from .spatial import (
    Driver,
    FiberResult,
    SAConfig,
    build_fibers,
    condition_margins,
    constant_driver,
    contraction_certificate,
    fiber_continuity,
    fiber_growth,
    gap_search,
    v_form_certificate,
)
from .spectral import SpectralModel, eigenvalue_generator, make_spectral_model
from .stationary import (
    Hamiltonian,
    NonoscillationResult,
    Regulator,
    StableLagrangeResult,
    assemble_hamiltonian,
    coercivity_check,
    estimate_eps0,
    extract_nonoscillation,
    l2_controllability,
    lyapunov_inequality_check,
    riccati_residual,
    stable_lagrange_lp,
    stable_lagrange_schur,
)
from .symplectic import (
    LagrangeSubspace,
    Subspace,
    apply_J,
    grassmann_distance,
    intersection_dimension,
    isotropy_defect,
)

__version__ = "0.1.0"
