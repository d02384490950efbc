"""Contraction analysis for matrix sequences.

Norm machinery on invariant subspaces, contraction-type classification of
single matrices, convergence monitoring for products drawn from infinite
matrix sequences, weak ergodicity of column-stochastic chains, and
multiplicity bounds for eigenvalues of restricted matrices.
"""

from .contraction import (
    ContractionVerdict,
    EquivalenceAuditReport,
    Verdict,
    check_H_contractor,
    check_l_paracontracting,
    check_paracontracting,
    equiv_theorem_audit,
    is_nonexpansive,
    lp_gamma,
    probe_strict_monotonicity,
    random_semisimple_nonexpansive,
)
from .norms import (
    AdditiveNorm,
    DecompositionError,
    InvarianceError,
    InvarianceResult,
    L1,
    L2,
    LINF,
    PNorm,
    PartialNormResult,
    RankAmbiguityError,
    Subspace,
    VectorNorm,
    WeightedL1,
    additive_norm,
    check_invariance,
    check_norm_axioms,
    complementary_pair,
    fixed_point_space,
    mean_zero_subspace,
    operator_norm,
    operator_norms,
    partial_norm,
    range_complement,
    restrict,
    vector_norm,
)
from .products import (
    ConvergenceTrace,
    MatrixSequence,
    Ordering,
    Permutation,
    ProductSchedule,
    ProductStep,
    SequenceExhaustedError,
    bound_from_condition_C,
    monitor_convergence,
    restrict_stream,
    stream_general_product,
)
from .series import (
    ConditionVerdict,
    SeriesDiagnostics,
    TailModel,
    check_condition_C,
    check_condition_D,
    mu_minus,
    mu_plus,
    partial_sum_diagnostics,
)
from .spectral import (
    HighModulusViolation,
    MultiplicityAmbiguityError,
    MultiplicityReport,
    check_multiplicity_bounds,
    eigenvalue_one_semisimple,
    high_modulus_bound,
    multiplicities,
    stochastic_simple_one,
)
from .stochastic import (
    StochasticityError,
    accumulation_corollary_check,
    ergodicity_coefficient_l1,
    general_coefficient,
    is_stochastic,
    overlap_probe,
    random_stochastic,
    repair_stochastic,
    validate_stochastic,
    weak_ergodicity_experiment,
    wkerg_condition_check,
)

__version__ = "0.1.0"
