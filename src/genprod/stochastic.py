"""Column-stochastic matrices and weak ergodicity of their general products.

Convention: *stochastic* means column stochastic (nonnegative entries, every
column summing to 1), acting on probability column vectors; users with
row-stochastic data should transpose.  The mean-zero hyperplane is invariant
under every such matrix, and the largest norm amplification there is the
*coefficient of ergodicity* of the matrix: it measures how strongly the
matrix contracts differences of probability vectors.

For the entrywise-absolute-sum norm the coefficient has a closed form over
column pairs; note that it contracts along columns precisely because the
matrices are column stochastic (the row-difference variant belongs to the
row-stochastic convention).  The closed form is pinned to the sampling
optimizer of :func:`genprod.norms.partial_norm`, which is the authoritative
cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .norms import (
    L1,
    VectorNorm,
    as_matrix,
    column_pair_distances,
    mean_zero_subspace,
    partial_norm,
)
from .products import MatrixSequence, ProductSchedule, _run_trace
from .series import (
    ConditionVerdict,
    TailModel,
    check_condition_C,
    check_condition_D,
)

STOCHASTIC_TOL = 1e-8


class StochasticityError(ValueError):
    """Input fails the column-stochastic contract; names the first bad column."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


def validate_stochastic(A, tol: float = STOCHASTIC_TOL) -> np.ndarray:
    """Check nonnegativity and unit column sums; returns the validated array."""
    A = as_matrix(A, name="stochastic matrix")
    if np.iscomplexobj(A):
        raise StochasticityError("stochastic matrices must be real")
    neg = np.nonzero(A.min(axis=0) < -tol)[0]
    if neg.size:
        j = int(neg[0])
        raise StochasticityError(
            f"column {j} has a negative entry ({A[:, j].min():.3e})", column=j)
    sums = A.sum(axis=0)
    bad = np.nonzero(np.abs(sums - 1.0) > tol)[0]
    if bad.size:
        j = int(bad[0])
        raise StochasticityError(
            f"column {j} sums to {sums[j]:.12g}, expected 1", column=j)
    return A


def is_stochastic(A) -> bool:
    try:
        validate_stochastic(A)
        return True
    except (StochasticityError, ValueError):
        return False


def repair_stochastic(A, max_adjustment: float = 1e-6) -> np.ndarray:
    """Clip tiny negatives and renormalize columns to sum to 1.

    Off by default everywhere; opt in when ingesting matrices whose column
    sums drifted through rounding.  Refuses (raises) when any column needs
    more than ``max_adjustment`` of total change, so it cannot silently fix
    genuinely malformed data.
    """
    A = as_matrix(A, name="stochastic matrix")
    if np.iscomplexobj(A):
        raise StochasticityError("stochastic matrices must be real")
    B = np.clip(A, 0.0, None)
    sums = B.sum(axis=0)
    bad = np.nonzero(sums <= 0)[0]
    if bad.size:
        raise StochasticityError(
            f"column {int(bad[0])} has no positive mass to renormalize",
            column=int(bad[0]))
    B = B / sums
    drift = np.abs(B - A).sum(axis=0)
    worst = int(np.argmax(drift))
    if drift[worst] > max_adjustment:
        raise StochasticityError(
            f"column {worst} needs adjustment {drift[worst]:.3e} beyond the "
            f"allowed {max_adjustment:.1e}", column=worst)
    return B


def random_stochastic(n: int, rng=None) -> np.ndarray:
    """Random column-stochastic matrix with uniform (Dirichlet(1)) columns."""
    rng = np.random.default_rng(rng)
    return rng.dirichlet(np.ones(n), size=n).T


def ergodicity_coefficient_l1(A, validate: bool = True) -> float:
    """Closed-form coefficient: half the largest column-pair distance.

    Equals the largest amplification of the absolute-sum norm over mean-zero
    vectors; always in [0, 1] for stochastic input, with 0 exactly for
    rank-one (all columns equal) and 1 when two columns have disjoint
    support.
    """
    A = validate_stochastic(A) if validate else as_matrix(A)
    return float(_coefficients(A[None])[0])


def _coefficients(S: np.ndarray) -> np.ndarray:
    """:func:`ergodicity_coefficient_l1` of each matrix of a stack S (m, n, n)."""
    if S.shape[1] <= 1:
        return np.zeros(S.shape[0])
    return 0.5 * column_pair_distances(S).max(axis=1)


def general_coefficient(A, norm: VectorNorm = L1, *, samples: int = 4096,
                        seed: int = 0, route: str = "auto") -> float:
    """Coefficient of ergodicity for an arbitrary norm.

    The largest amplification of ``norm`` over the mean-zero hyperplane; for
    the absolute-sum norm this matches :func:`ergodicity_coefficient_l1`.
    ``route="sample"`` forces the sampling optimizer (the independent oracle
    for the closed form).  Validation already states that every column sums
    to 1 within ``STOCHASTIC_TOL``, which is invariance of the hyperplane, so
    no second invariance check runs.
    """
    A = validate_stochastic(A)
    H = mean_zero_subspace(A.shape[0])
    res = partial_norm(A, H, norm, samples=samples, seed=seed, route=route,
                       check=False)
    return res.value


# ---------------------------------------------------------------------------
# Weak ergodicity experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScheduleErgodicityResult:
    """Coefficient trace of one streamed general product."""

    schedule: ProductSchedule
    rs: np.ndarray
    coefficients: np.ndarray
    crossed_at: int | None
    status: str  # "converged_below" or "exhausted"

    def __post_init__(self):
        self.rs.setflags(write=False)
        self.coefficients.setflags(write=False)

    @property
    def consistent_with_weak_ergodicity(self) -> bool:
        """The coefficient crossed the threshold for THIS schedule only.

        Weak ergodicity quantifies over all permutations, offsets, and
        orderings; a finite run supports the claim for the schedule it ran.
        """
        return self.status == "converged_below"


@dataclass(frozen=True)
class WeakErgodicityReport:
    threshold: float
    max_r: int
    runs: tuple[ScheduleErgodicityResult, ...]

    @property
    def all_crossed(self) -> bool:
        return all(r.crossed_at is not None for r in self.runs)


def weak_ergodicity_experiment(seq: MatrixSequence,
                               schedules: Sequence[ProductSchedule],
                               threshold: float,
                               max_r: int) -> WeakErgodicityReport:
    """Stream general products of stochastic factors and trace the coefficient.

    Each step's coefficient of ergodicity equals the absolute-sum contraction
    of the product on the mean-zero hyperplane, so crossing the threshold
    means every difference of probability vectors has shrunk below it under
    this schedule's products.  Each factor is validated stochastic as it
    enters its step.  Steps are measured in blocks, as in
    :func:`genprod.products.monitor_convergence`, so a factor past the
    crossing may be fetched but is never reported.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")

    def measure(steps):
        return _coefficients(np.stack([step.matrix for step in steps])), None

    checked = MatrixSequence(seq.n, lambda i: validate_stochastic(seq.factor(i)),
                             seq.name)
    runs = []
    for sched in schedules:
        run = _run_trace(checked, sched, max_r, measure, threshold, limits=False)
        crossed = len(run.values) if run.stop == "crossed" else None
        runs.append(ScheduleErgodicityResult(
            schedule=sched, rs=np.arange(1, len(run.values) + 1),
            coefficients=np.asarray(run.values), crossed_at=crossed,
            status="converged_below" if crossed is not None else "exhausted"))
    return WeakErgodicityReport(threshold=threshold, max_r=max_r,
                                runs=tuple(runs))


# ---------------------------------------------------------------------------
# Condition checks for coefficient families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WkergVerdict:
    verdict: ConditionVerdict
    condition_C: ConditionVerdict
    condition_D: ConditionVerdict
    notes: tuple[str, ...] = ()


def wkerg_condition_check(coeff_model_C: TailModel,
                          coeff_model_D: TailModel) -> WkergVerdict:
    """Sufficient conditions for weak ergodicity of all general products.

    ``coeff_model_C`` declares the full family of coefficient values (its
    above-1 excess series must converge); ``coeff_model_D`` declares the
    values along a chosen subsequence (its below-1 deficit series must
    diverge).  For the absolute-sum coefficient the first condition is
    automatic, since that coefficient never exceeds 1 on stochastic
    matrices.
    """
    notes = []
    c = check_condition_C(coeff_model_C)
    if c == ConditionVerdict.HOLDS and coeff_model_C.sup_value() <= 1.0:
        notes.append("above-1 excess condition automatic: declared "
                     "coefficients never exceed 1")
    d = check_condition_D(coeff_model_D)
    both = (ConditionVerdict.HOLDS
            if c == ConditionVerdict.HOLDS and d == ConditionVerdict.HOLDS
            else (ConditionVerdict.UNDECIDABLE
                  if ConditionVerdict.UNDECIDABLE in (c, d)
                  else ConditionVerdict.FAILS))
    return WkergVerdict(verdict=both, condition_C=c, condition_D=d,
                        notes=tuple(notes))


@dataclass(frozen=True)
class AccumulationReport:
    variant: str
    verdict: ConditionVerdict
    accumulation_points: tuple[float, ...] | None
    chosen_point: float | None
    subsequence_model: TailModel | None
    wkerg: WkergVerdict | None
    notes: tuple[str, ...] = ()


def accumulation_corollary_check(family: TailModel,
                                 variant: str = "single_point") -> AccumulationReport:
    """Weak ergodicity from the accumulation points of a coefficient family.

    * ``single_point``: holds when all declared values stay at most 1 and
      some accumulation point is strictly below 1;
    * ``all_points``: holds when every accumulation point is strictly
      below 1.

    When it holds, the report carries the witnessing subsequence family:
    coefficients clustering at c are eventually below (1 + c) / 2 < 1, and a
    constant family at that level makes the deficit series diverge.  The
    embedded sufficient-condition check must then also hold.
    """
    if variant not in ("single_point", "all_points"):
        raise ValueError(f"unknown variant {variant!r}")
    acc = family.accumulation_points()
    notes = []
    if acc is None:
        return AccumulationReport(variant, ConditionVerdict.UNDECIDABLE, None,
                                  None, None, None,
                                  ("accumulation structure unknown",))
    if variant == "single_point":
        if family.sup_value() > 1.0:
            return AccumulationReport(
                variant, ConditionVerdict.FAILS, acc, None, None, None,
                ("hypothesis violated: some declared coefficient exceeds 1",))
        holds = min(acc) < 1.0
        chosen = min(acc) if holds else None
    else:
        holds = max(acc) < 1.0
        chosen = max(acc) if holds else None
    if not holds:
        # A p-series family's one accumulation point, its limit, is >= 1 here.
        if family.kind == "p_series" and \
                check_condition_D(family) == ConditionVerdict.HOLDS:
            notes.append("no accumulation point below 1, but the deficit "
                         "series of the full family still diverges")
        return AccumulationReport(variant, ConditionVerdict.FAILS, acc, None,
                                  None, None, tuple(notes))
    level = (1.0 + chosen) / 2.0
    sub = TailModel.constant_value(level)
    wk = wkerg_condition_check(family, sub)
    return AccumulationReport(variant, ConditionVerdict.HOLDS, acc, chosen,
                              sub, wk, tuple(notes))


# ---------------------------------------------------------------------------
# Row-overlap probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapReport:
    """Structure probe relating row overlap to coefficient strictness.

    ``has_multi_positive_row``: some row holds two or more positive entries
    (entries above 1e-12 count as positive).
    ``scrambling``: every pair of columns shares a row where both are
    positive (this is what forces the coefficient below 1).  The probe
    reports; it asserts nothing, and the two-block counterexample shows a
    multi-positive row alone does not force coefficient < 1.
    """

    has_multi_positive_row: bool
    scrambling: bool
    coefficient: float
    contracts: bool


def overlap_probe(A) -> OverlapReport:
    A = validate_stochastic(A)
    pos = A > 1e-12
    multi = bool((pos.sum(axis=1) >= 2).any())
    n = A.shape[0]
    scram = True
    for j in range(n):
        for l in range(j + 1, n):
            if not bool(np.any(pos[:, j] & pos[:, l])):
                scram = False
                break
        if not scram:
            break
    w = ergodicity_coefficient_l1(A, validate=False)
    return OverlapReport(has_multi_positive_row=multi, scrambling=scram,
                         coefficient=w, contracts=w < 1.0)
