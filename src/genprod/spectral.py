"""Eigenvalue multiplicities and how restriction to an invariant subspace
bounds them.

In a basis adapted to an invariant subspace H the matrix is block triangular
with the restricted matrix as one diagonal block, so each multiplicity of an
eigenvalue of A exceeds its multiplicity in the restriction by at most the
codimension of H.  When the eigenvalue's modulus beats every norm ratio on H
it cannot come from the restricted block at all, and the codimension alone
bounds its multiplicities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import (
    L1,
    Subspace,
    VectorNorm,
    as_matrix,
    complementary_pair,
    mean_zero_subspace,
    partial_norm,
    restrict,
)
from .stochastic import validate_stochastic

CLUSTER_REL_TOL = 1e-6
RANK_REL_TOL = 1e-9
# How far |lambda| must beat the norm ratio on H before the bound is decided.
MARGIN_TOL = 1e-9


class MultiplicityAmbiguityError(ValueError):
    """Eigenvalues straddle the cluster boundary; carries the offending gap."""

    def __init__(self, message, boundary_distances):
        super().__init__(message)
        self.boundary_distances = boundary_distances


@dataclass(frozen=True)
class MultiplicityReport:
    """Algebraic and geometric multiplicities of one eigenvalue candidate.

    Algebraic counts computed eigenvalues within ``cluster_tol`` of lambda;
    geometric is the nullity of (A - lambda I) at ``rank_tol``.  Both
    tolerances are recorded as resolved absolute values.
    """

    eigenvalue: complex
    algebraic: int
    geometric: int
    cluster_tol: float
    rank_tol: float

    def __post_init__(self):
        if self.algebraic >= 1 and not 1 <= self.geometric <= self.algebraic:
            raise ValueError(
                f"invalid multiplicities: geometric {self.geometric}, "
                f"algebraic {self.algebraic}")


def multiplicities(A, lam: complex,
                   cluster_tol: float | None = None) -> MultiplicityReport:
    """Count the eigenvalue cluster at lam and the nullity of (A - lam I).

    ``cluster_tol`` defaults to 1e-6 times the spectral norm of A; values are
    absolute after resolution; the nullity is decided at ``RANK_REL_TOL``
    relative.  Raises MultiplicityAmbiguityError when some computed
    eigenvalue lies between one and ten cluster tolerances from lam, i.e.
    the cluster is not cleanly separated at this tolerance.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if n == 0:
        return MultiplicityReport(lam, 0, 0, 0.0, 0.0)
    sv = np.linalg.svd(A, compute_uv=False)
    scale = float(sv[0]) if sv[0] > 0 else 1.0
    ctol = cluster_tol if cluster_tol is not None else CLUSTER_REL_TOL * scale
    eig = np.linalg.eigvals(A)
    dist = np.abs(eig - lam)
    inside = dist <= ctol
    straddle = (~inside) & (dist <= 10.0 * ctol)
    if np.any(straddle):
        raise MultiplicityAmbiguityError(
            f"eigenvalues at distances {np.sort(dist[straddle])[:3]} from "
            f"{lam} straddle the cluster tolerance {ctol:.3e}",
            boundary_distances=tuple(np.sort(dist[straddle]).tolist()))
    algebraic = int(np.sum(inside))
    s = np.linalg.svd(A - lam * np.eye(n), compute_uv=False)
    cutoff = RANK_REL_TOL * (s[0] if s[0] > 0 else 1.0)
    if algebraic >= 1:
        # Rank decisions must be at least as coarse as the clustering
        # decision: an eigenvalue within ctol of lam pushes a singular value
        # of (A - lam I) below ctol.
        cutoff = max(cutoff, ctol)
    geometric = int(np.sum(s <= cutoff))
    return MultiplicityReport(complex(lam), algebraic, geometric,
                              float(ctol), float(cutoff))


def eigenvalue_one_semisimple(A) -> bool:
    """Is every generalized eigenvector at eigenvalue 1 an eigenvector?

    Exactly when the fixed space of A and the range of (I - A) meet only at
    0, which :func:`complementary_pair` decides from its SVD of (I - A).
    """
    return complementary_pair(A).complementary


@dataclass(frozen=True)
class BoundCheck:
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class MultiplicityBoundReport:
    """Both restriction bounds for one (matrix, subspace, eigenvalue) triple."""

    eigenvalue: complex
    subspace_dim: int
    codimension: int
    full: MultiplicityReport
    restricted: MultiplicityReport
    algebraic_bound: BoundCheck
    geometric_bound: BoundCheck

    @property
    def all_hold(self) -> bool:
        return self.algebraic_bound.holds and self.geometric_bound.holds


def check_multiplicity_bounds(A, H: Subspace,
                              lam: complex) -> MultiplicityBoundReport:
    """Multiplicities of lam in A may exceed those in A restricted to H by at
    most the codimension of H; computes both sides of both inequalities.

    Both counts share one absolute cluster tolerance, resolved against the
    full matrix's scale: the restriction may be numerically degenerate (for
    example the zero block), and a tolerance relative to its own scale would
    then collapse below roundoff.
    """
    A = as_matrix(A)
    n = A.shape[0]
    R = restrict(A, H)
    full = multiplicities(A, lam)
    if H.dim == 0:
        sub = MultiplicityReport(complex(lam), 0, 0, 0.0, 0.0)
    else:
        sub = multiplicities(R, lam, full.cluster_tol)
    codim = n - H.dim
    return MultiplicityBoundReport(
        eigenvalue=complex(lam), subspace_dim=H.dim, codimension=codim,
        full=full, restricted=sub,
        algebraic_bound=BoundCheck(full.algebraic, sub.algebraic + codim),
        geometric_bound=BoundCheck(full.geometric, sub.geometric + codim))


class HighModulusViolation(RuntimeError):
    """Numerics contradicted a guaranteed bound; tolerances need attention."""


@dataclass(frozen=True)
class HighModulusReport:
    eigenvalue: complex
    modulus: float
    subspace_norm: float
    margin: float
    margin_tol: float
    codimension: int
    algebraic: int
    geometric: int
    decided: bool

    @property
    def holds(self) -> bool:
        return self.decided and self.algebraic <= self.codimension \
            and self.geometric <= self.codimension


def high_modulus_bound(A, H: Subspace, norm: VectorNorm, lam: complex, *,
                       samples: int = 4096, seed: int = 0) -> HighModulusReport:
    """Multiplicity bound for eigenvalues beating the norm ratio on H.

    Requires |lam| to exceed the largest norm amplification over H by more
    than ``MARGIN_TOL`` (otherwise the report is undecided).  Under that
    margin the multiplicities of lam cannot exceed the codimension of H; a
    numerical contradiction raises HighModulusViolation with the diagnostics,
    since it indicates ill-chosen tolerances rather than mathematics.
    """
    A = as_matrix(A)
    n = A.shape[0]
    res = partial_norm(A, H, norm, samples=samples, seed=seed)
    modulus = abs(lam)
    margin = modulus - res.value
    codim = n - H.dim
    if margin <= MARGIN_TOL:
        return HighModulusReport(complex(lam), modulus, res.value, margin,
                                 MARGIN_TOL, codim, -1, -1, decided=False)
    rep = multiplicities(A, lam)
    out = HighModulusReport(complex(lam), modulus, res.value, margin,
                            MARGIN_TOL, codim, rep.algebraic, rep.geometric,
                            decided=True)
    if not out.holds:
        raise HighModulusViolation(
            f"eigenvalue {lam} with modulus {modulus:.6g} > subspace norm "
            f"{res.value:.6g} (margin {margin:.3e}) shows multiplicities "
            f"alg={rep.algebraic}, geo={rep.geometric} above the codimension "
            f"{codim}; check cluster/rank tolerances")
    return out


@dataclass(frozen=True)
class SimpleOneReport:
    coefficient: float
    algebraic_one: int
    subdominant_modulus: float
    tolerance: float
    passed: bool


def stochastic_simple_one(A, norm: VectorNorm = L1, *, tol: float = 1e-8,
                          samples: int = 4096, seed: int = 0) -> SimpleOneReport:
    """Strictly contracting stochastic matrices have a simple eigenvalue 1.

    Requires the coefficient of ergodicity (for the given norm) to be below
    1; then verifies that 1 is an algebraically simple eigenvalue and that
    every other eigenvalue's modulus is at most the coefficient (plus
    tolerance).
    """
    A = validate_stochastic(A)
    H = mean_zero_subspace(A.shape[0])
    # Validation already states that H is invariant (unit column sums).
    res = partial_norm(A, H, norm, samples=samples, seed=seed, check=False)
    if not res.is_exact or res.value >= 1.0:
        raise ValueError(
            f"precondition unmet: coefficient of ergodicity is "
            f"{res.value:.6g} (needs an exact value below 1)")
    rep = multiplicities(A, 1.0)
    eig = np.linalg.eigvals(A)
    others = eig[np.abs(eig - 1.0) > rep.cluster_tol]
    sub = float(np.abs(others).max()) if others.size else 0.0
    passed = rep.algebraic == 1 and sub <= res.value + tol
    return SimpleOneReport(coefficient=res.value, algebraic_one=rep.algebraic,
                           subdominant_modulus=sub, tolerance=tol,
                           passed=passed)
