import warnings

import numpy as np
import pytest

from genprod.contraction import random_semisimple_nonexpansive
from genprod.norms import L1, L2, Subspace, operator_norm
from genprod.spectral import (
    HighModulusViolation,
    MultiplicityAmbiguityError,
    check_multiplicity_bounds,
    eigenvalue_one_semisimple,
    high_modulus_bound,
    multiplicities,
    stochastic_simple_one,
)
from genprod.stochastic import ergodicity_coefficient_l1, random_stochastic

from conftest import block_triangular_similarity

RUNNING = np.array([[0.9, 0.2], [0.1, 0.8]])


# ---------------------------------------------------------------------------
# Multiplicities
# ---------------------------------------------------------------------------

def test_identity_full_multiplicity():
    rep = multiplicities(np.eye(3), 1.0)
    assert rep.algebraic == 3 and rep.geometric == 3


def test_jordan_block_defective():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = multiplicities(J, 1.0)
    assert rep.algebraic == 2 and rep.geometric == 1


def test_running_example_simple_eigenvalues():
    rep = multiplicities(RUNNING, 1.0)
    assert rep.algebraic == 1 and rep.geometric == 1
    rep2 = multiplicities(RUNNING, 0.7)
    assert rep2.algebraic == 1 and rep2.geometric == 1


def test_off_spectrum_eigenvalue():
    rep = multiplicities(np.diag([1.0, 2.0]), 5.0)
    assert rep.algebraic == 0 and rep.geometric == 0


def test_geometric_never_exceeds_algebraic():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        lam = complex(np.linalg.eigvals(A)[0])
        rep = multiplicities(A, lam)
        assert rep.algebraic >= 1
        assert 1 <= rep.geometric <= rep.algebraic


def test_cluster_ambiguity_detected():
    A = np.diag([1.0, 1.0 + 3e-6, 2.0])
    with pytest.raises(MultiplicityAmbiguityError):
        multiplicities(A, 1.0, cluster_tol=1e-6)


def test_semisimple_rank_test():
    assert eigenvalue_one_semisimple(np.eye(3))
    assert eigenvalue_one_semisimple(RUNNING)
    assert not eigenvalue_one_semisimple(np.array([[1.0, 1.0], [0.0, 1.0]]))


JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("c", [1e-300, 1e-250, 1e155, 1e200, 1e300])
@pytest.mark.parametrize("M", [JORDAN, RUNNING], ids=["jordan", "running"])
def test_semisimple_under_scaling(M, c):
    # scaled away from 1, eigenvalue 1 is absent and trivially semisimple
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigenvalue_one_semisimple(c * M) is True


def test_semisimple_when_eigenvalue_one_is_simple_but_slightly_off():
    # column sums 1 + 5e-9, 1, 1: eigenvalue 1 + O(1e-9) is simple, as
    # multiplicities reports; squaring I - A would push its singular value
    # 1.9e-9 (relative) below 1e-9 and call it defective
    A = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2 + 5e-9, 0.3, 0.5]])
    rep = multiplicities(A, 1.0)
    assert rep.algebraic == rep.geometric == 1
    assert eigenvalue_one_semisimple(A) is True


def _rank_square_semisimple(A):
    """Reference decision: rank(A - I) == rank((A - I)^2) at 1e-9 relative."""
    M = A - np.eye(A.shape[0])

    def rank(B):
        s = np.linalg.svd(B, compute_uv=False)
        if s.size == 0 or s[0] == 0:
            return 0
        return int(np.sum(s > 1e-9 * s[0]))

    return rank(M) == rank(M @ M)


def _semisimplicity_cases(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 9):
        yield rng.standard_normal((n, n))
        yield random_stochastic(n, rng)
        if n == 1:
            continue
        yield random_semisimple_nonexpansive(n, rng)[0]
        # a Jordan block at eigenvalue 1, conjugated by a random similarity
        J = np.diag(rng.uniform(-0.9, 0.9, n))
        J[0, 0] = J[1, 1] = J[0, 1] = 1.0
        S = rng.standard_normal((n, n)) + n * np.eye(n)
        yield S @ J @ np.linalg.inv(S)


@pytest.mark.parametrize("seed", range(6))
def test_semisimple_agrees_with_the_rank_of_the_square(seed):
    for A in _semisimplicity_cases(seed):
        assert eigenvalue_one_semisimple(A) == _rank_square_semisimple(A)


def test_spectral_radius_below_operator_norm():
    rng = np.random.default_rng(1)
    for _ in range(30):
        A = random_stochastic(int(rng.integers(2, 6)), rng)
        rho = float(np.abs(np.linalg.eigvals(A)).max())
        for norm in (L1, L2):
            assert rho <= operator_norm(A, norm) + 1e-10


# ---------------------------------------------------------------------------
# Restriction bounds
# ---------------------------------------------------------------------------

def test_bounds_full_space_reduce_to_equality():
    rep = check_multiplicity_bounds(RUNNING, Subspace.full(2), 1.0)
    assert rep.algebraic_bound.lhs == rep.algebraic_bound.rhs == 1
    assert rep.all_hold


def test_bounds_zero_subspace_trivial():
    rep = check_multiplicity_bounds(RUNNING, Subspace.zero(2), 1.0)
    assert rep.algebraic_bound.rhs == 2
    assert rep.all_hold


def test_bounds_block_triangular_trailing_eigenvalue():
    rng = np.random.default_rng(2)
    A, H, _ = block_triangular_similarity(
        5, 2, rng, leading_eigs=[2.0, -1.5], trailing_eigs=[0.5, 0.5, -0.25])
    rep = check_multiplicity_bounds(A, H, 0.5)
    # eigenvalue lives only in the restricted block
    assert rep.full.algebraic == rep.restricted.algebraic == 2
    assert rep.algebraic_bound.rhs - rep.algebraic_bound.lhs == rep.codimension
    assert rep.all_hold


def test_bounds_randomized_suite():
    rng = np.random.default_rng(3)
    grid = np.array([-1.6, -0.9, -0.4, 0.3, 0.8, 1.4, 2.1])
    for _ in range(60):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        lead = rng.choice(grid, size=k)
        trail = rng.choice(grid, size=n - k)
        A, H, _ = block_triangular_similarity(n, k, rng, lead, trail,
                                              block_noise=0.0)
        lam = rng.choice(np.concatenate([lead, trail]))
        rep = check_multiplicity_bounds(A, H, float(lam))
        assert rep.all_hold


# ---------------------------------------------------------------------------
# High-modulus clause
# ---------------------------------------------------------------------------

def test_high_modulus_stochastic_running_example():
    from genprod.norms import mean_zero_subspace as ergodicity_subspace
    H = ergodicity_subspace(2)
    rep = high_modulus_bound(RUNNING, H, L1, 1.0)
    assert rep.decided and rep.holds
    assert rep.subspace_norm == pytest.approx(0.7)
    assert rep.codimension == 1 and rep.algebraic == 1


def test_high_modulus_undecided_without_margin():
    from genprod.norms import mean_zero_subspace as ergodicity_subspace
    H = ergodicity_subspace(2)
    rep = high_modulus_bound(RUNNING, H, L1, 0.7)
    assert not rep.decided


def test_high_modulus_off_spectrum():
    rng = np.random.default_rng(4)
    A, H, _ = block_triangular_similarity(
        4, 2, rng, leading_eigs=[1.2, -1.1], trailing_eigs=[0.2, -0.3])
    rep = high_modulus_bound(A, H, L2, 5.0 + 1.0j)
    assert rep.decided and rep.holds and rep.algebraic == 0


def test_high_modulus_scaled_identity():
    # any invariant subspace of c*I has ratio c; eigenvalues beyond c do not
    # exist, so the bound holds with a zero count
    H = Subspace.span([1, 0, 0], [0, 1, 0])
    rep = high_modulus_bound(0.5 * np.eye(3), H, L2, 2.0)
    assert rep.decided and rep.holds and rep.algebraic == 0


def test_high_modulus_randomized():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n))
        lead = rng.uniform(1.5, 3.0, size=k) * rng.choice([-1, 1], size=k)
        trail = rng.uniform(-0.6, 0.6, size=n - k)
        A, H, _ = block_triangular_similarity(n, k, rng, lead, trail,
                                              coupling=0.2)
        lam = float(lead[0])
        rep = high_modulus_bound(A, H, L2, lam)
        if rep.decided:
            assert rep.holds


# ---------------------------------------------------------------------------
# Simple eigenvalue 1 for contracting stochastic matrices
# ---------------------------------------------------------------------------

def test_simple_one_running_example():
    rep = stochastic_simple_one(RUNNING)
    assert rep.passed
    assert rep.algebraic_one == 1
    assert rep.subdominant_modulus == pytest.approx(0.7)
    assert rep.coefficient == pytest.approx(0.7)


def test_simple_one_rank_one():
    v = np.array([0.3, 0.2, 0.5])
    A = np.outer(v, np.ones(3))
    rep = stochastic_simple_one(A)
    assert rep.passed and rep.subdominant_modulus <= 1e-12


def test_simple_one_identity_precondition_unmet():
    with pytest.raises(ValueError, match="precondition"):
        stochastic_simple_one(np.eye(3))


def test_simple_one_random_contracting():
    rng = np.random.default_rng(6)
    count = 0
    while count < 25:
        A = random_stochastic(int(rng.integers(2, 7)), rng)
        if ergodicity_coefficient_l1(A) >= 1 - 1e-3:
            continue
        rep = stochastic_simple_one(A, tol=1e-8)
        assert rep.passed
        count += 1
