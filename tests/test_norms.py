import dataclasses
import itertools

import numpy as np
import pytest

from genprod.norms import (
    INVARIANCE_TOL,
    AdditiveNorm,
    DecompositionError,
    InvarianceError,
    L1,
    L2,
    LINF,
    PartialNormResult,
    RankAmbiguityError,
    Subspace,
    VectorNorm,
    WeightedL1,
    _probe_coords,
    _ratios,
    additive_norm,
    as_matrix,
    check_invariance,
    check_norm_axioms,
    column_pair_distances,
    complementary_pair,
    fixed_point_space,
    is_mean_zero_subspace,
    max_column_distance,
    mean_zero_subspace,
    numerical_rank,
    operator_norm,
    operator_norms,
    partial_norm,
    range_complement,
    restrict,
    vector_norm,
)
from genprod.contraction import random_semisimple_nonexpansive
from genprod.stochastic import ergodicity_coefficient_l1, random_stochastic

from conftest import block_triangular_similarity, random_orthogonal


# ---------------------------------------------------------------------------
# Vector norms
# ---------------------------------------------------------------------------

def test_vector_norm_values():
    assert vector_norm([1, -2, 3], L1) == 6.0
    assert vector_norm([3, 4], L2) == 5.0
    assert vector_norm([0, 0, 0], LINF) == 0.0


def test_vector_norm_complex_modulus():
    assert vector_norm([3 + 4j], L1) == pytest.approx(5.0)
    assert vector_norm([1j, 1], L2) == pytest.approx(np.sqrt(2))


def test_weighted_l1_rejects_bad_weights():
    with pytest.raises(ValueError):
        WeightedL1(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        WeightedL1(np.array([1.0, -2.0]))


@pytest.mark.parametrize("norm,n", [(L1, 4), (L2, 4), (LINF, 4),
                                    (WeightedL1(np.array([1.0, 2.0, 0.5])), 3)])
def test_norm_axioms_sampled(norm, n):
    rep = check_norm_axioms(norm, n, samples=300, seed=1)
    assert rep.homogeneity < 1e-12
    assert rep.triangle < 1e-12
    assert rep.definiteness_ok


def test_norm_axioms_complex():
    rep = check_norm_axioms(L2, 3, samples=200, seed=2, complex_field=True)
    assert rep.homogeneity < 1e-12 and rep.triangle < 1e-12


def test_additive_norm_axioms():
    H = Subspace.span([1, -1, 0])
    K = Subspace.span([1, 1, 0], [0, 0, 1])
    nu = additive_norm(L2, H, K)
    rep = check_norm_axioms(nu, 3, samples=300, seed=3)
    assert rep.homogeneity < 1e-10
    assert rep.triangle < 1e-10
    assert rep.definiteness_ok


def test_batch_agrees_with_scalar():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 40))
    H = Subspace.span([1, 1, 0, 0, 0], [0, 0, 1, 1, 1])
    K = H.orthogonal_complement()
    for norm in (L1, L2, LINF, WeightedL1(np.arange(1.0, 6.0)),
                 additive_norm(L1, H, K)):
        np.testing.assert_allclose(
            norm.batch(X), [norm(X[:, j]) for j in range(X.shape[1])],
            rtol=1e-13, atol=1e-13)


def test_l2_squares_directly_where_safe():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 500)) * 10.0 ** rng.uniform(-100, 100, 500)
    plain = np.sqrt((np.abs(X) ** 2).sum(axis=0))
    np.testing.assert_array_equal(L2.batch(X), plain)
    assert [L2(X[:, j]) for j in range(5)] == plain[:5].tolist()


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
def test_l2_vector_norm_scales(c):
    x = np.array([3.0, -4.0, 0.0])
    assert vector_norm(c * x, L2) == pytest.approx(5.0 * c, rel=1e-15)
    np.testing.assert_allclose(L2.batch(c * np.stack([x, 2 * x], axis=1)),
                               [5.0 * c, 10.0 * c], rtol=1e-15)


def test_l2_of_huge_entries_rescales_without_overflowing():
    # squaring 1e200 overflows; the batch must rescale before it squares
    x = 1e200 * np.ones(3)
    with np.errstate(over="raise"):
        assert vector_norm(x, L2) == pytest.approx(np.sqrt(3.0) * 1e200, rel=1e-15)
        X = np.stack([x, np.array([3.0, 4.0, 0.0]), 1e-200 * np.ones(3)], axis=1)
        np.testing.assert_allclose(
            L2.batch(X), [np.sqrt(3.0) * 1e200, 5.0, np.sqrt(3.0) * 1e-200],
            rtol=1e-15)


class _BatchOnly(VectorNorm):
    def dimension(self):
        return 3

    def batch(self, X):
        return np.abs(X).sum(axis=0)


class _ScalarOnly(VectorNorm):
    def __call__(self, x):
        return float(np.abs(np.asarray(x)).max())


class _Neither(VectorNorm):
    pass


def test_a_norm_defining_only_batch_gets_a_checked_scalar_call():
    assert _BatchOnly()([1.0, -2.0, 3.0]) == 6.0
    assert vector_norm([3j, 4.0, 0.0], _BatchOnly()) == 7.0
    H, K = Subspace.span([1, 0, 0]), Subspace.span([0, 1, 0], [0, 0, 1])
    for norm in (_BatchOnly(), WeightedL1(np.ones(3)), additive_norm(L1, H, K)):
        with pytest.raises(ValueError, match="length 2, expected 3"):
            norm([1.0, 2.0])


def test_a_norm_defining_only_the_scalar_call_gets_batch():
    X = np.array([[1.0, -5.0], [-2.0, 3.0]])
    np.testing.assert_array_equal(_ScalarOnly().batch(X), [2.0, 5.0])


def test_a_norm_defining_neither_raises_not_implemented():
    with pytest.raises(NotImplementedError):
        _Neither()([1.0])
    with pytest.raises(NotImplementedError):
        _Neither().batch(np.eye(2))


def test_additive_norm_built_directly_validates_itself():
    assert [f.name for f in dataclasses.fields(AdditiveNorm)] == ["base", "H", "K"]
    rng = np.random.default_rng(21)
    H = Subspace.span([1, -1, 0])
    K = Subspace.span([1, 1, 0], [0, 0, 1])
    X = rng.standard_normal((3, 30))
    X = np.hstack([X, X + 1j * rng.standard_normal((3, 30))])
    for base in (L1, L2, LINF):
        direct, built = AdditiveNorm(base, H, K), additive_norm(base, H, K)
        np.testing.assert_array_equal(direct.batch(X), built.batch(X))
        assert [direct(x) for x in X.T] == [built(x) for x in X.T]
    line = Subspace.span([1, 1])
    with pytest.raises(DecompositionError, match="overlap"):
        AdditiveNorm(L1, line, line)
    with pytest.raises(DecompositionError, match="does not span"):
        AdditiveNorm(L1, H, H)
    with pytest.raises(DecompositionError, match="different ambient"):
        AdditiveNorm(L1, line, K)


def test_vector_norms_scale_exactly_by_powers_of_two_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
               k=st.integers(-830, 830), cplx=st.booleans())
    def prop(seed, n, k, cplx):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        if cplx:
            x = x + 1j * rng.standard_normal(n)
        d = int(rng.integers(1, n))
        H = Subspace.from_spanning(rng.standard_normal((n, d)))
        K = Subspace.from_spanning(rng.standard_normal((n, n - d)))
        norms = [L1, L2, LINF, WeightedL1(rng.uniform(0.1, 10.0, n))]
        norms += [additive_norm(base, H, K) for base in (L1, L2, LINF)]
        for norm in norms:
            assert norm(2.0 ** k * x) == 2.0 ** k * norm(x), (norm.name, k)

    prop()


# ---------------------------------------------------------------------------
# Operator norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("norm", [L1, L2, LINF, "weighted"],
                         ids=["l1", "l2", "linf", "weighted_l1"])
@pytest.mark.parametrize("cplx", [False, True])
def test_stacked_operator_norms_equal_single_calls(norm, cplx):
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        nrm = WeightedL1(rng.uniform(0.2, 3.0, n)) if norm == "weighted" else norm
        for m in (1, 2, 7, 70):
            S = rng.standard_normal((m, n, n))
            if cplx:
                S = S + 1j * rng.standard_normal((m, n, n))
            S = S * 10.0 ** rng.choice([-250, -3, 0, 3, 250], size=(m, 1, 1))
            S[0] = 0.0
            single = [operator_norm(A, nrm) for A in S]
            assert operator_norms(S, nrm).tolist() == single, (n, m)


def test_stacked_norms_without_closed_form_call_operator_norm_per_matrix():
    H = Subspace.span([1, 1, 0], [0, 0, 1])
    nu = additive_norm(LINF, H, H.orthogonal_complement())
    S = np.random.default_rng(5).standard_normal((3, 3, 3))
    assert operator_norms(S, nu).tolist() == [operator_norm(A, nu) for A in S]
    assert operator_norms(np.zeros((4, 0, 0)), L2).tolist() == [0.0] * 4


@pytest.mark.parametrize("norm", [L1, L2, LINF, "weighted", "additive"])
def test_stacked_operator_norms_are_inf_for_a_non_finite_matrix(norm):
    if norm == "weighted":
        norm = WeightedL1([0.5, 1.0, 2.0])
    elif norm == "additive":
        H = Subspace.span([1, 1, 0], [0, 0, 1])
        norm = additive_norm(LINF, H, H.orthogonal_complement())
    S = np.random.default_rng(6).standard_normal((6, 3, 3))
    S[1, 0, 2], S[3, 2, 1], S[4, 1, 1] = np.nan, np.inf, -np.inf
    got = operator_norms(S, norm)
    assert got[[1, 3, 4]].tolist() == [np.inf] * 3
    assert got[[0, 2, 5]].tolist() == [operator_norm(S[i], norm) for i in (0, 2, 5)]


def test_stacked_column_pair_distances_equal_single_calls():
    rng = np.random.default_rng(22)
    for n in range(2, 9):
        S = rng.standard_normal((70, n, n)) * 10.0 ** rng.choice([-250, 0, 250],
                                                                  size=(70, 1, 1))
        S[0] = 0.0
        D = column_pair_distances(S)
        assert D.shape == (70, n * (n - 1) // 2)
        assert D.max(axis=1).tolist() == [max_column_distance(A)[0] for A in S]
        # pair order: np.triu_indices(n, 1)
        j, l = np.triu_indices(n, 1)
        np.testing.assert_allclose(D[1], np.abs(S[1][:, j] - S[1][:, l]).sum(axis=0),
                                   rtol=1e-15, atol=0)


def test_operator_norm_l1_closed_forms():
    assert operator_norm(np.eye(3), L1) == 1.0
    assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]]), L1) == 2.0


def test_operator_norm_linf_row_sums():
    A = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert operator_norm(A, LINF) == 3.0


@pytest.mark.parametrize("seed", range(6))
def test_operator_norm_l2_matches_svd_oracle(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4))
    if seed % 2:
        A = A + 1j * rng.standard_normal((4, 4))
    top = np.linalg.svd(A, compute_uv=False)[0]
    assert operator_norm(A, L2) == pytest.approx(top, abs=1e-8)


def test_operator_norm_l2_exact_at_extreme_scales():
    # the Gram matrix of the unscaled matrix underflows to 0 and overflows
    # to inf at these scales
    assert operator_norm(1e-200 * np.eye(2), L2) == 1e-200
    assert operator_norm(1e160 * np.eye(2), L2) == 1e160
    assert operator_norm(1e-160 * np.eye(2), L2) == 1e-160


@pytest.mark.parametrize("c", [1e-250, -1e-120, 1e-30, 3.0, -1e30, 1e120, 1e250])
def test_operator_norm_l2_scales_with_the_matrix(c):
    rng = np.random.default_rng(14)
    for cplx in (False, True):
        A = rng.standard_normal((5, 5))
        if cplx:
            A = A + 1j * rng.standard_normal((5, 5))
        base = operator_norm(A, L2)
        assert operator_norm(c * A, L2) == pytest.approx(abs(c) * base,
                                                         rel=1e-13, abs=0)


def test_operator_norm_weighted_l1_vs_brute_force():
    rng = np.random.default_rng(4)
    w = np.array([0.5, 1.5, 2.0])
    norm = WeightedL1(w)
    A = rng.standard_normal((3, 3))
    value = operator_norm(A, norm)
    X = rng.standard_normal((3, 20000))
    ratios = norm.batch(A @ X) / norm.batch(X)
    assert ratios.max() <= value + 1e-12
    # extreme points are scaled coordinate vectors, so the bound is attained
    attained = max(norm(A @ e) / norm(e) for e in np.eye(3))
    assert attained == pytest.approx(value, rel=1e-14)


def test_operator_norm_consistency_sampled():
    rng = np.random.default_rng(5)
    for norm in (L1, L2, LINF):
        A = rng.standard_normal((5, 5))
        v = operator_norm(A, norm)
        X = rng.standard_normal((5, 500))
        assert np.all(norm.batch(A @ X) <= v * norm.batch(X) * (1 + 1e-12))


# ---------------------------------------------------------------------------
# Matrix validation
# ---------------------------------------------------------------------------

def _as_matrix_reference(a, name="matrix"):
    """as_matrix as written with np.issubdtype and np.all, the reference."""
    A = np.asarray(a)
    if not np.issubdtype(A.dtype, np.inexact):
        A = A.astype(float)
    elif A.dtype == np.float32:
        A = A.astype(np.float64)
    elif A.dtype == np.complex64:
        A = A.astype(np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


_AS_MATRIX_INPUTS = [
    np.eye(2, dtype=bool), np.arange(4, dtype=np.int8).reshape(2, 2),
    np.arange(4).reshape(2, 2), np.arange(4, dtype=np.uint16).reshape(2, 2),
    *(np.eye(3, dtype=t) for t in (np.float16, np.float32, np.float64,
                                   np.longdouble, np.complex64, np.complex128,
                                   np.clongdouble)),
    np.array([[1, 2.5], [3, 4]], dtype=object),
    np.array([[1.0, None], [0.0, 1.0]], dtype=object),
    np.array([["1", "0.5"], ["0", "1e3"]]), np.array([["1", "x"], ["0", "1"]]),
    [[1, 2], [3, 4]], [[1 + 2j, 0], [0, 1]], 3.0,
    np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)), np.zeros((0, 0)), np.zeros((0, 3)),
    np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([[np.nan]], dtype=np.float32),
    np.array([[1.0, 0.0], [0.0, complex(0.0, -np.inf)]]),
    np.array([[1, 0], [0, np.inf]], dtype=np.float16),
]


@pytest.mark.parametrize("a", _AS_MATRIX_INPUTS, ids=lambda a: repr(np.asarray(a).dtype))
def test_as_matrix_matches_its_reference(a):
    outcomes = []
    for f in (as_matrix, _as_matrix_reference):
        try:
            out = f(a, name="factor 3")
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((out.dtype, out.shape, out is a, out.tolist()))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

def test_subspace_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))


def _bases_at_the_orthonormality_thresholds():
    """Bases whose Gram matrix sits just inside and just outside the
    off-diagonal (1e-7) and diagonal (1e-7 + 1e-5) tolerances."""
    atol = 100 * INVARIANCE_TOL
    for t in (atol, -atol):
        for x in (np.nextafter(t, 0), t, np.nextafter(t, 2 * t), 0.99 * t, 1.01 * t):
            for dtype, step in ((float, x), (complex, 1j * x)):
                B = np.eye(3, 2, dtype=dtype)
                B[0, 1] = step
                yield B
    for t in (atol + 1e-5, -(atol + 1e-5)):
        for k in range(-3, 4):
            B = np.eye(3, 2)
            B[0, 0] = np.sqrt(1.0 + t * (1 + k * 1e-9))
            yield B
    for bad in (np.nan, np.inf, -np.inf):
        B = np.eye(3, 2)
        B[1, 1] = bad
        yield B
    yield np.eye(3, 2, dtype=np.float32) + np.float32(2e-7) * np.ones((3, 2), np.float32)
    yield np.zeros((3, 0))


def test_subspace_accepts_exactly_the_bases_allclose_accepts():
    answers = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for B in _bases_at_the_orthonormality_thresholds():
            want = np.allclose(B.conj().T @ B, np.eye(B.shape[1]),
                               atol=100 * INVARIANCE_TOL)
            try:
                Subspace(B)
                got = True
            except ValueError:
                got = False
            assert got == want, B
            answers.add(got)
    assert answers == {True, False}


def test_span_drops_dependent_vectors():
    S = Subspace.span([1, 0, 0], [2, 0, 0], [0, 1, 0])
    assert S.dim == 2


def test_zero_and_full():
    assert Subspace.zero(3).dim == 0
    assert Subspace.full(3).dim == 3
    assert Subspace.full(3).contains([1, 2, 3])


def test_contains_is_scale_free():
    line = Subspace.span([1.0, 0.0])
    plane = mean_zero_subspace(3)
    for S, x, inside in ((line, [2.0, 0.0], True), (line, [0.0, 1.0], False),
                         (line, [1.0, 1e-6], False), (plane, [1.0, -3.0, 2.0], True),
                         (plane, [1.0, 1.0, 1.0], False)):
        answers = {S.contains(c * np.asarray(x)) for c in 10.0 ** np.arange(-250, 251, 10)}
        assert answers == {inside}, x
    assert not line.contains([0.0, 1e-10])
    assert line.contains([0.0, 0.0]) and Subspace.zero(2).contains([0.0, 0.0])


def test_mean_zero_subspace_structure():
    H = mean_zero_subspace(5)
    assert H.dim == 4
    assert is_mean_zero_subspace(H)
    assert np.allclose(np.ones(5) @ H.basis, 0.0, atol=1e-12)
    assert not is_mean_zero_subspace(Subspace.span([1, 0, 0, 0, 0]))


def test_subspace_carries_only_its_basis():
    assert [f.name for f in dataclasses.fields(Subspace)] == ["basis"]


def test_orthogonal_complement_splits_space():
    S = Subspace.span([1, 2, 3], [0, 1, 0])
    C = S.orthogonal_complement()
    assert S.dim + C.dim == 3
    assert np.allclose(S.basis.T @ C.basis, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Invariance and restriction
# ---------------------------------------------------------------------------

def test_invariance_identity():
    H = Subspace.span([1, 2], [0, 1])
    ok, residual = check_invariance(np.eye(2), H)
    assert ok and residual == pytest.approx(0.0, abs=1e-14)


def test_invariance_direct_image():
    A = np.array([[1.0, 0.0], [1.0, 2.0]])
    assert check_invariance(A, Subspace.span([0, 1])).ok


def test_invariance_rotation_fails_with_unit_residual():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    res = check_invariance(rot, Subspace.span([1, 0]))
    assert not res.ok
    assert res.residual == pytest.approx(1.0)


def test_restrict_identity_and_direct_image():
    H = Subspace.span([0, 1])
    np.testing.assert_allclose(restrict(np.eye(2), H), np.eye(1))
    A = np.array([[1.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(restrict(A, H), [[2.0]])


def test_restrict_block_triangular_recovers_trailing_block():
    rng = np.random.default_rng(6)
    A, H, T = block_triangular_similarity(
        5, 2, rng, leading_eigs=[2.0, -1.0], trailing_eigs=[0.5, 0.3, -0.2])
    R = restrict(A, H)
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(R).real),
                               sorted([0.5, 0.3, -0.2]), atol=1e-9)


def test_restrict_raises_on_invariance_violation():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(InvarianceError):
        restrict(rot, Subspace.span([1, 0]))


@pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (10, 2)])
def test_partial_norm_scales_with_large_matrices(n, seed):
    A = random_stochastic(n, seed)
    H = mean_zero_subspace(n)
    for c in (1e8, 1e200):
        assert partial_norm(c * A, H, L1).value == pytest.approx(
            c * partial_norm(A, H, L1).value, rel=1e-12)


@pytest.mark.parametrize("c", [1e-250, 1e-100, 1e-8, 1.0, 1e8, 1e200])
def test_scaled_non_invariant_subspace_still_rejected(c):
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert not check_invariance(c * rot, Subspace.span([1, 0])).ok
    with pytest.raises(InvarianceError):
        partial_norm(c * rot, Subspace.span([1, 0]), L1)


def test_invariance_decision_is_scale_free_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
               invariant=st.booleans(), k=st.integers(-250, 250))
    def prop(seed, n, invariant, k):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, n))
        A, H, _ = block_triangular_similarity(
            n, n - d, rng, leading_eigs=rng.uniform(-2, 2, n - d),
            trailing_eigs=rng.uniform(-2, 2, d))
        if not invariant:
            # Map the first basis vector of H partly out of H.
            out = H.orthogonal_complement().basis[:, :1]
            A = A + out @ H.basis[:, :1].T
        assert check_invariance(A, H).ok == invariant
        assert check_invariance(10.0 ** k * A, H).ok == invariant

    prop()
    assert check_invariance(np.zeros((3, 3)), Subspace.span([1, 0, 0])).ok


def test_restrict_respects_products():
    rng = np.random.default_rng(7)
    A, H, _ = block_triangular_similarity(
        6, 3, rng, leading_eigs=[1.0, 2.0, 3.0], trailing_eigs=[0.1, 0.2, 0.3])
    B = H.basis @ rng.standard_normal((3, 3)) @ H.basis.T \
        + H.orthogonal_complement().basis @ rng.standard_normal((3, 3)) \
        @ H.orthogonal_complement().basis.T
    np.testing.assert_allclose(restrict(A @ B, H),
                               restrict(A, H) @ restrict(B, H), atol=1e-9)


# ---------------------------------------------------------------------------
# Fixed space and moving space
# ---------------------------------------------------------------------------

def test_fixed_point_space_identity_and_zero():
    assert fixed_point_space(np.eye(3)).dim == 3
    assert range_complement(np.eye(3)).dim == 0
    assert fixed_point_space(np.zeros((3, 3))).dim == 0
    assert range_complement(np.zeros((3, 3))).dim == 3


def test_fixed_point_space_stochastic_matches_eigen_oracle():
    A = np.array([[0.9, 0.2], [0.1, 0.8]])
    K = fixed_point_space(A)
    H = range_complement(A)
    assert K.dim == 1 and H.dim == 1
    # oracle: eigenvector at eigenvalue 1 spans the fixed space
    vals, vecs = np.linalg.eig(A)
    perron = vecs[:, np.argmax(vals.real)]
    assert K.contains(perron / np.linalg.norm(perron))
    assert H.contains([1.0, -1.0])


def test_complementary_pair_flags():
    A = np.array([[0.9, 0.2], [0.1, 0.8]])
    rep = complementary_pair(A)
    assert rep.complementary
    assert rep.fixed.dim + rep.moving.dim == 2
    # single 2x2 block at eigenvalue 1: fixed and moving spaces coincide
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep2 = complementary_pair(J)
    assert not rep2.complementary


def test_numerical_rank_ambiguity():
    with pytest.raises(RankAmbiguityError):
        numerical_rank(np.array([1.0, 3e-10, 5e-11]))
    assert numerical_rank(np.array([1.0, 0.5, 1e-14])) == 2
    assert numerical_rank(np.array([0.0, 0.0])) == 0


# ---------------------------------------------------------------------------
# Partial norms
# ---------------------------------------------------------------------------

def test_closed_is_an_unknown_route():
    with pytest.raises(ValueError, match="unknown route"):
        partial_norm(np.eye(3), mean_zero_subspace(3), LINF, route="closed")


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_sampled_l2_based_partial_norm_scales(c):
    A, H, K, _ = random_semisimple_nonexpansive(
        4, np.random.default_rng(3), moving_dim=2, k=0.5)
    nu = additive_norm(L2, H, K)
    ref = partial_norm(A, H, nu, route="sample").value
    assert ref == pytest.approx(0.5, abs=1e-9)
    scaled = partial_norm(c * A, H, nu, route="sample").value
    assert abs(scaled / c - ref) <= 1e-12


def test_partial_norm_identity_is_one():
    for H in (Subspace.span([1, 0, 0]), mean_zero_subspace(3)):
        for norm in (L1, L2, LINF):
            assert partial_norm(np.eye(3), H, norm).value == pytest.approx(1.0)


def test_partial_norm_rank_one_stochastic_is_zero():
    v = np.array([0.2, 0.5, 0.3])
    A = np.outer(v, np.ones(3))
    res = partial_norm(A, mean_zero_subspace(3), L1)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_partial_norm_dim1_direct_evaluation():
    A = np.array([[0.9, 0.2], [0.1, 0.8]])
    res = partial_norm(A, Subspace.span([1, -1]), L1)
    assert res.value == pytest.approx(0.7)
    assert res.method == "closed_form"
    # brute-force cross-check on the one-dimensional sphere
    brute = partial_norm(A, Subspace.span([1, -1]), L1, route="sample",
                         samples=500, seed=0)
    assert brute.value == pytest.approx(0.7, abs=1e-9)


def test_partial_norm_zero_subspace_flagged():
    res = partial_norm(np.eye(3), Subspace.zero(3), L1)
    assert res.value == 0.0 and res.zero_subspace


def test_partial_norm_requires_invariance():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(InvarianceError):
        partial_norm(rot, Subspace.span([1, 0]), L1)


def test_partial_norm_witness_achieves_value():
    rng = np.random.default_rng(8)
    for _ in range(5):
        A = rng.dirichlet(np.ones(4), size=4).T
        H = mean_zero_subspace(4)
        for route in ("auto", "sample"):
            res = partial_norm(A, H, L1, route=route, samples=800, seed=3)
            w = res.witness
            assert H.contains(w, tol=1e-8)
            assert L1(A @ w) / L1(w) >= res.value - 1e-9


def test_partial_norm_closed_form_vs_sampler_small_matrices():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        A = rng.dirichlet(np.ones(n), size=n).T
        H = mean_zero_subspace(n)
        closed = partial_norm(A, H, L1)
        sampled = partial_norm(A, H, L1, route="sample", samples=4000, seed=5)
        assert closed.method == "closed_form"
        assert sampled.method == "optimized"
        assert sampled.value == pytest.approx(closed.value, abs=1e-6)


def test_max_column_distance_first_pair_in_order():
    assert max_column_distance(np.eye(3)) == (2.0, (0, 1))
    # pairs (0, 2) and (1, 2) both reach 2; (0, 1) reaches 1
    A = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
    assert max_column_distance(A) == (2.0, (0, 2))


def test_mean_zero_l1_route_equals_coefficient_exactly():
    rng = np.random.default_rng(12)
    for n in range(3, 13):
        H = mean_zero_subspace(n)
        for _ in range(3):
            A = random_stochastic(n, rng)
            res = partial_norm(A, H, L1)
            assert res.strategy == "mean_zero_extreme_pairs"
            assert res.value == ergodicity_coefficient_l1(A)


def test_partial_norm_l2_route_matches_restricted_svd():
    rng = np.random.default_rng(10)
    A, H, T = block_triangular_similarity(
        5, 2, rng, leading_eigs=[1.5, -1.2], trailing_eigs=[0.4, 0.1, -0.3])
    res = partial_norm(A, H, L2)
    oracle = np.linalg.svd(A @ H.basis, compute_uv=False)[0]
    assert res.value == pytest.approx(oracle, abs=1e-10)


def test_partial_at_most_full_norm():
    rng = np.random.default_rng(11)
    for trial in range(10):
        A, H, _ = block_triangular_similarity(
            5, 2, rng,
            leading_eigs=rng.uniform(-2, 2, size=2),
            trailing_eigs=rng.uniform(-1, 1, size=3))
        for norm in (L1, L2, LINF):
            pn = partial_norm(A, H, norm, samples=500, seed=trial)
            assert pn.value <= operator_norm(A, norm) + 1e-8


def test_partial_norm_submultiplicative_on_common_subspace():
    rng = np.random.default_rng(12)
    for trial in range(8):
        Q = random_orthogonal(5, rng)
        H = Subspace(Q[:, 2:])

        def make():
            T = np.tril(rng.standard_normal((5, 5)))
            return Q @ T @ Q.T

        A, B = make(), make()
        for norm in (L1, L2):
            pa = partial_norm(A, H, norm, samples=400, seed=trial).value
            pb = partial_norm(B, H, norm, samples=400, seed=trial).value
            pab = partial_norm(A @ B, H, norm, samples=400, seed=trial).value
            assert pab <= pa * pb * (1 + 1e-10) + 1e-12


def test_partial_norm_complex_matrix():
    rng = np.random.default_rng(13)
    D = np.diag([1.0, 0.5j, 0.25])
    H = Subspace(np.eye(3, dtype=complex)[:, 1:])
    res = partial_norm(D, H, L2)
    assert res.value == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 13))
def test_probe_pair_differences_in_lexicographic_order(n):
    # projected differences e_j - e_l, j < l, follow the coordinate and
    # projection blocks; the mean-zero hyperplane drops none of them
    H = mean_zero_subspace(n)
    A = random_stochastic(n, np.random.default_rng(n))
    C = _probe_coords(A, H, np.random.default_rng(0), 0)
    Bh = H.basis.conj().T
    ref = np.column_stack([Bh[:, j] - Bh[:, l]
                           for j in range(n) for l in range(j + 1, n)])
    d = n - 1
    assert np.array_equal(C[:, d + n:d + n + ref.shape[1]], ref)


class _CountingL1(VectorNorm):
    name = "counting_l1"

    def __init__(self):
        self.scalar = self.batches = 0

    def __call__(self, x):
        self.scalar += 1
        return L1(x)

    def batch(self, X):
        self.batches += 1
        return L1.batch(X)


def test_sampling_route_scores_in_batches():
    norm = _CountingL1()
    A = random_stochastic(6, np.random.default_rng(15))
    res = partial_norm(A, mean_zero_subspace(6), norm, samples=200, seed=1)
    assert res.method == "optimized"
    assert norm.scalar <= 1  # the witness normalization
    assert norm.batches > 0
    assert res.value <= ergodicity_coefficient_l1(A) * (1 + 1e-12)


def _serial_ratios(A, H, norm, C):
    """norm(A x) / norm(x) for the columns x of H.basis @ C, scored in one
    piece: the sampling route's scoring before the refinement was stacked."""
    X = H.basis @ C
    nx = norm.batch(X)
    ok = nx > 1e-300
    ratios = np.zeros(C.shape[1])
    ratios[ok] = norm.batch(A @ X[:, ok]) / nx[ok]
    return ratios


def _serial_refine(A, H, norm, c0):
    """Pattern search from one start, one sweep after another: the oracle
    for the lockstep refinement of the sampling route."""
    c = c0 / np.linalg.norm(c0)
    best = float(_serial_ratios(A, H, norm, c[:, None])[0])
    units = np.eye(c.shape[0])
    units = np.hstack([units, -units, 1j * units, -1j * units]
                      if np.iscomplexobj(c) else [units, -units])
    step = 0.5
    while step > 1e-7:
        cand = c[:, None] + step * units
        cand /= np.linalg.norm(cand, axis=0)
        vals = _serial_ratios(A, H, norm, cand)
        k = int(np.argmax(vals))
        if vals[k] > best * (1 + 1e-14) + 1e-300:
            c, best = cand[:, k], float(vals[k])
        else:
            step *= 0.5
    return c, best


def _serial_sampled_partial_norm(A, H, norm, samples, seed):
    """(value, witness) of the sampling route with its three starts refined
    one after another."""
    A = as_matrix(A)
    C = _probe_coords(A, H, np.random.default_rng(seed), samples)
    ratios = _serial_ratios(A, H, norm, C)
    order = np.argsort(ratios)[::-1]
    best_c, best = C[:, order[0]], float(ratios[order[0]])
    for idx in order[:3]:
        c_ref, val = _serial_refine(A, H, norm, C[:, idx])
        if val > best:
            best, best_c = val, c_ref
    w = H.basis @ best_c
    return best, w / norm(w)


class _SumPlusMax(VectorNorm):
    """A custom norm with no closed form that defines only ``batch``."""

    def batch(self, X):
        a = np.abs(X)
        return a.sum(axis=0) + 2.0 * a.max(axis=0)


def _invariant_case(rng, n, d, cplx):
    """A random n x n matrix and an invariant subspace of dimension d."""
    Q = random_orthogonal(n, rng, complex_field=cplx)
    T = rng.standard_normal((n, n))
    if cplx:
        T = T + 1j * rng.standard_normal((n, n))
    T[:n - d, n - d:] = 0.0
    return Q @ T @ Q.conj().T, Subspace(Q[:, n - d:])


def _random_additive(base):
    def build(rng, n):
        P = Subspace.from_spanning(
            rng.standard_normal((n, int(rng.integers(1, n)))))
        return additive_norm(base(rng, n), P, P.orthogonal_complement())
    return build


def _random_weights(rng, n):
    return WeightedL1(rng.uniform(0.5, 2.0, n))


SAMPLED_NORMS = {
    "l1": lambda rng, n: L1,
    "linf": lambda rng, n: LINF,
    "weighted_l1": _random_weights,
    "l2": lambda rng, n: L2,
    "additive_l1": _random_additive(lambda rng, n: L1),
    "additive_weighted_l1": _random_additive(_random_weights),
    "batch_only": lambda rng, n: _SumPlusMax(),
}

# Real sizes at which a one-thread BLAS product's last bit depends on the
# width of its right factor (block width 4 mod 8), so scoring several
# starts' moves as one wide product would move the result.
WIDE_CASES = [(20, 10), (28, 14), (36, 18)]


@pytest.mark.parametrize("kind", sorted(SAMPLED_NORMS))
def test_lockstep_refinement_equals_serial_refinement(kind):
    # per norm: 40 random cases (real and complex, n = 2..12, dim H 1..n-1)
    # and the three real WIDE_CASES, each at eight seeds
    sizes = [(2 + i % 11, None, i % 2 == 1) for i in range(40)] + \
        [(n, d, False) for n, d in WIDE_CASES for _ in range(8)]
    for i, (n, d, cplx) in enumerate(sizes):
        rng = np.random.default_rng([i, sorted(SAMPLED_NORMS).index(kind)])
        A, H = _invariant_case(rng, n, d or int(rng.integers(1, n)), cplx)
        norm = SAMPLED_NORMS[kind](rng, n)
        value, witness = _serial_sampled_partial_norm(A, H, norm, 24, i)
        res = partial_norm(A, H, norm, route="sample", samples=24, seed=i)
        assert res.value == value, (kind, i)
        assert res.witness.tobytes() == witness.tobytes(), (kind, i)


@pytest.mark.parametrize("kind", sorted(SAMPLED_NORMS))
def test_stacked_scoring_equals_scoring_each_block_alone(kind):
    # three blocks of unit moves per case, as one lockstep sweep stacks them;
    # with a vanishing column, each block's nonzero columns are scored apart
    for i, (n, d) in enumerate(WIDE_CASES + [(7, 3), (12, 5)]):
        for cplx, vanish in itertools.product((False, True), repeat=2):
            rng = np.random.default_rng([i, int(cplx), 7])
            A, H = _invariant_case(rng, n, d, cplx)
            norm = SAMPLED_NORMS[kind](rng, n)
            C = rng.standard_normal((3, d, 4 * d if cplx else 2 * d))
            C = C + 1j * rng.standard_normal(C.shape) if cplx else C
            C /= np.linalg.norm(C, axis=1, keepdims=True)
            C[1, :, 0] *= 0.0 if vanish else 1.0
            alone = np.array([_serial_ratios(A, H, norm, B) for B in C])
            assert _ratios(A, H, norm, C).tobytes() == alone.tobytes(), \
                (kind, n, d, cplx, vanish)


def test_lockstep_refinement_makes_fewer_batch_calls_than_serial():
    A = random_stochastic(8, np.random.default_rng(15))
    H = mean_zero_subspace(8)
    serial, lockstep = _CountingL1(), _CountingL1()
    value, witness = _serial_sampled_partial_norm(A, H, serial, 256, 1)
    res = partial_norm(A, H, lockstep, samples=256, seed=1)
    assert res.value == value and res.witness.tobytes() == witness.tobytes()
    assert lockstep.batches < serial.batches


def _mean_zero_linf_exact(A):
    """Largest linf ratio over the vertices of the mean-zero slice of the cube.

    A vertex has n - 1 coordinates at +-1; the last one balances the sum and
    must lie in [-1, 1].
    """
    n = A.shape[0]
    best = 0.0
    for i in range(n):
        for signs in itertools.product((1.0, -1.0), repeat=n - 1):
            x = np.insert(np.array(signs), i, -sum(signs))
            if abs(x[i]) <= 1.0:
                best = max(best, LINF(A @ x) / LINF(x))
    return best


def test_sampled_linf_never_exceeds_vertex_enumeration():
    rng = np.random.default_rng(16)
    for trial in range(60):
        n = 4 + trial % 7
        A = random_stochastic(n, rng)
        res = partial_norm(A, mean_zero_subspace(n), LINF, samples=256, seed=trial)
        assert res.value <= _mean_zero_linf_exact(A) * (1 + 1e-10)
        w = res.witness
        assert LINF(A @ w) / LINF(w) == pytest.approx(res.value, rel=1e-10)


def test_sampled_l2_on_complex_subspace_meets_closed_form():
    rng = np.random.default_rng(17)
    Q = random_orthogonal(5, rng, complex_field=True)
    T = np.zeros((5, 5), dtype=complex)
    T[:3, :3] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T[3:, 3:] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = Q @ T @ Q.conj().T
    H = Subspace(Q[:, :3])
    closed = partial_norm(A, H, L2)
    sampled = partial_norm(A, H, L2, route="sample", samples=500, seed=2)
    assert closed.strategy == "gram_spectral" and sampled.method == "optimized"
    assert sampled.value <= closed.value * (1 + 1e-12)
    assert sampled.value == pytest.approx(closed.value, abs=1e-6)
