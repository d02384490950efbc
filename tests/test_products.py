import itertools
import math
from collections import Counter

import numpy as np
import pytest

from genprod.norms import InvarianceError, L1, L2, Subspace, mean_zero_subspace
from genprod.products import (
    MatrixSequence,
    Ordering,
    Permutation,
    ProductSchedule,
    bound_from_condition_C,
    monitor_convergence,
    restrict_stream,
    stream_general_product,
)
from genprod.series import TailModel
from genprod.stochastic import weak_ergodicity_experiment

from conftest import block_triangular_similarity


def _stamp_matrices(indices, n=2, seed=0):
    """Distinct random matrices keyed by original index, as a rule sequence."""
    rng = np.random.default_rng(seed)
    mats = {i: rng.standard_normal((n, n)) for i in indices}

    def rule(i):
        if i not in mats:
            mats[i] = np.eye(n)
        return mats[i]

    return MatrixSequence(n=n, rule=rule, name="stamps"), mats


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

def test_identity_permutation():
    p = Permutation()
    assert [p.index_at(i) for i in range(1, 6)] == [1, 2, 3, 4, 5]


def test_prefix_permutation_enumerates_complement():
    p = Permutation("prefix", prefix=(9, 1, 7, 5, 2, 14))
    head = [p.index_at(i) for i in range(1, 7)]
    assert head == [9, 1, 7, 5, 2, 14]
    tail = [p.index_at(i) for i in range(7, 13)]
    assert tail == [3, 4, 6, 8, 10, 11]
    # bijection on a long window
    window = [p.index_at(i) for i in range(1, 200)]
    assert len(set(window)) == len(window)


def test_prefix_permutation_rejects_duplicates():
    with pytest.raises(ValueError):
        Permutation("prefix", prefix=(1, 1))


def test_prefix_permutation_matches_brute_force_complement():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(0, 8))
        prefix = tuple(int(v) for v in rng.choice(np.arange(1, 30), m, replace=False))
        p = Permutation("prefix", prefix=prefix)
        rest = [i for i in range(1, 80) if i not in prefix]
        expected = list(prefix) + rest[:40]
        assert [p.index_at(q) for q in range(1, m + 41)] == expected


def test_block_shuffle_is_bounded_displacement_bijection():
    for seed in range(5):
        p = Permutation("block_shuffle", block=6, seed=seed)
        window = [p.index_at(i) for i in range(1, 121)]
        assert sorted(window) == list(range(1, 121))
        assert all(abs(window[i - 1] - i) < 6 for i in range(1, 121))


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------

def test_identity_factors_give_identity_products():
    seq = MatrixSequence.constant(np.eye(3))
    for ordering in (Ordering("left"), Ordering("right"),
                     Ordering("random", seed=1)):
        sched = ProductSchedule(p=2, ordering=ordering)
        for step in stream_general_product(seq, sched, 6):
            np.testing.assert_array_equal(step.matrix, np.eye(3))


def test_factor_multiset_invariant_across_policies():
    seq, _ = _stamp_matrices(range(1, 40))
    for ordering in (Ordering("left"), Ordering("right"),
                     Ordering("random", seed=5)):
        for p in (0, 2, 5):
            sched = ProductSchedule(
                p=p, permutation=Permutation("block_shuffle", block=4, seed=2),
                ordering=ordering)
            for step in stream_general_product(seq, sched, 12):
                assert step.factor_positions() == frozenset(
                    range(p + 1, p + step.r + 1))
                assert len(step.order) == step.r


def test_example_schedule_with_explicit_orders():
    # permutation placing indices 7, 5, 2, 14 at positions 3..6 with offset 2;
    # step orders chosen so the running factor sets stay nested while the
    # internal order moves freely
    seq, mats = _stamp_matrices([9, 1, 7, 5, 2, 14])
    sched = ProductSchedule(
        p=2,
        permutation=Permutation("prefix", prefix=(9, 1, 7, 5, 2, 14)),
        ordering=Ordering("explicit", orders=(
            (3,), (3, 4), (4, 5, 3), (5, 3, 6, 4))))
    steps = list(stream_general_product(seq, sched, 4))
    A = mats
    np.testing.assert_allclose(steps[0].matrix, A[7])
    np.testing.assert_allclose(steps[1].matrix, A[7] @ A[5])
    np.testing.assert_allclose(steps[2].matrix, A[5] @ A[2] @ A[7])
    np.testing.assert_allclose(steps[3].matrix, A[2] @ A[7] @ A[14] @ A[5])
    assert steps[2].order == (5, 2, 7)
    assert [set(s.order) for s in steps] == [
        {7}, {7, 5}, {7, 5, 2}, {7, 5, 2, 14}]


def test_explicit_orders_must_cover_positions():
    seq, _ = _stamp_matrices(range(1, 10))
    sched = ProductSchedule(p=0, ordering=Ordering("explicit", orders=((2,),)))
    with pytest.raises(ValueError):
        list(stream_general_product(seq, sched, 1))


def test_explicit_orders_shorter_than_max_r():
    seq, _ = _stamp_matrices(range(1, 10))
    sched = ProductSchedule(p=0, ordering=Ordering("explicit", orders=((1,),)))
    with pytest.raises(ValueError):
        list(stream_general_product(seq, sched, 2))


def test_explicit_list_exhaustion():
    seq = MatrixSequence.from_list([np.eye(2)] * 3)
    sched = ProductSchedule()
    with pytest.raises(IndexError):
        list(stream_general_product(seq, sched, 4))


def test_from_list_rejects_mixed_dimensions_when_built():
    with pytest.raises(ValueError, match="dimension"):
        MatrixSequence.from_list([np.eye(2), np.eye(3)])


def test_commuting_diagonal_factors_are_order_independent():
    rng = np.random.default_rng(3)
    seq = MatrixSequence(n=3, rule=lambda i: np.diag(rng.uniform(0.5, 1.5, 3))
                         if False else np.diag([1.0 / i, 0.5, 2.0 / (i + 1)]),
                         name="diag")
    results = {}
    for kind in ("left", "right", "random"):
        sched = ProductSchedule(p=1, ordering=Ordering(kind, seed=4))
        results[kind] = [s.matrix for s in stream_general_product(seq, sched, 8)]
    for r in range(8):
        np.testing.assert_allclose(results["left"][r], results["right"][r],
                                   atol=1e-14)
        np.testing.assert_allclose(results["left"][r], results["random"][r],
                                   atol=1e-14)


def _schedule(ordering, permutation, p=2, max_r=8):
    """A schedule for every ordering kind x permutation kind pair."""
    perms = {"identity": Permutation(),
             "prefix": Permutation("prefix", prefix=(6, 1, 9)),
             "block_shuffle": Permutation("block_shuffle", block=3, seed=2)}
    if ordering == "explicit":
        rng = np.random.default_rng(7)
        order = Ordering("explicit", orders=tuple(
            tuple(p + 1 + int(i) for i in rng.permutation(r))
            for r in range(1, max_r + 1)))
    else:
        order = Ordering(ordering, seed=3)
    return ProductSchedule(p=p, permutation=perms[permutation], ordering=order)


every_schedule = pytest.mark.parametrize("ordering,permutation", list(
    itertools.product(("left", "right", "random", "explicit"),
                      ("identity", "prefix", "block_shuffle"))))


@every_schedule
def test_step_factor_is_the_entering_factor(ordering, permutation):
    seq, _ = _stamp_matrices(range(1, 20))
    sched = _schedule(ordering, permutation)
    for step in stream_general_product(seq, sched, 8):
        idx = sched.permutation.index_at(sched.p + step.r)
        np.testing.assert_array_equal(step.factor, seq.factor(idx))
        if ordering in ("left", "right"):
            assert isinstance(step.positions, range)


@every_schedule
def test_monitors_evaluate_each_factor_once(ordering, permutation):
    calls = Counter()

    def rule(i):
        calls[i] += 1
        a = 0.1 + 0.05 * (i % 3)
        return np.array([[1.0 - a, 0.2], [a, 0.8]])

    seq = MatrixSequence(n=2, rule=rule, name="counting")
    sched = _schedule(ordering, permutation)
    expected = Counter(sched.permutation.index_at(sched.p + r)
                       for r in range(1, 9))
    monitor_convergence(seq, sched, L1, None, 8)
    assert calls == expected
    calls.clear()
    weak_ergodicity_experiment(seq, [sched], 1e-12, 8)
    assert calls == expected


def test_malformed_explicit_order_raises_before_fetching_its_factor():
    fetched = []

    def rule(i):
        fetched.append(i)
        return np.eye(2)

    seq = MatrixSequence(n=2, rule=rule)
    sched = ProductSchedule(ordering=Ordering("explicit",
                                              orders=((1,), (2, 2))))
    with pytest.raises(ValueError):
        list(stream_general_product(seq, sched, 2))
    assert fetched == [1]


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

def test_bound_is_one_for_nonexpanding_factors():
    seq = MatrixSequence.constant(0.5 * np.eye(2))
    M = bound_from_condition_C(seq, L1, p=0, r_max=20)
    np.testing.assert_array_equal(M, np.ones(20))


def test_bound_converges_for_summable_excess():
    base = np.eye(2)
    seq = MatrixSequence.scaled(base, TailModel.p_series(1.0, 2.0, "above"))
    M = bound_from_condition_C(seq, L1, p=0, r_max=20000)
    limit = math.sinh(math.pi) / math.pi
    assert M[-1] == pytest.approx(limit, rel=1e-4)
    assert np.all(np.diff(M) >= 0)


def test_bound_unbounded_for_harmonic_excess():
    seq = MatrixSequence.scaled(np.eye(2), TailModel.p_series(1.0, 1.0, "above"))
    M = bound_from_condition_C(seq, L1, p=0, r_max=50)
    np.testing.assert_allclose(M, np.arange(2, 52), rtol=1e-12)


def test_monitor_halving_crosses_at_27():
    seq = MatrixSequence.constant(0.5 * np.eye(2))
    trace = monitor_convergence(seq, ProductSchedule(), L1, 1e-8, 100)
    assert trace.status.kind == "converged_below"
    assert trace.status.r == 27
    np.testing.assert_allclose(trace.mus, 0.5 ** trace.rs)


def test_monitor_identity_exhausts():
    seq = MatrixSequence.constant(np.eye(2))
    trace = monitor_convergence(seq, ProductSchedule(), L1, 1e-8, 30)
    assert trace.status.kind == "exhausted"
    assert np.all(trace.mus == 1.0)


def test_monitor_without_threshold_reports_bound():
    seq = MatrixSequence.scaled(np.eye(2), TailModel.p_series(1.0, 2.0, "above"))
    trace = monitor_convergence(seq, ProductSchedule(), L1, None, 50)
    assert trace.status.kind == "bounded_by"
    assert trace.status.bound == pytest.approx(trace.bound_M)


def test_monitor_harmonic_damping_tracks_envelope():
    # factors with norms 1 - 1/(2i): products shrink like the envelope, which
    # is the exact partial product here
    seq = MatrixSequence.scaled(np.eye(2), TailModel.p_series(0.5, 1.0, "below"))
    trace = monitor_convergence(seq, ProductSchedule(), L1, None, 200)
    np.testing.assert_allclose(trace.mus, trace.envelope, rtol=1e-12)
    analytic = np.cumprod(1.0 - 0.5 / np.arange(1, 201))
    np.testing.assert_allclose(trace.mus, analytic, rtol=1e-12)
    assert np.all(np.diff(trace.mus) < 0)


def test_envelope_holds_for_noncommuting_factors():
    rng = np.random.default_rng(14)
    mats = [rng.standard_normal((3, 3)) for _ in range(60)]
    mats = [m / np.abs(m).sum(axis=0).max() * (1 + 1 / (i + 1) ** 2)
            for i, m in enumerate(mats)]
    seq = MatrixSequence.from_list(mats)
    envelopes = []
    for kind in ("left", "right", "random"):
        sched = ProductSchedule(p=1, ordering=Ordering(kind, seed=8))
        trace = monitor_convergence(seq, sched, L1, None, 40)
        assert np.all(trace.mus <= trace.envelope + 1e-8)
        envelopes.append(trace.envelope)
    # the envelope depends only on the factor set, not the ordering policy
    for env in envelopes[1:]:
        np.testing.assert_array_equal(env, envelopes[0])


def test_trace_overflow_truncates():
    seq = MatrixSequence.constant(10.0 * np.eye(2))
    trace = monitor_convergence(seq, ProductSchedule(), L1, 1e-8, 400)
    assert trace.overflow_at is not None
    assert trace.rs[-1] == trace.overflow_at


@pytest.mark.parametrize("norm", [L1, L2])
def test_non_finite_product_or_norm_ends_trace_as_overflow(norm):
    # (1e160)^2 overflows the product to inf; under l2 the Gram route
    # already turns the first step's norm into NaN
    seq = MatrixSequence.constant(1e160 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = monitor_convergence(seq, ProductSchedule(), norm, None, 5)
    assert trace.overflow_at is not None
    assert trace.rs[-1] == trace.overflow_at


def test_trace_underflow_clamps():
    seq = MatrixSequence.constant(1e-60 * np.eye(2))
    trace = monitor_convergence(seq, ProductSchedule(), L1, None, 10)
    assert trace.clamped_from in (5, 6)  # (1e-60)^5 sits on the clamp boundary
    assert np.all(trace.mus >= 1e-300)


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------

def test_restrict_stream_stochastic_dimensions():
    rng = np.random.default_rng(15)
    mats = [rng.dirichlet(np.ones(4), size=4).T for _ in range(5)]
    seq = MatrixSequence.from_list(mats)
    H = mean_zero_subspace(4)
    rseq = restrict_stream(seq, H)
    assert rseq.n == 3
    assert rseq.factor(2).shape == (3, 3)


def test_restrict_stream_block_triangular_recovers_block():
    rng = np.random.default_rng(16)
    A, H, T = block_triangular_similarity(
        4, 2, rng, leading_eigs=[1.0, 0.8], trailing_eigs=[0.3, 0.2])
    seq = MatrixSequence.constant(A)
    rseq = restrict_stream(seq, H)
    R = rseq.factor(1)
    np.testing.assert_allclose(sorted(np.linalg.eigvals(R).real), [0.2, 0.3],
                               atol=1e-9)


def test_restrict_stream_zero_subspace():
    seq = MatrixSequence.constant(np.eye(3))
    rseq = restrict_stream(seq, Subspace.zero(3))
    assert rseq.n == 0
    assert rseq.factor(1).shape == (0, 0)


def test_restrict_stream_reports_failing_index():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    seq = MatrixSequence.from_list([np.eye(2), rot])
    rseq = restrict_stream(seq, Subspace.span([1, 0]))
    rseq.factor(1)
    with pytest.raises(InvarianceError, match="factor 2"):
        rseq.factor(2)


def test_restriction_commutes_with_products():
    rng = np.random.default_rng(17)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    H = Subspace(Q[:, 2:])

    def factor(i):
        T = np.tril(rng.standard_normal((4, 4))) * 0.5
        return Q @ T @ Q.T

    mats = [factor(i) for i in range(6)]
    seq = MatrixSequence.from_list(mats)
    rseq = restrict_stream(seq, H)
    sched = ProductSchedule(ordering=Ordering("left"))
    full_steps = list(stream_general_product(seq, sched, 6))
    restricted = [rseq.factor(i) for i in range(1, 7)]
    R = restricted[0]
    from genprod.norms import restrict
    for r in range(1, 6):
        R = R @ restricted[r]
        np.testing.assert_allclose(
            R, restrict(full_steps[r].matrix, H), atol=1e-9)
        # products on H factor through the restricted product
        x = H.basis @ rng.standard_normal(2)
        np.testing.assert_allclose(full_steps[r].matrix @ x,
                                   H.basis @ (R @ H.coords(x)), atol=1e-9)


def test_complex_sequence_streams_and_bounds():
    rng = np.random.default_rng(18)
    U = np.array([[0.6, 0.8j], [0.8, -0.6j]])  # columns with unit l1 mass
    seq = MatrixSequence.scaled(U, lambda i: 0.9, name="complex")
    trace = monitor_convergence(seq, ProductSchedule(), L1, None, 30)
    assert np.iscomplexobj(seq.factor(1))
    assert np.all(trace.mus <= trace.envelope + 1e-10)
