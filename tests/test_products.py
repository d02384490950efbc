import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from genprod import stochastic
from genprod.norms import InvarianceError, L1, L2, LINF, Subspace, WeightedL1
from genprod.norms import mean_zero_subspace, operator_norm
from genprod.products import (
    BLOCK_CAP,
    MatrixSequence,
    Ordering,
    Permutation,
    ProductSchedule,
    SequenceExhaustedError,
    bound_from_condition_C,
    monitor_convergence,
    restrict_stream,
    stream_general_product,
)
from genprod.series import TailModel
from genprod.stochastic import (
    StochasticityError,
    ergodicity_coefficient_l1,
    weak_ergodicity_experiment,
)

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


def test_block_shuffle_index_at_matches_per_position_generator():
    for seed in (0, 1, 7, 12345):
        for block in range(1, 9):
            p = Permutation("block_shuffle", block=block, seed=seed)
            for pos in range(1, 201):
                g, off = divmod(pos - 1, block)
                want = g * block + int(
                    np.random.default_rng([seed, g]).permutation(block)[off]) + 1
                assert p.index_at(pos) == want


def test_block_index_map_equals_index_at_per_position_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    perms = st.one_of(
        st.just(Permutation()),
        st.lists(st.integers(1, 40), max_size=8, unique=True).map(
            lambda head: Permutation("prefix", prefix=tuple(head))),
        st.builds(lambda block, seed: Permutation("block_shuffle", block=block,
                                                  seed=seed),
                  st.integers(1, 9), st.integers(0, 2**16)))

    @hyp.settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(perm=perms, lo=st.integers(1, 60), length=st.integers(1, 70))
    def prop(perm, lo, length):
        hi = lo + length - 1
        got = perm.indices(lo, hi)
        assert got.tolist() == [perm.index_at(q) for q in range(lo, hi + 1)]

    prop()


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


def test_periodic_rejects_mixed_dimensions_when_built():
    with pytest.raises(ValueError, match="dimension"):
        MatrixSequence.periodic([np.eye(2), np.eye(3)])


def test_constant_is_a_one_matrix_periodic_sequence():
    A = np.array([[0.5, 0.25], [0.5, 0.75]])
    const = MatrixSequence.constant(A, name="c")
    per = MatrixSequence.periodic([A], name="c")
    assert (const.n, const.name) == (per.n, per.name) == (2, "c")
    assert MatrixSequence.constant(A).name == "constant"
    for i in (1, 2, 7):
        assert const.factor(i) is A and per.factor(i) is A
    assert not A.flags.writeable  # the caller's float64 array is frozen
    B = MatrixSequence.constant([[1, 2], [3, 4]]).factor(3)
    assert B.dtype == np.float64 and not B.flags.writeable


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


@pytest.mark.parametrize("p,r_max", [(-1, 5), (0, 0)])
def test_bound_rejects_a_negative_offset_or_an_empty_range(p, r_max):
    # A negative offset would read a built family's members from its end.
    seq = MatrixSequence.periodic([2.0 * np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        bound_from_condition_C(seq, L1, p, r_max)


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


def test_envelope_past_the_float_range_is_inf_without_a_warning():
    seq = MatrixSequence.constant([[3.0, 1e3], [0.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = monitor_convergence(seq, ProductSchedule(), L1, None, 400)
        bound = bound_from_condition_C(seq, L1, 0, 400)
    assert trace.bound_M == math.inf
    assert bound[-1] == math.inf


def test_infinite_bound_over_an_underflowed_running_product_is_an_inf_envelope():
    # the running product of min(mu, 1) underflows to 0 while M_r passes the
    # float range: the vacuous bound inf, not inf * 0 = NaN
    seq = MatrixSequence.from_list([1e-200 * np.eye(2)] * 2 + [1e200 * np.eye(2)] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = monitor_convergence(seq, ProductSchedule(), L1, None, 5)
    assert trace.bound_M == math.inf
    assert trace.envelope.tolist() == [math.inf] * 5


@pytest.mark.parametrize("norm", [L1, L2])
def test_non_finite_product_or_norm_ends_trace_as_overflow(norm):
    # (1e160)^2 overflows the product to inf; under l2 the Gram route
    # already turns the first step's norm into NaN
    seq = MatrixSequence.constant(1e160 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = monitor_convergence(seq, ProductSchedule(), norm, None, 5)
    assert trace.overflow_at is not None
    assert trace.rs[-1] == trace.overflow_at


@pytest.mark.parametrize("norm", [L1, L2, LINF])
@pytest.mark.parametrize("ordering", ["left", "right", "random"])
@pytest.mark.parametrize("base", [10.0 * np.eye(2), 5.0 * np.ones((2, 2))])
def test_overflowing_trace_stops_at_300_without_a_warning(norm, ordering, base):
    # 10^300 first exceeds the limit in the last bit; for 5 * ones the entries
    # stay below it one step longer, so a block runs on past the overflow
    seq = MatrixSequence.constant(base)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        trace = monitor_convergence(seq, ProductSchedule(
            ordering=Ordering(ordering, seed=1)), norm, None, 400)
    assert trace.overflow_at == 300 and trace.rs[-1] == 300
    assert trace.status.kind == "exhausted" and trace.status.r == 300


def test_trace_crossing_before_a_short_list_ends_returns_the_crossing():
    seq = MatrixSequence.from_list([0.5 * np.eye(2)] * 10)
    trace = monitor_convergence(seq, ProductSchedule(), L1, 0.01, 50)
    assert trace.crossed_at == 7 and trace.rs.tolist() == list(range(1, 8))
    with pytest.raises(SequenceExhaustedError):
        monitor_convergence(seq, ProductSchedule(), L1, 1e-8, 50)
    stoch = MatrixSequence.from_list([np.array([[0.9, 0.2], [0.1, 0.8]])] * 10)
    run = weak_ergodicity_experiment(stoch, [ProductSchedule()], 0.1, 50).runs[0]
    assert run.crossed_at == 7
    with pytest.raises(SequenceExhaustedError):
        weak_ergodicity_experiment(stoch, [ProductSchedule()], 1e-8, 50)


@pytest.mark.parametrize("bad_at,crossed", [(12, 9), (8, None)])
def test_factor_past_the_crossing_is_never_rejected(bad_at, crossed):
    # the coefficient is 0.7^r, first below 0.05 at r = 9; the block of
    # steps 8..15 also pulls the non-stochastic factor at bad_at
    good = np.array([[0.9, 0.2], [0.1, 0.8]])
    bad = np.array([[0.9, 0.3], [0.1, 0.8]])
    seq = MatrixSequence(n=2, rule=lambda i: bad if i == bad_at else good)
    if crossed is None:
        with pytest.raises(StochasticityError):
            weak_ergodicity_experiment(seq, [ProductSchedule()], 0.05, 40)
    else:
        run = weak_ergodicity_experiment(seq, [ProductSchedule()], 0.05, 40).runs[0]
        assert run.crossed_at == crossed


@pytest.mark.parametrize("build", [MatrixSequence.periodic, MatrixSequence.from_list])
def test_built_family_member_is_checked_stochastic_as_it_enters(build):
    # as above: the coefficient first falls below 0.05 at r = 9, and the
    # block of steps 8..15 pulls factor 12 too
    good = np.array([[0.9, 0.2], [0.1, 0.8]])
    bad = np.array([[0.9, 0.3], [0.1, 0.8]])
    early = build([good] * 5 + [bad] + [good] * 20)
    with pytest.raises(StochasticityError) as exc:
        weak_ergodicity_experiment(early, [ProductSchedule()], 0.05, 20)
    assert exc.value.column == 1 and "column 1" in str(exc.value)
    late = build([good] * 11 + [bad] + [good] * 20)
    run = weak_ergodicity_experiment(late, [ProductSchedule()], 0.05, 20).runs[0]
    assert run.crossed_at == 9


@pytest.mark.parametrize("bad,message", [
    (np.array([[np.nan, 0.5], [0.5, 0.5]]), "factor 3 contains non-finite entries"),
    (np.ones((3, 3)), "factor 3 has dimension 3, expected 2")])
def test_invalid_rule_factor_is_named_before_any_stochastic_check(bad, message):
    good = np.array([[0.9, 0.2], [0.1, 0.8]])
    seq = MatrixSequence(n=2, rule=lambda i: bad if i == 3 else good)
    with pytest.raises(ValueError) as exc:
        weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-8, 10)
    assert type(exc.value) is ValueError and str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        monitor_convergence(seq, ProductSchedule(), L1, 1e-8, 10)
    assert type(exc.value) is ValueError and str(exc.value) == message


@every_schedule
def test_block_measured_traces_equal_step_by_step_values(ordering, permutation):
    rng = np.random.default_rng(30)
    stoch = [rng.dirichlet(np.ones(4), size=4).T for _ in range(6)]
    # real factors and a complex one: blocks mix dtypes
    mixed = stoch + [stoch[0] * np.exp(1j * rng.uniform(0, 6, (4, 4)))]
    sched = _schedule(ordering, permutation, max_r=90)
    for mats in (stoch, mixed):
        seq = MatrixSequence.periodic(mats)
        steps = list(stream_general_product(seq, sched, 90))
        for norm in (L1, L2, LINF, WeightedL1(np.arange(1.0, 5.0))):
            trace = monitor_convergence(seq, sched, norm, None, 90)
            assert trace.mus.tolist() == [operator_norm(s.matrix, norm) for s in steps]
            assert trace.factor_mus.tolist() == [operator_norm(s.factor, norm)
                                                 for s in steps]
    seq = MatrixSequence.periodic(stoch)
    run = weak_ergodicity_experiment(seq, [sched], 1e-300, 90).runs[0]
    # the columns of a long product can agree to the last bit: coefficient 0
    want = [ergodicity_coefficient_l1(s.matrix)
            for s in stream_general_product(seq, sched, 90)]
    stop = next((r for r, w in enumerate(want, 1) if w < 1e-300), None)
    assert run.crossed_at == stop
    assert run.coefficients.tolist() == want[:stop]


def _stopping_sequence(stop, A):
    """Identity factors except A at index ``stop``, recording each index fetched."""
    fetched = []

    def rule(i):
        fetched.append(i)
        return A if i == stop else np.eye(2)

    return MatrixSequence(n=2, rule=rule), fetched


def test_rule_runs_at_most_block_cap_minus_one_positions_past_the_stop():
    rank_one = np.array([[0.4, 0.4], [0.6, 0.6]])  # coefficient 0
    for stop in range(1, 300, 7):
        seq, fetched = _stopping_sequence(stop, 0.1 * np.eye(2))
        trace = monitor_convergence(seq, ProductSchedule(), L1, 0.5, 1000)
        assert trace.crossed_at == stop
        assert stop <= max(fetched) <= stop + BLOCK_CAP - 1
        seq, fetched = _stopping_sequence(stop, rank_one)
        run = weak_ergodicity_experiment(seq, [ProductSchedule()], 0.5, 1000).runs[0]
        assert run.crossed_at == stop
        assert stop <= max(fetched) <= stop + BLOCK_CAP - 1
    assert BLOCK_CAP == 64


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


# ---------------------------------------------------------------------------
# Block-formed products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("norm", [L1, L2])
def test_overflowing_product_returns_an_overflow_trace_without_a_warning(norm):
    # (1e160)^2 overflows in the multiplication itself
    seq = MatrixSequence.constant(1e160 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = monitor_convergence(seq, ProductSchedule(), norm, None, 5)
    assert trace.overflow_at == 2 and trace.rs.tolist() == [1, 2]
    assert trace.mus[0] == 1e160 and trace.mus[1] == math.inf


def _loop_product(mats):
    C = mats[0]
    for A in mats[1:]:
        C = C @ A
    return C


@pytest.mark.parametrize("ordering", ["random", "explicit"])
@pytest.mark.parametrize("cplx", [False, True])
def test_reordered_tree_product_matches_the_left_to_right_loop(ordering, cplx):
    # both associations are within (r - 1) n u |A_1| ... |A_r| of the exact
    # product, entrywise, so they differ by at most twice that
    eps = np.finfo(float).eps
    for n in range(1, 9):
        rng = np.random.default_rng(n)
        max_r = 200 if n in (1, 4, 8) else 60
        mats = []
        for _ in range(max_r):
            A = rng.standard_normal((n, n))
            if cplx:
                A = A + 1j * rng.standard_normal((n, n))
            mats.append(A / np.abs(A).sum(axis=0).max())
        seq = MatrixSequence.from_list(mats)
        sched = _schedule(ordering, "identity", p=0, max_r=max_r)
        for step in stream_general_product(seq, sched, max_r):
            factors = [mats[q - 1] for q in step.positions]
            scale = _loop_product([np.abs(A) for A in factors])
            diff = np.abs(step.matrix - _loop_product(factors))
            assert np.all(diff <= 4 * step.r * n * eps * scale)


@pytest.mark.parametrize("ordering", ["left", "right"])
@pytest.mark.parametrize("permutation", ["identity", "block_shuffle"])
def test_nested_stream_and_traces_equal_the_plain_loop_bit_for_bit(ordering,
                                                                   permutation):
    rng = np.random.default_rng(31)
    mats = [rng.dirichlet(np.ones(5), size=5).T for _ in range(7)]
    seq = MatrixSequence.periodic(mats)
    sched = _schedule(ordering, permutation, max_r=150)
    C, want = None, []
    for r in range(1, 151):
        A = mats[(sched.permutation.index_at(sched.p + r) - 1) % 7]
        C = A if C is None else (C @ A if ordering == "left" else A @ C)
        want.append(C)
    steps = list(stream_general_product(seq, sched, 150))
    assert all(np.array_equal(s.matrix, W) for s, W in zip(steps, want))
    for norm in (L1, L2, LINF):
        trace = monitor_convergence(seq, sched, norm, None, 150)
        assert trace.mus.tolist() == [operator_norm(W, norm) for W in want]
    run = weak_ergodicity_experiment(seq, [sched], 1e-300, 150).runs[0]
    coefficients = [ergodicity_coefficient_l1(W) for W in want]
    assert run.coefficients.tolist() == coefficients[:len(run.coefficients)]


def _parity_sequence(kind, n):
    """A periodic, list or scaled sequence of n x n factors for the parity test."""
    rng = np.random.default_rng(n)
    mats = [rng.dirichlet(np.ones(n), size=n).T for _ in range(7)]
    if kind == "periodic":
        return MatrixSequence.periodic(mats)
    if kind == "list":
        return MatrixSequence.from_list([rng.uniform(0.5, 1.5) * A
                                         for A in mats * 30])
    return MatrixSequence.scaled(mats[0], TailModel.p_series(0.5, 1.0, "below"))


@pytest.mark.parametrize("n", [2, 5, 8, 12])
@pytest.mark.parametrize("ordering", ["left", "right"])
@pytest.mark.parametrize("permutation", ["identity", "prefix", "block_shuffle"])
@pytest.mark.parametrize("kind", ["periodic", "list", "scaled"])
def test_block_fetched_steps_and_norms_equal_the_plain_loop_bit_for_bit(
        kind, permutation, ordering, n):
    seq = _parity_sequence(kind, n)
    sched = _schedule(ordering, permutation, p=1, max_r=150)
    C, want, factors = None, [], []
    for r in range(1, 151):
        A = seq.factor(sched.permutation.index_at(sched.p + r))
        C = A if C is None else (C @ A if ordering == "left" else A @ C)
        want.append(C)
        factors.append(A)
    steps = list(stream_general_product(seq, sched, 150))
    assert all(np.array_equal(s.matrix, W) for s, W in zip(steps, want))
    assert all(np.array_equal(s.factor, A) for s, A in zip(steps, factors))
    for norm in (L1, L2, LINF):
        trace = monitor_convergence(seq, sched, norm, None, 150)
        assert trace.mus.tolist() == [operator_norm(W, norm) for W in want]
        assert trace.factor_mus.tolist() == [operator_norm(A, norm) for A in factors]


@pytest.mark.parametrize("build", [MatrixSequence.periodic, MatrixSequence.from_list])
def test_member_unfrozen_and_made_non_finite_after_building_is_rejected(build):
    good = np.array([[0.9, 0.2], [0.1, 0.8]])
    member = good.copy()
    seq = build([good, good, member] + [good] * 80)
    member.setflags(write=True)
    member[0, 1] = np.nan
    for ordering in ("left", "random"):
        sched = ProductSchedule(ordering=Ordering(ordering, seed=1))
        with pytest.raises(ValueError) as exc:
            monitor_convergence(seq, sched, L1, None, 20)
        assert str(exc.value) == "factor 3 contains non-finite entries"
        with pytest.raises(ValueError) as exc:
            weak_ergodicity_experiment(seq, [sched], 1e-12, 20)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "factor 3 contains non-finite entries"
    # a crossing at step 2 comes before the member enters
    run = weak_ergodicity_experiment(seq, [ProductSchedule()], 0.5, 20).runs[0]
    assert run.crossed_at == 2


@pytest.mark.parametrize("build", [MatrixSequence.periodic, MatrixSequence.from_list])
@pytest.mark.parametrize("at", [1, 2, 4, 64, 65])
def test_non_stochastic_family_member_raises_at_its_own_step(build, at):
    # the coefficient is 0.7^r; blocks start at steps 1, 2, 4, 8, ..., 64, 128
    good = np.array([[0.9, 0.2], [0.1, 0.8]])
    bad = np.array([[0.9, 0.3], [0.1, 0.8]])
    seq = build([good] * (at - 1) + [bad] + [good] * 150)
    with pytest.raises(StochasticityError) as exc:
        weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-300, 200)
    assert exc.value.column == 1 and "column 1 sums to 1.1" in str(exc.value)
    if at > 1:
        threshold = 1.01 * 0.7 ** (at - 1)
        run = weak_ergodicity_experiment(seq, [ProductSchedule()], threshold,
                                         200).runs[0]
        assert run.crossed_at == at - 1


@pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0])
def test_monitor_rejects_a_threshold_that_is_not_positive(threshold):
    # a NaN threshold never crosses, so it would report exhausted
    with pytest.raises(ValueError, match="threshold must be positive"):
        monitor_convergence(MatrixSequence.constant(0.5 * np.eye(2)),
                            ProductSchedule(), L1, threshold, 10)


@pytest.mark.parametrize("norm", [L1, L2, LINF])
def test_overflow_and_clamp_are_read_from_the_raw_values(norm):
    # the product dips below the clamp at step 2 and climbs past the overflow
    # limit at step 6, inside the block of steps 4-7; step 7 is infinite
    eye = np.eye(2)
    mats = [1e-160 * eye] * 2 + [1e200 * eye] * 3 + [1e21 * eye, 1e200 * eye]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = monitor_convergence(MatrixSequence.from_list(mats),
                                    ProductSchedule(), norm, None, 7)
    assert trace.clamped_from == 2 and trace.mus[1] == 1e-300
    assert trace.mus[2] == pytest.approx(1e-120, rel=1e-3)
    assert trace.overflow_at == 6 and trace.rs[-1] == 6
    assert trace.status.kind == "exhausted" and trace.status.r == 6


def test_threshold_is_compared_with_the_clamped_value():
    # the raw norm 1e-320 is below a 1e-310 threshold, the clamped 1e-300 is not
    seq = MatrixSequence.from_list([1e-160 * np.eye(2)] * 3)
    trace = monitor_convergence(seq, ProductSchedule(), L1, 1e-310, 2)
    assert trace.crossed_at is None and trace.clamped_from == 2
    assert trace.status.kind == "exhausted"


GOOD = np.array([[0.9, 0.2], [0.1, 0.8]])


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = Counter()
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_valid_rule_factors_never_reach_the_stochastic_validator(monkeypatch):
    calls = _counting(monkeypatch, stochastic, "validate_stochastic")
    seq = MatrixSequence(n=2, rule=lambda i: GOOD)
    run = weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-300, 200).runs[0]
    assert run.status == "exhausted" and len(run.coefficients) == 200
    assert calls["validate_stochastic"] == 0


def test_family_members_are_tested_once_per_trace(monkeypatch):
    calls = _counting(monkeypatch, stochastic, "_stochastic_mask")
    calls.update(_counting(monkeypatch, stochastic, "validate_stochastic"))
    seq = MatrixSequence.periodic([np.array([[0.98, 0.03], [0.02, 0.97]]),
                                   np.array([[0.99, 0.02], [0.01, 0.98]]),
                                   np.array([[0.96, 0.02], [0.04, 0.98]])])
    run = weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-300, 200).runs[0]
    assert run.status == "exhausted" and len(run.coefficients) == 200
    assert calls == {"_stochastic_mask": 1}


@pytest.mark.parametrize("ordering", ["left", "right", "random"])
def test_streamed_step_arrays_are_read_only_for_rules_and_families(ordering):
    A = np.array([[0.5, 0.25], [0.5, 0.75]])
    sched = ProductSchedule(ordering=Ordering(ordering, seed=1))
    rule = MatrixSequence(n=2, rule=lambda i: A)
    for seq in (rule, MatrixSequence.periodic([A.copy()])):
        for step in stream_general_product(seq, sched, 70):
            assert not step.matrix.flags.writeable, step.r
            assert not step.factor.flags.writeable, step.r
    assert A.flags.writeable  # the rule's own array is not frozen


def test_stream_reads_at_most_one_block_past_the_last_step_taken():
    for k in (1, 2, 3, 4, 7, 8, 40, 63, 64, 65, 127, 128, 200, 300):
        seq, fetched = _stopping_sequence(0, np.eye(2))  # identity throughout
        for step in stream_general_product(seq, ProductSchedule(), 1000):
            if step.r == k:
                break
        assert fetched == list(range(1, len(fetched) + 1))
        assert k <= len(fetched) <= k + min(k - 1, BLOCK_CAP - 1), k


def test_norm_traces_stay_under_the_envelope_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    eps = np.finfo(float).eps

    @hyp.settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
               members=st.integers(1, 3), max_r=st.integers(1, 40),
               ordering=st.sampled_from(["left", "right", "random", "explicit"]),
               permutation=st.sampled_from(["identity", "prefix", "block_shuffle"]),
               norm=st.sampled_from([L1, L2, LINF]))
    def prop(seed, n, members, max_r, ordering, permutation, norm):
        rng = np.random.default_rng(seed)
        mats = [rng.uniform(0.5, 1.5) * rng.dirichlet(np.ones(n), size=n).T
                for _ in range(members)]
        seq = MatrixSequence.periodic(mats)
        sched = _schedule(ordering, permutation, max_r=max_r)
        trace = monitor_convergence(seq, sched, norm, None, max_r)
        steps = list(stream_general_product(seq, sched, max_r))
        assert trace.mus.tolist() == [operator_norm(s.matrix, norm) for s in steps]
        slack = 2 * (trace.rs + 1) * n * eps
        assert (trace.mus <= trace.envelope * (1 + slack)).all()

    prop()
