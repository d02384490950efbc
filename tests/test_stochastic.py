import numpy as np
import pytest

from genprod.contraction import Verdict, check_paracontracting
from genprod.norms import L1, L2, operator_norm, partial_norm
from genprod.norms import mean_zero_subspace as ergodicity_subspace
from genprod.products import MatrixSequence, Ordering, Permutation, ProductSchedule
from genprod.series import ConditionVerdict, TailModel, check_condition_C
from genprod.spectral import stochastic_simple_one
from genprod.stochastic import (
    StochasticityError,
    accumulation_corollary_check,
    ergodicity_coefficient_l1,
    general_coefficient,
    is_stochastic,
    overlap_probe,
    random_stochastic,
    validate_stochastic,
    weak_ergodicity_experiment,
    wkerg_condition_check,
)

HOLDS, FAILS = ConditionVerdict.HOLDS, ConditionVerdict.FAILS

RUNNING = np.array([[0.9, 0.2], [0.1, 0.8]])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_accepts_random_stochastic():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        A = random_stochastic(n, rng)
        validate_stochastic(A)
        assert operator_norm(A, L1) == pytest.approx(1.0)


def test_accepted_column_sum_drift_is_accepted_by_every_coefficient():
    # Column 0 sums to 1 + 5e-9: inside STOCHASTIC_TOL, so the matrix is
    # stochastic and the mean-zero hyperplane counts as invariant.
    A = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2 + 5e-9, 0.3, 0.5]])
    w = ergodicity_coefficient_l1(A)
    assert general_coefficient(A) == w
    assert stochastic_simple_one(A).coefficient == w
    B = A.copy()
    B[2, 0] += 1e-6
    for f in (general_coefficient, stochastic_simple_one):
        with pytest.raises(StochasticityError):
            f(B)


def test_validate_points_at_bad_column():
    A = np.array([[0.5, 0.9], [0.5, 0.2]])
    with pytest.raises(StochasticityError) as err:
        validate_stochastic(A)
    assert err.value.column == 1


def test_validate_rejects_negative_entry():
    A = np.array([[1.1, 0.0], [-0.1, 1.0]])
    with pytest.raises(StochasticityError) as err:
        validate_stochastic(A)
    assert err.value.column == 0


def test_is_stochastic_on_nonsquare():
    assert not is_stochastic(np.ones((2, 3)) / 2)


# ---------------------------------------------------------------------------
# Coefficient of ergodicity
# ---------------------------------------------------------------------------

def test_coefficient_rank_one_is_zero():
    v = np.array([0.2, 0.3, 0.5])
    A = np.outer(v, np.ones(3))
    assert ergodicity_coefficient_l1(A) == 0.0


def test_coefficient_identity_is_one():
    for n in (2, 3, 6):
        assert ergodicity_coefficient_l1(np.eye(n)) == 1.0


def test_coefficient_running_example():
    assert ergodicity_coefficient_l1(RUNNING) == pytest.approx(0.7)


def test_coefficient_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(50):
        A = random_stochastic(int(rng.integers(2, 8)), rng)
        w = ergodicity_coefficient_l1(A)
        assert 0.0 <= w <= 1.0 + 1e-12


def test_coefficient_submultiplicative():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        A, B = random_stochastic(n, rng), random_stochastic(n, rng)
        wab = ergodicity_coefficient_l1(A @ B, validate=False)
        assert wab <= ergodicity_coefficient_l1(A) * \
            ergodicity_coefficient_l1(B) + 1e-10


def test_products_stay_stochastic():
    rng = np.random.default_rng(3)
    P = random_stochastic(4, rng)
    Q = random_stochastic(4, rng)
    validate_stochastic(P @ Q)


def test_general_coefficient_matches_closed_form_l1():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = random_stochastic(int(rng.integers(2, 6)), rng)
        assert general_coefficient(A, L1) == pytest.approx(
            ergodicity_coefficient_l1(A), abs=1e-8)


def test_general_coefficient_identity_and_rank_one_any_norm():
    v = np.array([0.25, 0.75])
    A = np.outer(v, np.ones(2))
    for norm in (L1, L2):
        assert general_coefficient(A, norm) == pytest.approx(0.0, abs=1e-10)
        assert general_coefficient(np.eye(2), norm) == pytest.approx(1.0)


def test_closed_form_pinned_to_sampling_oracle():
    rng = np.random.default_rng(5)
    H_cache = {}
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = random_stochastic(n, rng)
        H = H_cache.setdefault(n, ergodicity_subspace(n))
        oracle = partial_norm(A, H, L1, route="sample", samples=3000,
                              seed=11).value
        assert ergodicity_coefficient_l1(A) == pytest.approx(oracle, abs=1e-6)


# ---------------------------------------------------------------------------
# Weak ergodicity experiments
# ---------------------------------------------------------------------------

def test_rank_one_family_converges_immediately():
    v = np.array([0.4, 0.6])
    seq = MatrixSequence.constant(np.outer(v, np.ones(2)))
    rep = weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-8, 10)
    assert rep.runs[0].crossed_at == 1
    assert rep.runs[0].coefficients[0] == 0.0


def test_identity_family_exhausts():
    seq = MatrixSequence.constant(np.eye(3))
    rep = weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-8, 20)
    run = rep.runs[0]
    assert run.crossed_at is None and run.status == "exhausted"
    assert not run.consistent_with_weak_ergodicity
    assert np.all(run.coefficients == 1.0)


def test_running_example_crosses_at_52():
    seq = MatrixSequence.constant(RUNNING)
    rep = weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-8, 100)
    assert rep.runs[0].crossed_at == 52
    np.testing.assert_allclose(rep.runs[0].coefficients,
                               0.7 ** rep.runs[0].rs, rtol=1e-8)


def test_experiment_validates_factors():
    seq = MatrixSequence.constant(np.array([[0.9, 0.3], [0.1, 0.8]]))
    with pytest.raises(StochasticityError):
        weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-8, 5)


def test_experiment_rejects_factor_entering_under_random_ordering():
    fetched = []

    def rule(i):
        fetched.append(i)
        if i == 4:
            return np.array([[0.9, 0.2], [0.1, 0.7]])
        return RUNNING

    seq = MatrixSequence(n=2, rule=rule)
    sched = ProductSchedule(ordering=Ordering("random", seed=2))
    with pytest.raises(StochasticityError) as exc:
        weak_ergodicity_experiment(seq, [sched], 1e-12, 8)
    assert exc.value.column == 1 and "column 1" in str(exc.value)
    assert fetched == [1, 2, 3, 4]


def test_experiment_multiple_schedules_report_separately():
    seq = MatrixSequence.constant(RUNNING)
    scheds = [ProductSchedule(p=0),
              ProductSchedule(p=3, ordering=Ordering("random", seed=1)),
              ProductSchedule(permutation=Permutation("block_shuffle",
                                                      block=4, seed=2))]
    rep = weak_ergodicity_experiment(seq, scheds, 1e-8, 100)
    assert len(rep.runs) == 3
    assert rep.all_crossed
    # constant sequence: schedule does not matter for the coefficient trace
    assert {r.crossed_at for r in rep.runs} == {52}


def test_weak_ergodicity_on_probability_differences():
    # coefficient below threshold forces differences of probability vectors
    # to shrink accordingly
    seq = MatrixSequence.constant(RUNNING)
    rep = weak_ergodicity_experiment(seq, [ProductSchedule()], 1e-4, 100)
    r = rep.runs[0].crossed_at
    C = np.linalg.matrix_power(RUNNING, r)
    rng = np.random.default_rng(6)
    for _ in range(20):
        u, v = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
        assert L1(C @ (u - v)) <= 1e-4 * L1(u - v) + 1e-15


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

def test_wkerg_constant_subsequence_holds():
    full = TailModel.constant_value(0.7)
    v = wkerg_condition_check(full, full)
    assert v.verdict == HOLDS
    assert any("automatic" in n for n in v.notes)


def test_wkerg_all_ones_fails():
    ones = TailModel.constant_value(1.0)
    assert wkerg_condition_check(ones, ones).verdict == FAILS


def test_wkerg_fast_convergence_to_one_fails():
    fam = TailModel.p_series(1.0, 2.0, "below")
    assert wkerg_condition_check(fam, fam).verdict == FAILS


def test_accumulation_alternating():
    fam = TailModel.periodic([1.0, 0.5])
    single = accumulation_corollary_check(fam, "single_point")
    assert single.verdict == HOLDS and single.chosen_point == 0.5
    assert single.wkerg.verdict == HOLDS
    assert accumulation_corollary_check(fam, "all_points").verdict == FAILS


def test_accumulation_monotone_to_nine_tenths():
    fam = TailModel.p_series(0.4, 1.0, "below", limit=0.9)
    for variant in ("single_point", "all_points"):
        rep = accumulation_corollary_check(fam, variant)
        assert rep.verdict == HOLDS
        assert rep.wkerg.verdict == HOLDS


def test_accumulation_monotone_to_one_fails_but_conditions_can_hold():
    fam = TailModel.p_series(1.0, 1.0, "below")  # 1 - 1/i
    for variant in ("single_point", "all_points"):
        rep = accumulation_corollary_check(fam, variant)
        assert rep.verdict == FAILS
    # the direct sufficient condition still holds for this family
    assert wkerg_condition_check(fam, fam).verdict == HOLDS


def test_accumulation_zero_amplitude_family_gets_no_divergence_note():
    # every value is exactly 1, so the deficit series is 0
    fam = TailModel.p_series(0.0, 1.0, "below")
    for variant in ("single_point", "all_points"):
        rep = accumulation_corollary_check(fam, variant)
        assert rep.verdict == FAILS and rep.notes == ()
    assert wkerg_condition_check(fam, fam).verdict == FAILS


def test_accumulation_needs_bounded_coefficients():
    fam = TailModel.periodic([1.2, 0.5])
    rep = accumulation_corollary_check(fam, "single_point")
    assert rep.verdict == FAILS
    assert any("exceeds 1" in n for n in rep.notes)


def test_accumulation_rejects_coefficient_just_above_one():
    # condition C is exact, so its embedded check would fail on 1 + 1e-13
    fam = TailModel.periodic([1.0 + 1e-13, 0.5])
    assert check_condition_C(fam) == FAILS
    rep = accumulation_corollary_check(fam, "single_point")
    assert rep.verdict == FAILS and rep.wkerg is None
    assert any("exceeds 1" in n for n in rep.notes)


def test_wkerg_automatic_note_only_when_condition_C_holds():
    v = wkerg_condition_check(TailModel.constant_value(1.0 + 1e-13),
                              TailModel.constant_value(0.5))
    assert v.condition_C == FAILS
    assert not any("automatic" in n for n in v.notes)
    # an unknown tail leaves condition C undecidable, however small the prefix
    v = wkerg_condition_check(TailModel.with_prefix([0.5], None),
                              TailModel.constant_value(0.5))
    assert v.condition_C == ConditionVerdict.UNDECIDABLE
    assert not any("automatic" in n for n in v.notes)
    v = wkerg_condition_check(TailModel.constant_value(1.0),
                              TailModel.constant_value(0.5))
    assert v.condition_C == HOLDS
    assert any("automatic" in n for n in v.notes)


def test_accumulation_undecidable_without_tail():
    fam = TailModel.with_prefix([0.5], None)
    rep = accumulation_corollary_check(fam, "single_point")
    assert rep.verdict == ConditionVerdict.UNDECIDABLE


# ---------------------------------------------------------------------------
# Overlap probe and the paracontraction remark
# ---------------------------------------------------------------------------

def test_overlap_identity():
    rep = overlap_probe(np.eye(3))
    assert not rep.has_multi_positive_row
    assert rep.coefficient == 1.0 and not rep.contracts


def test_overlap_running_example():
    rep = overlap_probe(RUNNING)
    assert rep.has_multi_positive_row and rep.scrambling
    assert rep.coefficient == pytest.approx(0.7) and rep.contracts


def test_overlap_block_counterexample():
    # one block mixes, the other is isolated: a row with two positive
    # entries exists, yet the matrix does not contract mean-zero vectors
    A = np.array([[0.6, 0.3, 0.0],
                  [0.4, 0.7, 0.0],
                  [0.0, 0.0, 1.0]])
    rep = overlap_probe(A)
    assert rep.has_multi_positive_row
    assert not rep.scrambling
    assert rep.coefficient == 1.0 and not rep.contracts


def test_nonidentity_stochastic_never_l1_paracontracting():
    rng = np.random.default_rng(7)
    for _ in range(15):
        A = random_stochastic(int(rng.integers(2, 6)), rng)
        assert check_paracontracting(A, L1, 400, seed=8).kind == Verdict.FALSIFIED
    assert check_paracontracting(np.eye(4), L1, 400).kind == Verdict.CERTIFIED


# ---------------------------------------------------------------------------
# Column repair
# ---------------------------------------------------------------------------

def test_repair_fixes_rounding_drift():
    from genprod.stochastic import repair_stochastic
    A = RUNNING + np.array([[3e-9, -2e-9], [0.0, 0.0]])
    B = repair_stochastic(A, max_adjustment=1e-6)
    validate_stochastic(B, tol=1e-14)
    np.testing.assert_allclose(B, RUNNING, atol=1e-8)


def test_repair_refuses_large_adjustment():
    from genprod.stochastic import repair_stochastic
    with pytest.raises(StochasticityError) as err:
        repair_stochastic(np.array([[0.5, 0.9], [0.5, 0.2]]))
    assert err.value.column == 1


def test_repair_refuses_massless_column():
    from genprod.stochastic import repair_stochastic
    with pytest.raises(StochasticityError):
        repair_stochastic(np.array([[0.0, 1.0], [-1e-9, 0.0]]))
