import math
import warnings

import numpy as np
import pytest

from genprod.series import (
    ConditionVerdict,
    TailModel,
    check_condition_C,
    check_condition_D,
    mu_minus,
    mu_plus,
    partial_sum_diagnostics,
    sinh_product_limit,
)

HOLDS = ConditionVerdict.HOLDS
FAILS = ConditionVerdict.FAILS
UNDECIDABLE = ConditionVerdict.UNDECIDABLE


def test_mu_split_values():
    assert (mu_plus(0.5), mu_minus(0.5)) == (1.0, 0.5)
    assert (mu_plus(1.0), mu_minus(1.0)) == (1.0, 1.0)
    assert (mu_plus(2.5), mu_minus(2.5)) == (2.5, 1.0)


def test_mu_split_product_identity():
    rng = np.random.default_rng(0)
    for v in rng.uniform(0, 3, size=200):
        assert mu_plus(v) * mu_minus(v) == pytest.approx(v)


def test_mu_rejects_negative():
    with pytest.raises(ValueError):
        mu_plus(-0.1)
    with pytest.raises(ValueError):
        mu_minus(-1.0)


@pytest.mark.parametrize("model,expected", [
    (TailModel.p_series(1.0, 2.0, "above"), HOLDS),      # 1 + 1/i^2
    (TailModel.p_series(1.0, 1.0, "above"), FAILS),      # 1 + 1/i
    (TailModel.p_series(0.5, 1.0, "below"), HOLDS),      # never above 1
    (TailModel.constant_value(0.7), HOLDS),
    (TailModel.constant_value(1.0), HOLDS),
    (TailModel.constant_value(1.1), FAILS),
    (TailModel.periodic([1.0, 0.5]), HOLDS),
    (TailModel.periodic([1.0, 1.2]), FAILS),
    (TailModel.finite_support([5.0, 2.0, 3.0]), HOLDS),
    (TailModel.p_series(0.3, 0.5, "above", limit=0.9), HOLDS),
    (TailModel.with_prefix([9.0], TailModel.constant_value(0.5)), HOLDS),
    (TailModel.with_prefix([0.1], None), UNDECIDABLE),
    (TailModel.p_series(0.0, 0.5, "above"), HOLDS),      # every value 1
    (TailModel.p_series(0.0, 1.0, "below"), HOLDS),
])
def test_condition_C_verdicts(model, expected):
    assert check_condition_C(model) == expected


@pytest.mark.parametrize("model,expected", [
    (TailModel.p_series(0.5, 1.0, "below"), HOLDS),      # 1 - 1/(2i)
    (TailModel.p_series(1.0, 2.0, "below"), FAILS),      # 1 - 1/i^2
    (TailModel.constant_value(0.7), HOLDS),
    (TailModel.constant_value(1.0), FAILS),
    (TailModel.periodic([1.0, 0.5]), HOLDS),
    (TailModel.periodic([1.0, 1.0]), FAILS),
    (TailModel.finite_support([0.1, 0.2]), FAILS),
    (TailModel.p_series(0.3, 2.0, "above", limit=0.9), HOLDS),  # limit below 1
    (TailModel.p_series(1.0, 1.0, "above"), FAILS),
    (TailModel.with_prefix([0.0], None), UNDECIDABLE),
    (TailModel.p_series(0.0, 1.0, "below"), FAILS),      # every value 1
    (TailModel.p_series(0.0, 0.5, "above"), FAILS),
])
def test_condition_D_verdicts(model, expected):
    assert check_condition_D(model) == expected


def test_condition_D_declared_subfamily():
    full = TailModel.constant_value(1.0)
    sub = TailModel.constant_value(0.7)
    assert check_condition_D(full) == FAILS
    assert check_condition_D(full, subfamilies=[sub]) == HOLDS


def test_tail_model_values_and_bounds():
    m = TailModel.p_series(0.5, 1.0, "below")
    np.testing.assert_allclose(m.prefix(3), [0.5, 0.75, 1 - 1 / 6])
    assert m.sup_value() == 1.0
    per = TailModel.periodic([1.0, 0.5])
    assert per.value(1) == 1.0 and per.value(2) == 0.5 and per.value(3) == 1.0
    assert per.accumulation_points() == (0.5, 1.0)
    fin = TailModel.finite_support([2.0])
    assert fin.value(1) == 2.0 and fin.value(10) == 1.0
    pre = TailModel.with_prefix([0.9, 0.8], TailModel.constant_value(0.7))
    assert pre.value(2) == 0.8 and pre.value(3) == 0.7


# Each constructor's values 1..50 (or up to an undeclared tail), least upper
# bound, accumulation points and both verdicts.
TAIL_PINS = [
    (TailModel.constant_value(0.7), [0.7] * 50, 0.7, (0.7,), HOLDS, HOLDS),
    (TailModel.constant_value(1.0), [1.0] * 50, 1.0, (1.0,), HOLDS, FAILS),
    (TailModel.constant_value(1.1), [1.1] * 50, 1.1, (1.1,), FAILS, FAILS),
    (TailModel.constant_value(0.0), [0.0] * 50, 0.0, (0.0,), HOLDS, HOLDS),
    (TailModel.finite_support([5.0, 2.0, 3.0]), [5.0, 2.0, 3.0] + [1.0] * 47,
     5.0, (1.0,), HOLDS, FAILS),
    (TailModel.finite_support([0.1, 0.2]), [0.1, 0.2] + [1.0] * 48,
     1.0, (1.0,), HOLDS, FAILS),
    (TailModel.finite_support([]), [1.0] * 50, 1.0, (1.0,), HOLDS, FAILS),
    (TailModel.periodic([1.0, 0.5]), [1.0, 0.5] * 25, 1.0, (0.5, 1.0),
     HOLDS, HOLDS),
    (TailModel.periodic([1.2, 0.5, 1.2]), [1.2, 0.5, 1.2] * 16 + [1.2, 0.5],
     1.2, (0.5, 1.2), FAILS, HOLDS),
    (TailModel.p_series(1.0, 2.0, "above"),
     [1.0 + 1.0 / float(i) ** 2.0 for i in range(1, 51)], 2.0, (1.0,),
     HOLDS, FAILS),
    (TailModel.p_series(0.5, 1.0, "below"),
     [1.0 - 0.5 / float(i) for i in range(1, 51)], 1.0, (1.0,), HOLDS, HOLDS),
    (TailModel.p_series(0.3, 0.5, "above", limit=0.9),
     [0.9 + 0.3 / float(i) ** 0.5 for i in range(1, 51)], 1.2, (0.9,),
     HOLDS, HOLDS),
    (TailModel.with_prefix([9.0], TailModel.constant_value(0.5)),
     [9.0] + [0.5] * 49, 9.0, (0.5,), HOLDS, HOLDS),
    (TailModel.with_prefix([0.9, 0.8], TailModel.finite_support([2.0])),
     [0.9, 0.8, 2.0] + [1.0] * 47, 2.0, (1.0,), HOLDS, FAILS),
    (TailModel.with_prefix([0.1], None), [0.1], 0.1, None,
     UNDECIDABLE, UNDECIDABLE),
]


@pytest.mark.parametrize("model,values,sup,acc,c,d", TAIL_PINS)
def test_tail_model_pinned_values_and_verdicts(model, values, sup, acc, c, d):
    assert [model.value(i) for i in range(1, len(values) + 1)] == values
    assert model.sup_value() == sup
    assert model.accumulation_points() == acc
    assert (check_condition_C(model), check_condition_D(model)) == (c, d)


@pytest.mark.parametrize("c", [0.0, 0.7, 1.0, 1.1])
def test_constant_family_is_a_one_value_periodic_family(c):
    assert TailModel.constant_value(c) == TailModel.periodic([c])


@pytest.mark.parametrize("values", [[], [0.1, 0.2], [5.0, 2.0, 3.0]])
def test_finite_support_is_a_prefix_before_the_constant_one(values):
    assert TailModel.finite_support(values) == \
        TailModel.with_prefix(values, TailModel.periodic([1.0]))


@pytest.mark.parametrize("kind", ["constant", "finite_support", "geometric"])
def test_tail_model_has_three_kinds(kind):
    with pytest.raises(ValueError, match="unknown tail family"):
        TailModel(kind, values=(1.0,))


def test_tail_model_rejects_negative_values():
    with pytest.raises(ValueError):
        TailModel.p_series(1.5, 1.0, "below")
    with pytest.raises(ValueError):
        TailModel.periodic([0.5, -0.1])


def test_diagnostics_constant_one():
    d = partial_sum_diagnostics([1.0, 1.0, 1.0])
    assert np.all(d.plus_sums == 0) and np.all(d.minus_sums == 0)
    assert np.all(d.plus_products == 1) and np.all(d.minus_products == 1)


def test_diagnostics_halves():
    d = partial_sum_diagnostics([0.5, 0.5, 0.5])
    np.testing.assert_allclose(d.minus_sums, [0.5, 1.0, 1.5])
    np.testing.assert_allclose(d.minus_products, [0.5, 0.25, 0.125])


def test_diagnostics_p_series():
    vals = [1 + 1 / i**2 for i in (1, 2, 3)]
    d = partial_sum_diagnostics(vals)
    np.testing.assert_allclose(d.plus_sums, [1.0, 1.25, 1.25 + 1 / 9])


def test_diagnostics_products_past_the_float_range_are_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = partial_sum_diagnostics([1e200, 1e200, 0.5])
    assert d.plus_products.tolist() == [1e200, math.inf, math.inf]
    assert d.minus_products.tolist() == [1.0, 1.0, 0.5]


def test_plus_product_approaches_analytic_limit():
    # running product of (1 + 1/i^2) over 1e5 terms vs its closed-form limit
    i = np.arange(1, 100001, dtype=float)
    prod = np.cumprod(1.0 + 1.0 / i**2)
    assert abs(prod[-1] - sinh_product_limit()) / sinh_product_limit() < 0.01


def test_verdicts_stable_under_bounded_displacement_permutation():
    # verdicts live on the model; realized finite values under a block
    # shuffle keep the same running-sum limits because terms are nonnegative
    from genprod.products import Permutation
    m = TailModel.p_series(1.0, 2.0, "above")
    vals = m.prefix(400)
    perm = Permutation("block_shuffle", block=8, seed=3)
    shuffled = np.array([m.value(perm.index_at(i)) for i in range(1, 401)])
    assert sorted(shuffled) == sorted(vals)
    d0 = partial_sum_diagnostics(vals)
    d1 = partial_sum_diagnostics(shuffled)
    assert d0.plus_sums[-1] == pytest.approx(d1.plus_sums[-1])
