"""Hand-computed cases for the benchmark's numpy oracles.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""
import numpy as np
import pytest

import oracles as orc

README_A = np.array([[0.9, 0.2], [0.1, 0.8]])


def test_products_and_powers():
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(orc.power(S, 2), np.eye(2))
    assert np.array_equal(orc.power(S, 3), S)
    U, L = np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(orc.ordered_product([U, L]), [[2.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(orc.ordered_product([L, U]), [[1.0, 1.0], [1.0, 2.0]])
    # The README matrix: A^2 = [[0.83, 0.34], [0.17, 0.66]].
    assert np.allclose(orc.power(README_A, 2), [[0.83, 0.34], [0.17, 0.66]], atol=1e-15)


def test_operator_norms():
    A = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert orc.op_norm(A, "l1") == 6.0      # largest absolute column sum
    assert orc.op_norm(A, "linf") == 7.0    # largest absolute row sum
    assert orc.op_norm(np.diag([3.0, -4.0]), "l2") == pytest.approx(4.0, rel=1e-15)


def test_overlap_coefficient():
    assert orc.overlap_coefficient(README_A) == pytest.approx(0.7, abs=1e-15)
    assert orc.overlap_coefficient(np.eye(3)) == 1.0          # disjoint columns
    rank_one = np.tile([[0.2], [0.3], [0.5]], (1, 3))
    assert orc.overlap_coefficient(rank_one) == pytest.approx(0.0, abs=1e-15)


def test_mean_zero_linf_vertices():
    V = orc.mean_zero_linf_vertices(3)
    want = {(1, -1, 0), (1, 0, -1), (-1, 1, 0), (0, 1, -1), (-1, 0, 1), (0, -1, 1)}
    assert {tuple(int(v) for v in col) for col in V.T} == want
    V4 = orc.mean_zero_linf_vertices(4)
    assert V4.shape[1] == 6 and np.all(V4.sum(axis=0) == 0)   # two +1, two -1
    with pytest.raises(ValueError):
        orc.mean_zero_linf_vertices(13)


def test_exact_partial_norms():
    # n = 2: the hyperplane is spanned by (1, -1), and A maps it to 0.7 (1, -1).
    assert orc.linf_mean_zero_exact(README_A) == pytest.approx(0.7, abs=1e-15)
    assert orc.linf_mean_zero_exact(np.diag([2.0, 1.0, 1.0])) == 2.0
    assert orc.weighted_l1_mean_zero_exact(README_A, [1.0, 3.0]) == pytest.approx(0.7)
    assert orc.weighted_l1_mean_zero_exact(np.eye(3), [1.0, 2.0, 5.0]) == 1.0
    assert orc.weighted_l1_operator([[1.0, 2.0], [0.0, 1.0]], [1.0, 1.0]) == 3.0
    assert orc.weighted_l1_operator([[1.0, 2.0], [0.0, 1.0]], [2.0, 1.0]) == 5.0
    E = np.eye(3)
    assert orc.l2_on_subspace(np.diag([3.0, 1.0, 2.0]), E[:, [0, 2]]) == pytest.approx(3.0)
    assert orc.l2_on_subspace(np.diag([3.0, 1.0, 2.0]), E[:, [1]]) == pytest.approx(1.0)
    # D A D^-1 = diag(2, 1) for diagonal A, whatever the weights.
    assert orc.scaled_l2_on_subspace(np.diag([2.0, 1.0]), np.eye(2), [1.0, 5.0]) == \
        pytest.approx(2.0)
    v = np.array([[0.6], [0.8]])
    assert orc.scaled_l2_on_subspace(np.eye(2), v, [3.0, 0.5]) == pytest.approx(1.0)


def test_eigenvalues():
    assert sorted(orc.eigvals(README_A).real) == pytest.approx([0.7, 1.0])
    assert orc.subdominant_modulus(README_A) == pytest.approx(0.7)


def test_permutation_index_sets():
    assert orc.prefix_indices((3, 1), 5) == [3, 1, 2, 4, 5]
    assert orc.index_multiset("prefix", 3, p=1, prefix=(3, 1)) == [1, 2, 4]
    assert orc.index_multiset("identity", 3, p=2) == [3, 4, 5]
    assert orc.index_multiset("block_shuffle", 4, block=2) == [1, 2, 3, 4]
    assert orc.index_multiset("block_shuffle", 3, block=2) is None


def test_coefficient_product_bounds():
    half = lambda i: 0.5
    assert np.allclose(orc.coefficient_product_bounds(half, "identity", 3),
                       [0.5, 0.25, 0.125])
    tenth = lambda i: i / 10
    # Block {1, 2}: one factor is at most 0.2, both give 0.02; then block {3, 4}.
    assert np.allclose(orc.coefficient_product_bounds(tenth, "block_shuffle", 4, block=2),
                       [0.2, 0.02, 0.008, 0.0024])


def test_tail_families():
    above = dict(amplitude=1.0, exponent=2.0, side="above", limit=1.0)
    below = dict(amplitude=0.5, exponent=1.0, side="below", limit=1.0)
    assert orc.tail_value("p_series", 2, **above) == 1.25
    assert orc.tail_value("p_series", 2, **below) == 0.75
    assert orc.tail_value("periodic", 3, values=(1.25, 0.8)) == 1.25
    assert (orc.tail_condition_C("p_series", **above),
            orc.tail_condition_D("p_series", **above)) == (True, False)
    assert (orc.tail_condition_C("p_series", **below),
            orc.tail_condition_D("p_series", **below)) == (True, True)
    assert (orc.tail_condition_C("constant", value=0.9),
            orc.tail_condition_D("constant", value=0.9)) == (True, True)
    assert (orc.tail_condition_C("periodic", values=(1.25, 0.8)),
            orc.tail_condition_D("periodic", values=(1.25, 0.8))) == (False, True)
