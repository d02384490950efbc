import json

import numpy as np
import pytest

from genprod import matio
from genprod.norms import L1, L2, Subspace, WeightedL1, additive_norm
from genprod.products import Ordering, Permutation, ProductSchedule
from genprod.series import TailModel


def test_matrix_json_round_trip(tmp_path):
    A = np.array([[0.5, -1.0], [2.0, 0.25]])
    path = tmp_path / "a.json"
    matio.save_matrix_json(A, path)
    np.testing.assert_array_equal(matio.load_matrix_json(path), A)


def test_matrix_json_complex_pairs(tmp_path):
    A = np.array([[1 + 2j, 0], [0, 3 - 1j]])
    path = tmp_path / "c.json"
    matio.save_matrix_json(A, path)
    B = matio.load_matrix_json(path)
    assert np.iscomplexobj(B)
    np.testing.assert_array_equal(B, A)
    raw = json.loads(path.read_text())
    assert raw[0][0] == [1.0, 2.0]


def test_matrix_csv_round_trip(tmp_path):
    A = np.array([[0.1, 0.9], [0.9, 0.1]])
    path = tmp_path / "a.csv"
    matio.save_matrix_csv(A, path)
    text = path.read_text()
    assert text.splitlines()[0] == "n,2"
    np.testing.assert_array_equal(matio.load_matrix_csv(path), A)


def test_matrix_csv_rejects_complex():
    with pytest.raises(ValueError):
        matio.matrix_to_csv_text(np.array([[1j]]))


def test_matrix_csv_header_errors():
    with pytest.raises(matio.ConfigError):
        matio.matrix_from_csv_text("1,2\n3,4\n")
    with pytest.raises(matio.ConfigError):
        matio.matrix_from_csv_text("n,3\n1,2\n")


def test_matrix_from_config_file_reference(tmp_path):
    A = np.eye(2)
    matio.save_matrix_json(A, tmp_path / "m.json")
    B = matio.matrix_from_config({"file": "m.json"}, base_dir=tmp_path)
    np.testing.assert_array_equal(B, A)
    with pytest.raises(matio.ConfigError):
        matio.matrix_from_config({"file": "missing.json"}, base_dir=tmp_path)


@pytest.mark.parametrize("norm", [
    L1, L2, WeightedL1(np.array([1.0, 2.0])),
    additive_norm(L2, Subspace.span([1, -1]), Subspace.span([1, 1])),
])
def test_norm_config_round_trip(norm):
    cfg = matio.norm_to_config(norm)
    back = matio.norm_from_config(cfg)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(2)
        assert back(x) == pytest.approx(norm(x), rel=1e-12)


def test_subspace_config_round_trip():
    S = Subspace.span([1.0, 2.0, -1.0], [0.0, 1.0, 1.0])
    back = matio.subspace_from_config(matio.subspace_to_config(S))
    assert back.equals(S, tol=1e-10)
    M = matio.subspace_from_config({"kind": "mean_zero", "n": 4})
    assert M.dim == 3


@pytest.mark.parametrize("model", [
    TailModel.p_series(1.0, 2.0, "above"),
    TailModel.constant_value(0.7),
    TailModel.periodic([1.0, 0.5]),
    TailModel.finite_support([2.0, 0.1]),
    TailModel.with_prefix([0.9], TailModel.constant_value(0.5)),
])
def test_tail_model_round_trip(model):
    back = matio.tail_model_from_config(matio.tail_model_to_config(model))
    assert back == model


@pytest.mark.parametrize("model", [
    TailModel.p_series(1.0, 2.0, "above"),
    TailModel.constant_value(0.7),
    TailModel.finite_support([2.0, 0.1]),
    TailModel.with_prefix([0.9], TailModel.finite_support([3.0])),
    TailModel.with_prefix([0.9], None),
])
def test_tail_model_config_uses_only_the_three_kinds(model):
    def kinds(cfg):
        tail = cfg.get("tail")
        return {cfg["kind"]} | (kinds(tail) if tail else set())

    assert kinds(matio.tail_model_to_config(model)) <= {
        "p_series", "periodic", "explicit_prefix"}


@pytest.mark.parametrize("cfg,model", [
    ({"kind": "constant", "value": 0.7}, TailModel.constant_value(0.7)),
    ({"kind": "finite_support", "values": [2.0, 0.1]},
     TailModel.finite_support([2.0, 0.1])),
    ({"kind": "finite_support"}, TailModel.finite_support([])),
    ({"kind": "p_series", "amplitude": 1.0, "exponent": 2.0},
     TailModel.p_series(1.0, 2.0, "above")),
    ({"kind": "periodic", "values": [1.0, 0.5]}, TailModel.periodic([1.0, 0.5])),
    ({"kind": "explicit_prefix", "values": [0.9],
      "tail": {"kind": "constant", "value": 0.5}},
     TailModel.with_prefix([0.9], TailModel.constant_value(0.5))),
])
def test_tail_model_config_accepts_all_five_kind_names(cfg, model):
    assert matio.tail_model_from_config(cfg) == model


def test_schedule_round_trip():
    sched = ProductSchedule(
        p=3,
        permutation=Permutation("prefix", prefix=(4, 1, 2, 3)),
        ordering=Ordering("explicit", orders=((4,), (4, 5))),
        label="x")
    back = matio.schedule_from_config(matio.schedule_to_config(sched))
    assert back == sched
    rand = ProductSchedule(ordering=Ordering("random", seed=9),
                           permutation=Permutation("block_shuffle", block=3,
                                                   seed=2))
    assert matio.schedule_from_config(matio.schedule_to_config(rand)) == rand


def test_sequence_from_config_kinds(tmp_path):
    cfg = {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
    seq = matio.sequence_from_config(cfg, tmp_path)
    np.testing.assert_array_equal(seq.factor(5), np.eye(2))
    cfg2 = {"kind": "scaled", "matrix": [[1.0, 0.0], [0.0, 1.0]],
            "scale": {"kind": "constant", "value": 0.5}}
    seq2 = matio.sequence_from_config(cfg2, tmp_path)
    np.testing.assert_array_equal(seq2.factor(1), 0.5 * np.eye(2))
    cfg3 = {"kind": "periodic", "matrices": [[[0.0]], [[1.0]]]}
    seq3 = matio.sequence_from_config(cfg3, tmp_path)
    assert seq3.factor(1)[0, 0] == 0.0 and seq3.factor(4)[0, 0] == 1.0


def test_bad_configs_raise():
    with pytest.raises(matio.ConfigError):
        matio.norm_from_config({"kind": "l7"})
    with pytest.raises(matio.ConfigError):
        matio.sequence_from_config({"kind": "constant"}, None)
    with pytest.raises(matio.ConfigError):
        matio.tail_model_from_config({"kind": "p_series"})
    with pytest.raises(matio.ConfigError):
        matio.matrix_from_jsonable([])


def test_to_jsonable_handles_reports():
    from genprod.contraction import check_H_contractor
    from genprod.norms import mean_zero_subspace
    A = np.array([[0.9, 0.2], [0.1, 0.8]])
    v = check_H_contractor(A, mean_zero_subspace(2), L1)
    out = matio.to_jsonable(v)
    assert out["kind"] == "certified"
    assert out["certificate"]["k"] == pytest.approx(0.7)
    # round-trips through json
    json.dumps(out)


def test_diagnostics_csv():
    from genprod.series import partial_sum_diagnostics
    d = partial_sum_diagnostics([0.5, 2.0])
    text = matio.diagnostics_to_csv_text(d)
    lines = text.splitlines()
    assert lines[0] == "i,value,plus_sum,minus_sum,plus_product,minus_product"
    assert lines[1].startswith("1,0.5,0.0,0.5,")
    assert len(lines) == 3


def test_csv_texts_exact_bytes():
    A = np.array([[0.1 + 0.2, -1e-300], [3, 1e250]])
    assert matio.matrix_to_csv_text(A) == (
        "n,2\n0.30000000000000004,-1e-300\n3.0,1e+250\n")
    from genprod.series import partial_sum_diagnostics
    d = partial_sum_diagnostics([0.5, 2.0])
    assert matio.diagnostics_to_csv_text(d) == (
        "i,value,plus_sum,minus_sum,plus_product,minus_product\n"
        "1,0.5,0.0,0.5,1.0,0.5\n"
        "2,2.0,1.0,0.5,2.0,0.5\n")
