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


@pytest.mark.parametrize("name", ["m.json", "m.csv"])
@pytest.mark.parametrize("make", ["directory", "not utf-8"])
def test_matrix_file_that_cannot_be_read_is_a_config_error(tmp_path, name, make):
    path = tmp_path / name
    if make == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe[[1.0]]\n")
    with pytest.raises(matio.ConfigError, match="cannot read matrix file"):
        matio.matrix_from_config({"file": name}, base_dir=tmp_path)


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


@pytest.mark.parametrize("cfg", [
    {"kind": "p_series", "amplitude": True, "exponent": 2},
    {"kind": "p_series", "amplitude": 1.0, "exponent": "2"},
    {"kind": "p_series", "amplitude": 1.0, "exponent": 2, "limit": None},
    {"kind": "constant", "value": True},
    {"kind": "periodic", "values": [True, 0.5]},
    {"kind": "finite_support", "values": ["0.5"]},
    {"kind": "explicit_prefix", "values": [0.9, False]},
])
def test_tail_model_numbers_must_be_json_numbers(cfg):
    with pytest.raises(matio.ConfigError, match="must be a number"):
        matio.tail_model_from_config(cfg)


@pytest.mark.parametrize("reader, where", [
    (matio.norm_from_config, "norm"),
    (matio.subspace_from_config, "subspace"),
    (matio.tail_model_from_config, "tail model"),
    (lambda cfg: matio.sequence_from_config(cfg, None), "sequence"),
    (matio.permutation_from_config, "permutation"),
    (matio.ordering_from_config, "ordering"),
])
def test_kind_tagged_readers_share_their_two_messages(reader, where):
    for cfg in ([], {"kinds": "l1"}):
        with pytest.raises(matio.ConfigError) as e:
            reader(cfg)
        assert str(e.value) == f"{where} config must be an object with a 'kind'"
    for kind in ("nope", ["l1"], 1):
        with pytest.raises(matio.ConfigError) as e:
            reader({"kind": kind})
        assert str(e.value) == f"unknown {where} kind {kind!r}"


def test_to_jsonable_arrays_keep_their_written_types():
    out = matio.to_jsonable({
        "bools": np.array([True, False]), "ints": np.array([3, 4]),
        "int_matrix": np.array([[1, 0], [0, 1]]),
        "floats": np.array([0.5, np.inf, -np.inf, np.nan], dtype=np.float32),
        "complex": np.array([1 + 2j, complex(np.nan, 1.0)]),
        "complex_matrix": np.array([[1 - 1j]])})
    assert json.dumps(out, allow_nan=False) == (
        '{"bools": [1, 0], "ints": [3, 4], "int_matrix": [[1.0, 0.0], [0.0, 1.0]], '
        '"floats": [0.5, "inf", "-inf", "nan"], '
        '"complex": [[1.0, 2.0], ["nan", 1.0]], "complex_matrix": [[[1.0, -1.0]]]}')


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


@pytest.mark.parametrize("obj", [
    ["12", "34"],
    [[1.0, "2"]],
    [[True, False], [0, 1]],
    [[1.0, [0.5, None]]],
    [[1.0, 2.0], 3.0],
    [[10 ** 400]],
])
def test_matrix_entries_must_be_numbers(obj):
    with pytest.raises(matio.ConfigError):
        matio.matrix_from_jsonable(obj)


@pytest.mark.parametrize("value", [3.9, 3.0, True, "7", None, [3]])
def test_config_integers_must_be_json_integers(value):
    with pytest.raises(matio.ConfigError, match="must be an integer"):
        matio.json_int(value, "max_r")
    assert matio.json_int(7, "max_r") == 7



@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_config_flags_must_be_json_booleans(value):
    with pytest.raises(matio.ConfigError, match="must be true or false"):
        matio.json_bool(value, "audit")
    assert matio.json_bool(False, "audit") is False
    assert matio.json_bool(True, "audit") is True


@pytest.mark.parametrize("value", [True, False, "1e-8", None, [1.0]])
def test_config_numbers_must_be_json_numbers(value):
    with pytest.raises(matio.ConfigError, match="must be a number"):
        matio.json_float(value, "threshold")
    with pytest.raises(matio.ConfigError, match="too large for a float"):
        matio.json_float(10 ** 400, "threshold")
    assert matio.json_float(2, "threshold") == 2.0
    assert type(matio.json_float(2, "threshold")) is float
    assert matio.json_float(1e-8, "threshold") == 1e-8


@pytest.mark.parametrize("weights", [[True, 2], ["1", "2"], [1.0, None]])
def test_weighted_l1_weights_must_be_json_numbers(weights):
    with pytest.raises(matio.ConfigError, match="must be a number"):
        matio.norm_from_config({"kind": "weighted_l1", "weights": weights})

@pytest.mark.parametrize("reader,cfg", [
    (matio.subspace_from_config, {"kind": "mean_zero", "n": 3.0}),
    (matio.subspace_from_config, {"kind": "full", "n": True}),
    (matio.subspace_from_config, {"kind": "zero", "n": "2"}),
    (matio.schedule_from_config, {"p": 1.5}),
    (matio.schedule_from_config, {"permutation": {"kind": "prefix",
                                                  "values": [1, 0.0]}}),
    (matio.schedule_from_config, {"permutation": {"kind": "block_shuffle",
                                                  "block": 2.5}}),
    (matio.schedule_from_config, {"permutation": {"kind": "block_shuffle",
                                                  "seed": "1"}}),
    (matio.schedule_from_config, {"ordering": {"kind": "random", "seed": 1.0}}),
    (matio.schedule_from_config, {"ordering": {"kind": "explicit",
                                               "orders": [[1, False]]}}),
])
def test_config_readers_take_only_json_integers(reader, cfg):
    with pytest.raises(matio.ConfigError, match="must be an integer"):
        reader(cfg)


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


def test_to_jsonable_keeps_str_enums_and_lists_named_tuples():
    from genprod.contraction import ProofChainStats, Verdict
    from genprod.series import ConditionVerdict
    out = matio.to_jsonable({"v": Verdict.CERTIFIED, "c": ConditionVerdict.HOLDS,
                             "chain": ProofChainStats(3, -0.5, np.float64(0.25))})
    assert out == {"v": "certified", "c": "holds", "chain": [3, -0.5, 0.25]}
    assert json.dumps(out, sort_keys=True) == \
        '{"c": "holds", "chain": [3, -0.5, 0.25], "v": "certified"}'
