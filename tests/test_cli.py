import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genprod
from genprod import cli, matio
from genprod.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_REPLAY_MISMATCH,
    EXIT_VALIDATION,
    main,
    run_config,
)

RUNNING = [[0.9, 0.2], [0.1, 0.8]]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_report(out_dir, name):
    return json.loads((out_dir / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_identity(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "matrix": [[1.0, 0.0], [0.0, 1.0]],
        "norm": {"kind": "l1"},
        "seed": 1,
    })
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rep = read_report(tmp_path, "classify")
    assert rep["results"]["nonexpansive"]["kind"] == "certified"
    para = rep["results"]["paracontracting"]
    assert para["kind"] == "certified" and "vacuous" in para["note"]


def test_classify_with_audit_and_subspace(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "matrix": RUNNING,
        "norm": {"kind": "l1"},
        "subspace": {"kind": "mean_zero", "n": 2},
        "audit": True,
        "seed": 3,
    })
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rep = read_report(tmp_path, "classify")
    assert rep["results"]["h_contractor"]["kind"] == "certified"
    assert rep["results"]["h_contractor"]["certificate"]["k"] == pytest.approx(0.7)
    assert rep["results"]["paracontracting"]["kind"] == "falsified"
    assert rep["results"]["audit"]["agreement_ok"] is True


# ---------------------------------------------------------------------------
# ergodicity
# ---------------------------------------------------------------------------

def test_ergodicity_crossing_at_52(tmp_path):
    cfg = write_config(tmp_path, "e.json", {
        "name": "erg",
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"p": 0, "ordering": {"kind": "left"}}],
        "threshold": 1e-8,
        "max_r": 100,
        "seed": 5,
    })
    assert main(["ergodicity", "--config", str(cfg), "--out", str(tmp_path),
                 "--format", "csv"]) == EXIT_OK
    rep = read_report(tmp_path, "erg")
    assert rep["results"]["runs"][0]["crossed_at"] == 52
    csvs = list(tmp_path.glob("erg-*.csv"))
    assert len(csvs) == 1
    lines = csvs[0].read_text().splitlines()
    assert lines[0] == "r,omega"
    assert len(lines) == 53


def test_ergodicity_rejects_bad_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "sequence": {"kind": "constant", "matrix": [[0.9, 0.3], [0.1, 0.8]]},
        "schedules": [{}],
        "threshold": 1e-4,
        "max_r": 10,
    })
    assert main(["ergodicity", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "StochasticityError"
    assert err["error"]["detail"]["column"] == 1


def test_ergodicity_zero_amplitude_deficit_family_fails_condition_D(tmp_path):
    # every declared coefficient is exactly 1: the deficit series is 0, and
    # the identity's own trace never crosses
    cfg = write_config(tmp_path, "e.json", {
        "sequence": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "schedules": [{}],
        "threshold": 1e-8,
        "max_r": 20,
        "condition_C": {"kind": "constant", "value": 1.0},
        "condition_D": {"kind": "p_series", "amplitude": 0.0,
                        "exponent": 1.0, "side": "below"},
    })
    assert main(["ergodicity", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    results = read_report(tmp_path, "ergodicity")["results"]
    assert results["runs"][0]["status"] == "exhausted"
    assert results["conditions"]["condition_C"] == "holds"
    assert results["conditions"]["condition_D"] == "fails"
    assert results["conditions"]["verdict"] == "fails"


def test_periodic_sequence_with_mixed_dimensions_exits_validation(tmp_path):
    cfg = write_config(tmp_path, "e.json", {
        "sequence": {"kind": "periodic",
                     "matrices": [[[0.5, 0.5], [0.5, 0.5]], np.eye(3).tolist()]},
        "schedules": [{}],
        "threshold": 1e-8,
        "max_r": 10,
    })
    assert main(["ergodicity", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------

def test_product_run_with_conditions(tmp_path):
    cfg = write_config(tmp_path, "p.json", {
        "name": "prod",
        "sequence": {"kind": "scaled", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                     "scale": {"kind": "constant", "value": 0.5}},
        "schedules": [{"ordering": {"kind": "left"}},
                      {"ordering": {"kind": "random", "seed": 2}}],
        "threshold": 1e-8,
        "max_r": 50,
    })
    assert main(["product", "--config", str(cfg), "--out", str(tmp_path),
                 "--format", "csv"]) == EXIT_OK
    rep = read_report(tmp_path, "prod")
    assert all(s["crossed_at"] == 27 for s in rep["results"]["schedules"])
    for csv_file in tmp_path.glob("prod-*.csv"):
        assert csv_file.read_text().splitlines()[0] == "r,mu,envelope"


def test_product_overflow_exits_numerical(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", {
        "sequence": {"kind": "scaled", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                     "scale": {"kind": "constant", "value": 10.0}},
        "schedules": [{}],
        "threshold": None,
        "max_r": 400,
    })
    assert main(["product", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_product_non_finite_exits_numerical(tmp_path, capsys, norm):
    cfg = write_config(tmp_path, "p.json", {
        "sequence": {"kind": "constant", "matrix": [[1e160, 0.0], [0.0, 1e160]]},
        "schedules": [{"p": 0}], "norm": {"kind": norm}, "max_r": 5,
    })
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["product", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "NumericalFailure"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_overflow_report_is_strict_json_and_replays(tmp_path):
    cfg = write_config(tmp_path, "p.json", {
        "sequence": {"kind": "constant", "matrix": [[1e160, 0.0], [0.0, 1e160]]},
        "schedules": [{"p": 0}], "norm": {"kind": "l1"}, "max_r": 5,
    })
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["product", "--config", str(cfg), "--out", str(tmp_path),
                     "--name", "over"]) == EXIT_NUMERICAL
    text = (tmp_path / "over.json").read_text()
    json.loads(text, parse_constant=_reject_constant)
    assert '"inf"' in text
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["replay", "--report", str(tmp_path / "over.json")]) == EXIT_OK


def test_replay_reads_non_finite_literals_of_older_reports(tmp_path):
    cfg = write_config(tmp_path, "p.json", {
        "sequence": {"kind": "constant", "matrix": [[1e160, 0.0], [0.0, 1e160]]},
        "schedules": [{"p": 0}], "norm": {"kind": "l1"}, "max_r": 5,
    })
    with np.errstate(over="ignore", invalid="ignore"):
        main(["product", "--config", str(cfg), "--out", str(tmp_path),
              "--name", "over"])
    path = tmp_path / "over.json"
    path.write_text(path.read_text().replace('"inf"', "Infinity"))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["replay", "--report", str(path)]) == EXIT_OK


def test_run_config_report_is_json_ready(tmp_path):
    config = {"sequence": {"kind": "constant",
                           "matrix": [[1e160, 0.0], [0.0, 1e160]]},
              "schedules": [{"p": 0}], "norm": {"kind": "l1"}, "max_r": 5}
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_config("product", config, tmp_path)
    assert matio.to_jsonable(report) == report
    assert report["results"]["schedules"][0]["bound_M"] == "inf"
    json.dumps(report, allow_nan=False)


def test_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "p.json", {
        "sequence": {"kind": "scaled", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                     "scale": {"kind": "constant", "value": 0.5}},
        "schedules": [{}],
        "threshold": 1e-8,
        "max_r": 5,
    })
    assert main(["product", "--config", str(cfg), "--out", str(tmp_path),
                 "--max-r", "50", "--threshold", "1e-3"]) == EXIT_OK
    rep = read_report(tmp_path, "product")
    assert rep["config"]["max_r"] == 50
    assert rep["results"]["schedules"][0]["crossed_at"] == 10  # 2^-10 < 1e-3


# ---------------------------------------------------------------------------
# norm / spectral
# ---------------------------------------------------------------------------

def test_norm_subcommand(tmp_path):
    cfg = write_config(tmp_path, "n.json", {
        "matrix": RUNNING,
        "norm": {"kind": "l1"},
        "subspace": {"kind": "mean_zero", "n": 2},
        "vector": [1.0, -1.0],
    })
    assert main(["norm", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rep = read_report(tmp_path, "norm")
    assert rep["results"]["operator_norm"] == pytest.approx(1.0)
    assert rep["results"]["vector_norm"] == 2.0
    assert rep["results"]["partial_norm"]["value"] == pytest.approx(0.7)


def test_norm_vector_in_the_matrix_entry_format(tmp_path):
    cfg = write_config(tmp_path, "n.json", {
        "matrix": RUNNING, "vector": [[1.0, 2.0], [3.0, 4.0]]})
    assert main(["norm", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rep = read_report(tmp_path, "norm")
    assert rep["results"]["vector_norm"] == pytest.approx(np.sqrt(5.0) + 5.0,
                                                          rel=1e-15)


@pytest.mark.parametrize("key, value", [
    ("vector", [1.0, 2.0, 3.0]),          # length differs from the matrix
    ("vector", [1.0, [1, 2, 3]]),         # not an [re, im] pair
    ("subspace", {"kind": "span", "vectors": [[1.0, [1, 2, 3]]]}),
    ("matrix", ["12", "34"]),             # rows written as strings
    ("matrix", [[0.9, "0.2"], [0.1, 0.8]]),
    ("matrix", [[True, False], [0, 1]]),  # JSON booleans are not numbers
    ("vector", [1.0, [1, "2"]]),
])
def test_norm_config_vectors_are_checked(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, "n.json", {"matrix": RUNNING, key: value})
    out = tmp_path / "out"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_spectral_eigenvalue_must_be_a_real_or_a_pair(tmp_path):
    cfg = write_config(tmp_path, "s.json", {"matrix": RUNNING,
                                            "eigenvalue": [0, 1, 5]})
    out = tmp_path / "out"
    assert main(["spectral", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert not out.exists()


def test_spectral_subcommand(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "matrix": RUNNING,
        "eigenvalue": 1.0,
        "subspace": {"kind": "mean_zero", "n": 2},
        "high_modulus": True,
        "stochastic_simple_one": True,
    })
    assert main(["spectral", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rep = read_report(tmp_path, "spectral")
    assert rep["results"]["multiplicities"]["algebraic"] == 1
    assert rep["results"]["bounds"]["algebraic_bound"]["lhs"] == 1
    assert rep["results"]["high_modulus"]["decided"] is True
    assert rep["results"]["simple_one"]["passed"] is True


def test_spectral_semisimplicity_of_a_matrix_scaled_past_1e155(tmp_path):
    # 1 is not an eigenvalue, so it is trivially semisimple; squaring I - A
    # would overflow at this scale
    cfg = write_config(tmp_path, "s.json", {
        "matrix": [[9e199, 2e199], [1e199, 8e199]],
        "eigenvalue": 1.0,
    })
    assert main(["spectral", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    results = read_report(tmp_path, "spectral")["results"]
    assert results["multiplicities"]["algebraic"] == 0
    assert results["eigenvalue_one_semisimple"] is True


def test_spectral_accepts_column_sum_drift_within_tolerance(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "matrix": [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2 + 5e-9, 0.3, 0.5]],
        "eigenvalue": 1.0,
        "stochastic_simple_one": True,
    })
    assert main(["spectral", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rep = read_report(tmp_path, "spectral")
    assert rep["results"]["simple_one"]["passed"] is True


@pytest.mark.parametrize("sub", ["norm", "classify", "spectral"])
@pytest.mark.parametrize("flag", [["--max-r", "5"], ["--threshold", "1e-3"]])
def test_trace_flags_rejected_where_nothing_reads_them(tmp_path, sub, flag):
    cfg = write_config(tmp_path, "c.json", {"matrix": RUNNING, "eigenvalue": 1.0})
    with pytest.raises(SystemExit) as exc:
        main([sub, "--config", str(cfg), "--out", str(tmp_path)] + flag)
    assert exc.value.code == EXIT_VALIDATION
    assert not (tmp_path / f"{sub}.json").exists()


def test_main_calls_share_one_parser(tmp_path, monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    cfg = write_config(tmp_path, "c.json", {"matrix": RUNNING, "eigenvalue": 1.0})
    for _ in range(2):
        assert main(["spectral", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    with pytest.raises(SystemExit) as exc:
        main(["spectral", "--config", str(cfg), "--no-such-flag"])
    assert exc.value.code == EXIT_VALIDATION == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert parsers[2] is parsers[0]


def test_invalid_config_json(tmp_path, capsys):
    bad = tmp_path / "x.json"
    bad.write_text("{not json")
    assert main(["norm", "--config", str(bad)]) == EXIT_VALIDATION


def test_missing_required_key(tmp_path):
    cfg = write_config(tmp_path, "n.json", {"norm": {"kind": "l1"}})
    assert main(["norm", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_short_list_sequence_exits_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "sequence": {"kind": "list", "matrices": [RUNNING] * 3},
        "schedules": [{"p": 0}],
        "max_r": 5,
    })
    assert main(["product", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "SequenceExhaustedError"
    assert "only 3 factors, index 4 requested" in err["message"]


def test_subspace_missing_dimension_names_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "m.json", {
        "matrix": RUNNING,
        "subspace": {"kind": "mean_zero"},
    })
    assert main(["norm", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError"
    assert "'n'" in err["message"]


# ---------------------------------------------------------------------------
# determinism and replay
# ---------------------------------------------------------------------------

def test_identical_config_gives_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, "e.json", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"ordering": {"kind": "random", "seed": 4}}],
        "threshold": 1e-6,
        "max_r": 60,
        "seed": 9,
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["ergodicity", "--config", str(cfg), "--out", str(a),
                 "--format", "csv", "--name", "run"]) == EXIT_OK
    assert main(["ergodicity", "--config", str(cfg), "--out", str(b),
                 "--format", "csv", "--name", "run"]) == EXIT_OK
    assert (a / "run.json").read_bytes() == (b / "run.json").read_bytes()
    for fa in a.glob("run-*.csv"):
        fb = b / fa.name
        assert fa.read_bytes() == fb.read_bytes()


def test_replay_matches(tmp_path):
    cfg = write_config(tmp_path, "p.json", {
        "sequence": {"kind": "scaled", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                     "scale": {"kind": "p_series", "amplitude": 0.5,
                               "exponent": 1.0, "side": "below"}},
        "schedules": [{"ordering": {"kind": "random", "seed": 3},
                       "permutation": {"kind": "block_shuffle", "block": 4,
                                       "seed": 1}}],
        "threshold": None,
        "max_r": 40,
        "seed": 2,
    })
    assert main(["product", "--config", str(cfg), "--out", str(tmp_path),
                 "--name", "pr"]) == EXIT_OK
    assert main(["replay", "--report", str(tmp_path / "pr.json")]) == EXIT_OK


def test_replay_detects_tampering(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{}],
        "threshold": 1e-4,
        "max_r": 40,
        "seed": 0,
    })
    assert main(["ergodicity", "--config", str(cfg), "--out", str(tmp_path),
                 "--name", "er"]) == EXIT_OK
    report_path = tmp_path / "er.json"
    doc = json.loads(report_path.read_text())
    trace_name = next(iter(doc["traces"]))
    doc["traces"][trace_name]["rows"][0][1] = 0.123456
    report_path.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(report_path)]) == EXIT_REPLAY_MISMATCH


def test_replay_rejects_mismatched_config(tmp_path):
    cfg = write_config(tmp_path, "e.json", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{}],
        "threshold": 1e-4,
        "max_r": 40,
        "seed": 0,
    })
    assert main(["ergodicity", "--config", str(cfg), "--out", str(tmp_path),
                 "--name", "er"]) == EXIT_OK
    other = write_config(tmp_path, "other.json", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"ordering": {"kind": "random", "seed": 1}}],
        "threshold": 1e-4,
        "max_r": 40,
        "seed": 0,
    })
    assert main(["replay", "--report", str(tmp_path / "er.json"),
                 "--config", str(other)]) == EXIT_VALIDATION


def test_replay_rejects_a_supplied_config_with_non_finite_numbers(tmp_path, capsys):
    # the supplied config is read like the report: NaN is the string "nan"
    payload = {"matrix": RUNNING, "seed": 1}
    cfg = write_config(tmp_path, "n.json", payload)
    assert main(["norm", "--config", str(cfg), "--out", str(tmp_path),
                 "--name", "n"]) == EXIT_OK
    bad = write_config(tmp_path, "bad.json", {**payload, "vector": [float("nan"), 1.0]})
    capsys.readouterr()
    assert main(["replay", "--report", str(tmp_path / "n.json"),
                 "--config", str(bad)]) == EXIT_VALIDATION
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)["error"]
    assert err["type"] == "ConfigError" and "does not match" in err["message"]


def test_replay_requires_complete_report(tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"schema": "genprod.report/1"}))
    assert main(["replay", "--report", str(p)]) == EXIT_VALIDATION


@pytest.mark.parametrize("case", ["replay config missing", "replay config array",
                                  "replay config invalid", "replay config directory",
                                  "run config directory", "run config array",
                                  "report directory", "report invalid",
                                  "report array"])
def test_unreadable_files_exit_validation_without_a_traceback(tmp_path, capsys, case):
    cfg = write_config(tmp_path, "n.json", {"matrix": [[1.0]]})
    assert main(["norm", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    report, folder = str(tmp_path / "norm.json"), str(tmp_path)
    (tmp_path / "array.json").write_text("[1, 2]")
    (tmp_path / "bad.json").write_text("{not json")
    argv = {
        "replay config missing": ["replay", "--report", report,
                                  "--config", str(tmp_path / "missing.json")],
        "replay config array": ["replay", "--report", report,
                                "--config", str(tmp_path / "array.json")],
        "replay config invalid": ["replay", "--report", report,
                                  "--config", str(tmp_path / "bad.json")],
        "replay config directory": ["replay", "--report", report, "--config", folder],
        "run config directory": ["norm", "--config", folder, "--out", folder],
        "run config array": ["norm", "--config", str(tmp_path / "array.json"),
                             "--out", folder, "--seed", "1"],
        "report directory": ["replay", "--report", folder],
        "report invalid": ["replay", "--report", str(tmp_path / "bad.json")],
        "report array": ["replay", "--report", str(tmp_path / "array.json")],
    }[case]
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("name", ["m.json", "m.csv"])
def test_matrix_file_that_is_a_directory_exits_validation(tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    cfg = write_config(tmp_path, "n.json", {"matrix": {"file": name}})
    assert main(["norm", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    err = json.loads(err)["error"]
    assert err["type"] == "ConfigError"
    assert "cannot read matrix file" in err["message"]


INTEGER_KEYS = {
    "norm seed": ("norm", {"matrix": RUNNING, "seed": "7"}),
    "norm samples": ("norm", {"matrix": RUNNING, "samples": True,
                              "subspace": {"kind": "full", "n": 2}}),
    "classify budget": ("classify", {"matrix": RUNNING, "budget": 2.0}),
    "classify proof_samples": ("classify", {"matrix": RUNNING, "audit": True,
                                            "proof_samples": 1.5}),
    "spectral seed": ("spectral", {"matrix": RUNNING, "eigenvalue": 1.0,
                                   "seed": 0.5}),
    "product max_r": ("product", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"p": 0}], "max_r": 3.9}),
    "ergodicity max_r": ("ergodicity", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"p": 0}], "threshold": 1e-8, "max_r": 3.9}),
}


@pytest.mark.parametrize("case", sorted(INTEGER_KEYS))
def test_config_integers_must_be_json_integers(tmp_path, capsys, case):
    sub, payload = INTEGER_KEYS[case]
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert "must be an integer" in err["message"]
    assert not (tmp_path / f"{sub}.json").exists()



STRICT_KEYS = {
    "classify audit": ("classify", {"matrix": RUNNING, "audit": "false"},
                       "must be true or false"),
    "ergodicity repair_columns": ("ergodicity", {
        "sequence": {"kind": "constant", "matrix": RUNNING}, "schedules": [{"p": 0}],
        "threshold": 1e-8, "max_r": 5, "repair_columns": "no"}, "must be true or false"),
    "spectral high_modulus": ("spectral", {
        "matrix": RUNNING, "eigenvalue": 1.0, "subspace": {"kind": "mean_zero", "n": 2},
        "high_modulus": "no"}, "must be true or false"),
    "spectral stochastic_simple_one": ("spectral", {
        "matrix": RUNNING, "eigenvalue": 1.0, "stochastic_simple_one": 1},
        "must be true or false"),
    "product threshold true": ("product", {
        "sequence": {"kind": "constant", "matrix": RUNNING}, "schedules": [{"p": 0}],
        "max_r": 5, "threshold": True}, "must be a number"),
    "product threshold string": ("product", {
        "sequence": {"kind": "constant", "matrix": RUNNING}, "schedules": [{"p": 0}],
        "max_r": 5, "threshold": "1e-8"}, "must be a number"),
    "ergodicity threshold string": ("ergodicity", {
        "sequence": {"kind": "constant", "matrix": RUNNING}, "schedules": [{"p": 0}],
        "max_r": 5, "threshold": "1e-8"}, "must be a number"),
    "ergodicity threshold huge int": ("ergodicity", {
        "sequence": {"kind": "constant", "matrix": RUNNING}, "schedules": [{"p": 0}],
        "max_r": 5, "threshold": 10 ** 400}, "too large for a float"),
    "weights bool": ("norm", {"matrix": RUNNING,
                              "norm": {"kind": "weighted_l1", "weights": [True, 2]}},
                     "must be a number"),
    "weights strings": ("norm", {"matrix": RUNNING,
                                 "norm": {"kind": "weighted_l1", "weights": ["1", "2"]}},
                        "must be a number"),
    **{f"tail model {i}": ("ergodicity", {
        "sequence": {"kind": "constant", "matrix": RUNNING}, "schedules": [{"p": 0}],
        "threshold": 1e-8, "max_r": 5, "condition_C": model,
        "condition_D": {"kind": "constant", "value": 0.5}}, "must be a number")
       for i, model in enumerate([
           {"kind": "p_series", "amplitude": True, "exponent": 2},
           {"kind": "p_series", "amplitude": 1.0, "exponent": "2"},
           {"kind": "constant", "value": True},
           {"kind": "periodic", "values": [True, 0.5]}])},
    **{f"only {given}": ("ergodicity", {
        "sequence": {"kind": "constant", "matrix": RUNNING}, "schedules": [{"p": 0}],
        "threshold": 1e-8, "max_r": 5, given: {"kind": "constant", "value": 0.5}},
        f"missing required key {missing!r}")
       for given, missing in [("condition_C", "condition_D"),
                              ("condition_D", "condition_C")]},
    # a numpy warning would fail the test too (pytest turns it into an error)
    **{f"eigenvalue {v}": ("spectral", {"matrix": RUNNING, "eigenvalue": v},
                           "'eigenvalue' must be finite")
       for v in [float("nan"), float("inf"), [1.0, float("nan")]]},
}


@pytest.mark.parametrize("case", sorted(STRICT_KEYS))
def test_config_flags_and_numbers_must_be_json_booleans_and_numbers(tmp_path, capsys,
                                                                     case):
    sub, payload, message = STRICT_KEYS[case]
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert message in err["message"]
    assert not (tmp_path / f"{sub}.json").exists()


def test_product_threshold_may_be_null_or_an_integer(tmp_path):
    base = {"sequence": {"kind": "constant", "matrix": RUNNING},
            "schedules": [{"p": 0}], "max_r": 5}
    for threshold in (None, 1):
        cfg = write_config(tmp_path, "c.json", dict(base, threshold=threshold))
        assert main(["product", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        status = read_report(tmp_path, "product")["results"]["schedules"][0]["status"]
        assert status["threshold"] == (None if threshold is None else 1.0)


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, "n.json", {"matrix": [[1.0]]})
    # the child imports the same genprod, installed or not
    src = str(Path(genprod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "genprod", "norm", "--config", str(cfg),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["subcommand"] == "norm"


def test_ergodicity_repair_option(tmp_path):
    # drift above the validation tolerance: rejected without repair
    drifted = [[0.9 + 3e-8, 0.2], [0.1, 0.8 - 2e-8]]
    cfg = write_config(tmp_path, "r.json", {
        "sequence": {"kind": "constant", "matrix": drifted},
        "schedules": [{}],
        "threshold": 1e-4,
        "max_r": 40,
        "repair_columns": True,
    })
    assert main(["ergodicity", "--config", str(cfg), "--out", str(tmp_path),
                 "--name", "rep"]) == EXIT_OK
    rep = read_report(tmp_path, "rep")
    assert rep["results"]["runs"][0]["crossed_at"] is not None
    # without repair the same input is rejected
    cfg2 = write_config(tmp_path, "r2.json", {
        "sequence": {"kind": "constant",
                     "matrix": [[0.9 + 3e-7, 0.2], [0.1, 0.8]]},
        "schedules": [{}],
        "threshold": 1e-4,
        "max_r": 40,
    })
    assert main(["ergodicity", "--config", str(cfg2),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION


DRIFTED = [[[0.9 + 3e-8, 0.2], [0.1, 0.8 - 2e-8]],
           [[0.6, 0.5 + 4e-8], [0.4, 0.5]],
           [[0.7 - 1e-8, 0.3], [0.3, 0.7]]]


def _repair_config(tmp_path, name, matrices, **extra):
    return write_config(tmp_path, name, {
        "sequence": {"kind": "periodic", "matrices": matrices},
        "schedules": [{}, {"p": 1, "ordering": {"kind": "random", "seed": 2}}],
        "threshold": 1e-300, "max_r": 200, **extra})


def test_repair_columns_repairs_each_family_member_once(tmp_path, monkeypatch):
    from genprod import stochastic
    calls = []
    repair = stochastic.repair_stochastic
    monkeypatch.setattr(stochastic, "repair_stochastic",
                        lambda A: calls.append(1) or repair(A))
    cfg = _repair_config(tmp_path, "r.json", DRIFTED, repair_columns=True)
    assert main(["ergodicity", "--config", str(cfg), "--out", str(tmp_path),
                 "--name", "rep", "--format", "csv"]) == EXIT_OK
    assert len(calls) == 3


def test_repaired_family_reports_what_its_repaired_members_give(tmp_path):
    from genprod.stochastic import repair_stochastic
    cfg = _repair_config(tmp_path, "r.json", DRIFTED, repair_columns=True)
    repaired = [repair_stochastic(np.array(A)).tolist() for A in DRIFTED]
    cfg2 = _repair_config(tmp_path, "r2.json", repaired)
    for c, name in ((cfg, "rep"), (cfg2, "pre")):
        assert main(["ergodicity", "--config", str(c), "--out", str(tmp_path),
                     "--name", name, "--format", "csv"]) == EXIT_OK
    assert read_report(tmp_path, "rep")["results"] == \
        read_report(tmp_path, "pre")["results"]
    for trace in read_report(tmp_path, "rep")["traces"]:
        assert (tmp_path / f"rep-{trace}.csv").read_bytes() == \
            (tmp_path / f"pre-{trace}.csv").read_bytes()


def test_family_member_that_cannot_be_repaired_exits_2_before_any_step(
        tmp_path, capsys):
    # the third member needs far more than 1e-6 of adjustment; max_r = 1
    # never reaches it
    bad = DRIFTED[:2] + [[[0.5, 0.9], [0.5, 0.2]]]
    cfg = _repair_config(tmp_path, "r.json", bad, repair_columns=True, max_r=1)
    assert main(["ergodicity", "--config", str(cfg), "--out", str(tmp_path),
                 "--name", "bad"]) == EXIT_VALIDATION
    assert "column 1 needs adjustment" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


def test_overflowing_product_run_prints_no_numpy_warning(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", {
        "sequence": {"kind": "constant", "matrix": [[1e160, 0.0], [0.0, 1e160]]},
        "schedules": [{"p": 0}], "norm": {"kind": "l2"}, "max_r": 5,
    })
    assert main(["product", "--config", str(cfg), "--out", str(tmp_path)]) \
        == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"]["type"] \
        == "NumericalFailure"


def test_product_with_an_infinite_bound_writes_inf_envelope_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", {
        "sequence": {"kind": "list",
                     "matrices": [[[1e-200, 0.0], [0.0, 1e-200]]] * 2
                     + [[[1e200, 0.0], [0.0, 1e200]]] * 3},
        "schedules": [{"p": 0}], "norm": {"kind": "l1"}, "max_r": 5,
    })
    assert main(["product", "--config", str(cfg), "--out", str(tmp_path),
                 "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    rep = read_report(tmp_path, "product")
    assert rep["results"]["schedules"][0]["bound_M"] == "inf"
    (rows,) = [t["rows"] for t in rep["traces"].values()]
    assert [row[2] for row in rows] == ["inf"] * 5
    (csv_file,) = tmp_path.glob("product-*.csv")
    assert [line.split(",")[2] for line in csv_file.read_text().splitlines()[1:]] \
        == ["inf"] * 5


# ---------------------------------------------------------------------------
# non-finite inputs and numerical exits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sub", ["product", "ergodicity"])
@pytest.mark.parametrize("flag", [False, True])
def test_nan_threshold_exits_validation_without_a_report(tmp_path, capsys, sub, flag):
    # Python's json reads the NaN literal; the flag parses "nan" as a float
    cfg = write_config(tmp_path, "t.json", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{}],
        "threshold": 1e-3 if flag else float("nan"),
        "max_r": 10,
    })
    out = tmp_path / "out"
    argv = [sub, "--config", str(cfg), "--out", str(out)]
    assert main(argv + (["--threshold", "nan"] if flag else [])) == EXIT_VALIDATION
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["message"] == "threshold must be positive"


def test_nan_tail_model_exits_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{}],
        "threshold": 1e-3,
        "max_r": 10,
        "condition_C": {"kind": "p_series", "amplitude": float("nan"),
                        "exponent": 2.0},
        "condition_D": {"kind": "constant", "value": 0.5},
    })
    out = tmp_path / "out"
    assert main(["ergodicity", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError" and "must be finite" in err["message"]


NON_FINITE_CONFIGS = {
    "product threshold Infinity": ("product", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"p": 0}], "max_r": 5, "threshold": float("inf")}, []),
    "ergodicity threshold Infinity": ("ergodicity", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"p": 0}], "max_r": 5, "threshold": float("inf")}, []),
    "product --threshold inf": ("product", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"p": 0}], "max_r": 5}, ["--threshold", "inf"]),
    "ergodicity --threshold inf": ("ergodicity", {
        "sequence": {"kind": "constant", "matrix": RUNNING},
        "schedules": [{"p": 0}], "max_r": 5, "threshold": 1e-3},
        ["--threshold", "inf"]),
    "norm vector NaN": ("norm", {"matrix": RUNNING,
                                 "vector": [float("nan"), 1.0]}, []),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CONFIGS))
def test_non_finite_config_exits_validation_without_files(tmp_path, capsys, case):
    # such a report would echo "inf" or "nan" strings that replay rejects
    sub, payload, flags = NON_FINITE_CONFIGS[case]
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out), "--format", "csv",
                 *flags]) == EXIT_VALIDATION
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)["error"]
    assert err["type"] == "ConfigError" and "must be finite" in err["message"]
    assert not out.exists()


def test_non_invariant_subspace_exits_numerical_with_residual(tmp_path, capsys):
    cfg = write_config(tmp_path, "n.json", {
        "matrix": [[0.5, 0.2], [0.1, 0.3]],
        "subspace": {"kind": "mean_zero", "n": 2},
    })
    assert main(["norm", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "InvarianceError"
    assert err["detail"]["residual"] == pytest.approx(0.05)


def test_ambiguous_rank_in_an_audit_exits_numerical_with_gap(tmp_path, capsys):
    # the singular values 1.5e-10 and 0.9e-10 of I - A straddle the rank cutoff
    cfg = write_config(tmp_path, "c.json", {
        "matrix": np.diag([0.0, 1 - 1.5e-10, 1 - 0.9e-10]).tolist(),
        "audit": True,
    })
    assert main(["classify", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "RankAmbiguityError"
    assert err["detail"]["gap"] == pytest.approx(5 / 3)


# ---------------------------------------------------------------------------
# report writer
# ---------------------------------------------------------------------------

def assert_written_like_the_stdlib(tmp_path, report, fmt="csv"):
    path = cli._write_outputs(report, tmp_path, "w", fmt)
    expected = json.dumps(report, sort_keys=True, indent=1, allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    for tname, tr in report["traces"].items():
        csv_path = tmp_path / f"w-{tname}.csv"
        if fmt == "csv":
            assert csv_path.read_bytes() == \
                matio.csv_text(tr["columns"], tr["rows"]).encode("utf-8")
        else:
            assert not csv_path.exists()


def a_report(traces, config=None, results=None):
    return {"schema": "genprod.report/1", "subcommand": "product",
            "config": {"seed": 0} if config is None else config,
            "results": {} if results is None else results, "traces": traces}


AWKWARD_TEXT = 'a,b [c] {d} "q" \\ \x00 é中\U0001f600 rows traces ],[ \n\t'

WRITER_CASES = {
    "no traces": a_report({}),
    "empty trace": a_report({"x-0": {"columns": ["r", "omega"], "rows": []}}),
    "one row": a_report({"x-0": {"columns": ["r", "omega"], "rows": [[1, 0.5]]}}),
    "non-finite": a_report({"x-0": {"columns": ["r", "mu", "envelope"], "rows": [
        [1, "inf", "inf"], [2, "-inf", "nan"], [3, 1.0, "inf"]]}}),
    "extreme floats and ints": a_report({"x-0": {"columns": ["r", "mu"], "rows": [
        [1, -0.0], [2, 5e-324], [3, 2.2250738585072014e-308], [4, 1e308],
        [5, -1e308], [10 ** 30, 0.1 + 0.2], [-(10 ** 19), 1e-300], [0, 123456789.0]]}}),
    "several traces out of order": a_report({
        name: {"columns": ["r", "omega"], "rows": [[1, 0.25 * k], [2, 0.125]]}
        for k, name in enumerate(["b-0", "a-1", "x-10", "x-2", "rows-3", "traces-4"])}),
    "awkward config strings": a_report(
        {"x-0": {"columns": ["r", "mu"], "rows": [[1, 0.5], [2, 0.25]]}},
        config={"label": AWKWARD_TEXT, "traces": {"rows": [AWKWARD_TEXT]},
                AWKWARD_TEXT: [1, [2.5, {"rows": "],["}]], "seed": 0},
        results={"schedules": [{"label": AWKWARD_TEXT, "crossed_at": None,
                                "bound_M": "inf", "traces": ["rows"]}]}),
    "awkward trace names": a_report({
        'a,b [c] "q" \\ é rows-0': {"columns": ["r", "mu"], "rows": [[1, 0.5]]},
        "traces-1": {"columns": ["r", "mu"], "rows": [[1, 0.75], [2, "nan"]]}}),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_report_writer_equals_the_stdlib_dump(tmp_path, case):
    assert_written_like_the_stdlib(tmp_path, WRITER_CASES[case])


def test_report_writer_json_format_writes_no_csv(tmp_path):
    assert_written_like_the_stdlib(tmp_path, WRITER_CASES["non-finite"], fmt="json")


def test_report_writer_takes_any_trace_name_in_json(tmp_path):
    # NUL and "/" cannot be in a file name, but can be in a schedule label
    report = a_report({"a/\x00b-0": {"columns": ["r"], "rows": [[1], [2]]}})
    assert_written_like_the_stdlib(tmp_path, report, fmt="json")


def test_report_writer_property(tmp_path):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    value = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(["inf", "-inf", "nan"]))
    trace = st.integers(1, 4).flatmap(lambda k: st.fixed_dictionaries({
        "columns": st.lists(st.text(max_size=4), min_size=k, max_size=k),
        "rows": st.lists(st.lists(value, min_size=k, max_size=k), max_size=6)}))
    name = st.text(st.characters(blacklist_characters="/\x00",
                                 blacklist_categories=("Cs",)), min_size=1, max_size=12)
    config = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                  st.floats(allow_nan=False, allow_infinity=False)),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(st.text(max_size=6), inner, max_size=3)),
        max_leaves=12)

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(traces=st.dictionaries(name, trace, max_size=4),
               config=st.dictionaries(st.text(max_size=6), config, max_size=4))
    def prop(traces, config):
        out = tmp_path / "out"
        if out.exists():
            for f in out.iterdir():
                f.unlink()
        assert_written_like_the_stdlib(out, a_report(traces, config=config))

    prop()


@pytest.mark.parametrize("sub, payload", [
    ("product", {"sequence": {"kind": "constant", "matrix": [[1e160, 0.0], [0.0, 1e160]]},
                 "schedules": [{"p": 0}, {"ordering": {"kind": "right"}}],
                 "norm": {"kind": "l1"}, "max_r": 5, "threshold": None}),
    ("ergodicity", {"sequence": {"kind": "constant", "matrix": RUNNING},
                    "schedules": [{"p": 0, "label": "b"}, {"p": 1, "label": "a"}],
                    "threshold": 1e-6, "max_r": 60}),
])
def test_run_config_traces_are_json_ready_and_written_like_the_stdlib(tmp_path, sub,
                                                                      payload):
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_config(sub, payload, tmp_path)
    assert matio.to_jsonable(report) == report
    assert report["traces"] and all(tr["rows"] for tr in report["traces"].values())
    if sub == "product":
        assert report["traces"]["p0-identity-left-0"]["rows"] == [
            [1, 1e160, "inf"], [2, "inf", "inf"]]
    assert_written_like_the_stdlib(tmp_path, report)
