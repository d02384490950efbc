"""Experiment runner: every subsystem behind one seeded, replayable CLI.

Runs are driven by a JSON config; the emitted report embeds the schema
version and the fully resolved config (seed included), so ``replay`` can
re-execute any report and verify that the traces come out byte-identical.

Exit codes: 0 completed, 1 replay mismatch, 2 validation error, 3 numerical
failure (overflow, non-invariant subspace, ambiguous rank or cluster
decisions).  Errors are also written as one structured JSON object to
stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import contraction, matio, products, spectral, stochastic
from .norms import (
    InvarianceError,
    RankAmbiguityError,
    as_vector,
    operator_norm,
    partial_norm,
    vector_norm,
)

SCHEMA = "genprod.report/1"

EXIT_OK = 0
EXIT_REPLAY_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class NumericalFailure(RuntimeError):
    """Raised by runners for in-band numerical trouble (e.g. trace overflow)."""


_VALIDATION_ERRORS = (matio.ConfigError, stochastic.StochasticityError,
                      ValueError, KeyError, TypeError)
_NUMERICAL_ERRORS = (InvarianceError, RankAmbiguityError, NumericalFailure,
                     spectral.MultiplicityAmbiguityError,
                     spectral.HighModulusViolation,
                     np.linalg.LinAlgError, FloatingPointError, OverflowError)


def _canonical_json(obj) -> str:
    """Compact sorted JSON of an already JSON-ready value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _emit_error(exc: BaseException) -> None:
    detail = {}
    if isinstance(exc, stochastic.StochasticityError):
        detail["column"] = exc.column
    if isinstance(exc, InvarianceError):
        detail["residual"] = exc.residual
    if isinstance(exc, RankAmbiguityError):
        detail["gap"] = exc.gap
    payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                         "detail": detail}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Runners: config -> (results, traces)
# ---------------------------------------------------------------------------

def _trace(columns: list, *arrays) -> dict:
    """A JSON-ready trace: the column names, and a row per step of the column
    arrays with a non-finite float as a string (see :func:`_write_outputs`)."""
    cols = [matio.to_jsonable(a) for a in arrays]
    return {"columns": columns, "rows": [list(row) for row in zip(*cols)]}


def run_norm(config: dict, base_dir: Path) -> tuple[dict, dict]:
    A = matio.matrix_from_config(matio.require(config, "matrix"), base_dir)
    norm = matio.norm_from_config(config.get("norm", {"kind": "l1"}))
    seed = config["seed"]
    results = {"dimension": A.shape[0],
               "operator_norm": operator_norm(A, norm, seed=seed)}
    if "vector" in config:
        x = as_vector(matio.vector_from_jsonable(config["vector"]), A.shape[0])
        results["vector_norm"] = vector_norm(x, norm)
    if "subspace" in config:
        H = matio.subspace_from_config(config["subspace"])
        samples = matio.json_int(config.get("samples", 4096),
                                 "config key 'samples'")
        res = partial_norm(A, H, norm, seed=seed, samples=samples)
        results["partial_norm"] = res
    return results, {}


def run_classify(config: dict, base_dir: Path) -> tuple[dict, dict]:
    A = matio.matrix_from_config(matio.require(config, "matrix"), base_dir)
    norm = matio.norm_from_config(config.get("norm", {"kind": "l1"}))
    seed = config["seed"]
    budget = matio.json_int(config.get("budget", 2048), "config key 'budget'")
    results = {
        "nonexpansive": contraction.is_nonexpansive(A, norm, seed=seed,
                                                    samples=budget),
        "paracontracting": contraction.check_paracontracting(A, norm, budget,
                                                             seed=seed),
    }
    if "subspace" in config:
        H = matio.subspace_from_config(config["subspace"])
        results["h_contractor"] = contraction.check_H_contractor(
            A, H, norm, samples=budget, seed=seed)
    if matio.json_bool(config.get("audit", False), "config key 'audit'"):
        results["audit"] = contraction.equiv_theorem_audit(
            A, norm, budget=budget, seed=seed,
            proof_samples=matio.json_int(config.get("proof_samples", 0),
                                         "config key 'proof_samples'"))
    return results, {}


def run_product(config: dict, base_dir: Path) -> tuple[dict, dict]:
    seq = matio.sequence_from_config(matio.require(config, "sequence"), base_dir)
    norm = matio.norm_from_config(config.get("norm", {"kind": "l1"}))
    max_r = matio.json_int(matio.require(config, "max_r"), "config key 'max_r'")
    threshold = None if config.get("threshold") is None else \
        matio.json_float(config["threshold"], "config key 'threshold'")
    scheds = [matio.schedule_from_config(s)
              for s in matio.require(config, "schedules")]
    results, traces = {"schedules": []}, {}
    overflowed = False
    for i, sched in enumerate(scheds):
        trace = products.monitor_convergence(seq, sched, norm, threshold, max_r)
        name = f"{sched.label}-{i}"
        traces[name] = _trace(["r", "mu", "envelope"], trace.rs, trace.mus, trace.envelope)
        overflowed = overflowed or trace.overflow_at is not None
        results["schedules"].append({
            "label": sched.label,
            "schedule": matio.schedule_to_config(sched),
            "status": trace.status,
            "bound_M": trace.bound_M,
            "crossed_at": trace.crossed_at,
            "overflow_at": trace.overflow_at,
            "clamped_from": trace.clamped_from,
        })
    if overflowed:
        results["numerical_failure"] = "trace overflow"
    return results, traces


def run_ergodicity(config: dict, base_dir: Path) -> tuple[dict, dict]:
    seq = matio.sequence_from_config(matio.require(config, "sequence"), base_dir)
    if matio.json_bool(config.get("repair_columns", False), "config key 'repair_columns'"):
        seq = seq.map_factors(stochastic.repair_stochastic, f"{seq.name}|repaired")
    max_r = matio.json_int(matio.require(config, "max_r"), "config key 'max_r'")
    threshold = matio.json_float(matio.require(config, "threshold"),
                                 "config key 'threshold'")
    scheds = [matio.schedule_from_config(s)
              for s in matio.require(config, "schedules")]
    report = stochastic.weak_ergodicity_experiment(seq, scheds, threshold, max_r)
    results, traces = {"threshold": threshold, "runs": []}, {}
    for i, run in enumerate(report.runs):
        name = f"{run.schedule.label}-{i}"
        traces[name] = _trace(["r", "omega"], run.rs, run.coefficients)
        results["runs"].append({
            "label": run.schedule.label,
            "schedule": matio.schedule_to_config(run.schedule),
            "status": run.status,
            "crossed_at": run.crossed_at,
            "consistent_with_weak_ergodicity": run.consistent_with_weak_ergodicity,
        })
    if "condition_C" in config or "condition_D" in config:
        results["conditions"] = stochastic.wkerg_condition_check(
            matio.tail_model_from_config(matio.require(config, "condition_C")),
            matio.tail_model_from_config(matio.require(config, "condition_D")))
    return results, traces


def run_spectral(config: dict, base_dir: Path) -> tuple[dict, dict]:
    A = matio.matrix_from_config(matio.require(config, "matrix"), base_dir)
    lam = complex(matio.vector_from_jsonable([matio.require(config, "eigenvalue")])[0])
    if not np.isfinite(lam):
        raise matio.ConfigError(f"config key 'eigenvalue' must be finite, got {lam}")
    results: dict = {
        "multiplicities": spectral.multiplicities(A, lam),
        "eigenvalue_one_semisimple": spectral.eigenvalue_one_semisimple(A),
    }
    if "subspace" in config:
        H = matio.subspace_from_config(config["subspace"])
        results["bounds"] = spectral.check_multiplicity_bounds(A, H, lam)
        if matio.json_bool(config.get("high_modulus", False), "config key 'high_modulus'"):
            norm = matio.norm_from_config(config.get("norm", {"kind": "l1"}))
            results["high_modulus"] = spectral.high_modulus_bound(
                A, H, norm, lam, seed=config["seed"])
    if matio.json_bool(config.get("stochastic_simple_one", False),
                       "config key 'stochastic_simple_one'"):
        results["simple_one"] = spectral.stochastic_simple_one(A)
    return results, {}


RUNNERS = {
    "norm": run_norm,
    "classify": run_classify,
    "product": run_product,
    "ergodicity": run_ergodicity,
    "spectral": run_spectral,
}


def run_config(subcommand: str, config: dict, base_dir: Path) -> dict:
    """Execute one subcommand and assemble the report, already JSON-ready:
    ``config`` as read (with its seed), ``results`` through
    :func:`matio.to_jsonable`, and ``traces`` as the runners built them (see
    :func:`_trace`)."""
    if subcommand not in RUNNERS:
        raise matio.ConfigError(f"unknown subcommand {subcommand!r}")
    if not isinstance(config, dict):
        raise matio.ConfigError("config must be a JSON object")
    resolved = dict(config)
    resolved["seed"] = matio.json_int(resolved.get("seed", 0), "config key 'seed'")
    results, traces = RUNNERS[subcommand](resolved, base_dir)
    return {"schema": SCHEMA, "subcommand": subcommand, "config": resolved,
            "results": matio.to_jsonable(results), "traces": traces}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genprod",
        description="norm, contraction, product-convergence, ergodicity and "
                    "eigenvalue experiments with replayable seeded runs")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory "
                       "(default: $GENPROD_OUT or the working directory)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="csv additionally writes one CSV file per trace")
        p.add_argument("--name", default=None, help="report file stem")
        if name in ("product", "ergodicity"):
            p.add_argument("--max-r", type=int, default=None)
            p.add_argument("--threshold", type=float, default=None)
    rp = sub.add_parser("replay")
    rp.add_argument("--report", required=True, help="report JSON to re-execute")
    rp.add_argument("--config", default=None,
                    help="optional config file that must match the report's")
    return parser


def _out_dir(arg) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get("GENPROD_OUT")
    return Path(env) if env else Path.cwd()


def _write_outputs(report: dict, out_dir: Path, name: str, fmt: str) -> Path:
    """Write ``json.dumps(report, sort_keys=True, indent=1, allow_nan=False)``
    and a newline; with fmt "csv", also ``matio.csv_text`` of each trace.  The
    rows of a trace are encoded once, then indented or unquoted into CSV: a
    row value (an int, a float, "inf", "-inf" or "nan") holds no comma,
    bracket or quote, a trace only "columns" and "rows"; "traces" sorts last.
    The config is echoed as read, so a NaN or Infinity in it is a ConfigError,
    raised before any file is written."""
    try:
        head = json.dumps({k: v for k, v in report.items() if k != "traces"},
                          sort_keys=True, indent=1, allow_nan=False)[:-2]
    except ValueError:
        raise matio.ConfigError("config numbers must be finite: NaN and "
                                "Infinity cannot be replayed") from None
    traces = []
    for tname, tr in sorted(report["traces"].items()):
        block = json.dumps(tr["rows"], separators=(",", ":"), allow_nan=False)[2:-2]
        rows = block.replace(",", ",\n     ").replace("],\n     [",
                                                      "\n    ],\n    [\n     ")
        rows = f"[\n    [\n     {rows}\n    ]\n   ]" if block else "[]"
        columns = json.dumps(tr["columns"], indent=1).replace("\n", "\n   ")
        traces.append(f'{json.dumps(tname)}: {{\n   "columns": {columns},\n'
                      f'   "rows": {rows}\n  }}')
        if fmt == "csv":
            csv_rows = block.replace('"', "").replace("],[", "\n") + "\n" if block else ""
            _atomic_write(out_dir / f"{name}-{tname}.csv",
                          ",".join(tr["columns"]) + "\n" + csv_rows)
    body = "{\n  " + ",\n  ".join(traces) + "\n }" if traces else "{}"
    report_path = out_dir / f"{name}.json"
    _atomic_write(report_path, f'{head},\n "traces": {body}\n}}\n')
    return report_path


def _read_json(path: Path, what: str, **kwargs):
    """The JSON object in a config or report file.  A file that cannot be
    read or parsed, or holds no object, is a ConfigError."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"), **kwargs)
    except (OSError, ValueError) as e:  # missing, unreadable, not UTF-8 or not JSON
        raise matio.ConfigError(f"cannot read {what} file {path}: {e}") from None
    if not isinstance(value, dict):
        raise matio.ConfigError(f"{what} must be a JSON object")
    return value


def _cmd_run(args) -> int:
    cfg_path = Path(args.config)
    config = _read_json(cfg_path, "config")
    for key in ("seed", "max_r", "threshold"):
        if vars(args).get(key) is not None:
            config[key] = vars(args)[key]
    report = run_config(args.subcommand, config, cfg_path.parent)
    name = args.name or config.get("name") or args.subcommand
    path = _write_outputs(report, _out_dir(args.out), name, args.format)
    print(json.dumps({"report": str(path),
                      "subcommand": args.subcommand}, sort_keys=True))
    if report["results"].get("numerical_failure"):
        raise NumericalFailure(report["results"]["numerical_failure"])
    return EXIT_OK


def _cmd_replay(args) -> int:
    rp = Path(args.report)
    # A NaN or Infinity literal (in a report written before strict JSON, or in
    # a supplied config) parses to the string that matio.to_jsonable writes.
    read = functools.partial(_read_json, parse_constant=lambda c: matio.to_jsonable(float(c)))
    stored = read(rp, "report")
    for key in ("schema", "subcommand", "config", "results", "traces"):
        if key not in stored:
            raise matio.ConfigError(f"report is missing {key!r}; cannot replay")
    if stored["schema"] != SCHEMA:
        raise matio.ConfigError(
            f"report schema {stored['schema']!r} does not match {SCHEMA!r}")
    if "seed" not in stored["config"]:
        raise matio.ConfigError("report config carries no seed; cannot replay")
    if args.config is not None:
        supplied = read(Path(args.config), "config")
        supplied.setdefault("seed", 0)
        if _canonical_json(supplied) != _canonical_json(stored["config"]):
            raise matio.ConfigError(
                "supplied config does not match the report's embedded config "
                "(replaying a run under a different config is not allowed)")
    fresh = run_config(stored["subcommand"], stored["config"], rp.parent)
    diffs = [section for section in ("results", "traces")
             if _canonical_json(fresh[section]) != _canonical_json(stored[section])]
    print(json.dumps({"replay": "mismatch" if diffs else "match",
                      "report": str(rp)}, sort_keys=True))
    if diffs:
        print(json.dumps({"error": {"type": "ReplayMismatch",
                                    "message": f"sections differ: {diffs}",
                                    "detail": {}}}, sort_keys=True),
              file=sys.stderr)
        return EXIT_REPLAY_MISMATCH
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "replay":
            return _cmd_replay(args)
        return _cmd_run(args)
    except _NUMERICAL_ERRORS as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        _emit_error(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
