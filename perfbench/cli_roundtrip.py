"""Workload ``cli_roundtrip``: ``genprod.cli.main`` in-process, all five
subcommands, each report written with ``--format csv`` and replayed, then a
copy with one value changed replayed as a mismatch.  Config parsing, report
serialization, JSON and CSV writing and replay's comparison carry a large
share of the time; traces are of moderate length (r = 100..200).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from common import (Op, cli_main, exit_is, last_json, lazy_stochastic, rand_stochastic,
                    report_ops, write_json)

README_CONFIG = {
    "sequence": {"kind": "constant", "matrix": [[0.9, 0.2], [0.1, 0.8]]},
    "schedules": [{"p": 0,
                   "permutation": {"kind": "block_shuffle", "block": 3, "seed": 4},
                   "ordering": {"kind": "random", "seed": 11}}],
    "threshold": 1e-8, "max_r": 100, "seed": 42,
}


def _sched(rng, perm, order, p=0):
    out = {"p": p, "ordering": {"kind": order}}
    if order == "random":
        out["ordering"]["seed"] = int(rng.integers(1000))
    if perm == "prefix":
        out["permutation"] = {"kind": "prefix",
                              "values": [int(v) for v in rng.choice(np.arange(1, 9), 4,
                                                                    replace=False)]}
    elif perm == "block_shuffle":
        out["permutation"] = {"kind": "block_shuffle", "block": 4,
                              "seed": int(rng.integers(1000))}
    return out


def _product_configs(rng, workdir):
    out = {}
    norms = ("l1", "l2", "linf")
    plans = [
        ("constant", [("identity", "left"), ("prefix", "right")], 200),
        ("constant_file", [("identity", "right"), ("block_shuffle", "left")], 100),
        ("periodic", [("identity", "left"), ("prefix", "left")], 200),
        ("periodic_csv", [("identity", "right"), ("identity", "random")], 100),
        ("scaled_above", [("identity", "left"), ("prefix", "right")], 200),
        ("scaled_below", [("identity", "right"), ("block_shuffle", "right")], 100),
        ("list", [("identity", "left"), ("identity", "right")], 200),
        ("constant", [("prefix", "random"), ("identity", "left")], 120),
        ("periodic", [("block_shuffle", "left"), ("identity", "right")], 100),
        ("scaled_constant", [("identity", "left"), ("prefix", "left")], 200),
        ("periodic", [("prefix", "right"), ("identity", "left")], 200),
        ("constant", [("identity", "random"), ("prefix", "left")], 100),
    ]
    for i, (kind, scheds, max_r) in enumerate(plans):
        n = 2 + i % 5
        if kind in ("constant", "constant_file"):
            A = rand_stochastic(rng, n)
            seq = {"kind": "constant", "matrix": A.tolist()}
            if kind == "constant_file":
                write_json(workdir / f"product{i}-A.json", A.tolist())
                seq["matrix"] = {"file": f"product{i}-A.json"}
        elif kind in ("periodic", "periodic_csv"):
            mats = [rand_stochastic(rng, n) for _ in range(3)]
            seq = {"kind": "periodic", "matrices": [m.tolist() for m in mats]}
            if kind == "periodic_csv":
                refs = []
                for j, m in enumerate(mats):
                    lines = [f"n,{n}"] + [",".join(repr(float(v)) for v in row) for row in m]
                    (workdir / f"product{i}-{j}.csv").write_text("\n".join(lines) + "\n")
                    refs.append({"file": f"product{i}-{j}.csv"})
                seq["matrices"] = refs
        elif kind == "list":
            seq = {"kind": "list",
                   "matrices": [rand_stochastic(rng, n).tolist() for _ in range(max_r + 5)]}
        else:
            scale = {"scaled_above": {"kind": "p_series", "amplitude": 1.0, "exponent": 2.0,
                                      "side": "above"},
                     "scaled_below": {"kind": "p_series", "amplitude": 0.5, "exponent": 1.0,
                                      "side": "below"},
                     "scaled_constant": {"kind": "constant", "value": 0.95}}[kind]
            seq = {"kind": "scaled", "matrix": rand_stochastic(rng, n).tolist(),
                   "scale": scale}
        out[f"product{i}"] = ("product", {
            "sequence": seq, "norm": {"kind": norms[i % 3]}, "max_r": max_r,
            "schedules": [_sched(rng, p, o, p=j) if p != "block_shuffle"
                          else _sched(rng, p, o) for j, (p, o) in enumerate(scheds)],
            "threshold": 1e-30 if i % 4 == 3 else None,
            "seed": int(rng.integers(1000))})
    return out


def _ergodicity_configs(rng, workdir):
    out = {"ergodicity_readme": ("ergodicity", dict(README_CONFIG))}
    plans = [
        ("constant", [("identity", "left"), ("block_shuffle", "random")], 100),
        ("periodic", [("identity", "left"), ("prefix", "right")], 200),
        ("periodic", [("identity", "random"), ("prefix", "left")], 100),
        ("constant", [("prefix", "right"), ("identity", "right")], 200),
        ("periodic", [("block_shuffle", "left")], 100),
        ("constant", [("identity", "left")], 200),
        ("periodic", [("identity", "right"), ("identity", "left")], 200),
    ]
    for i, (kind, scheds, max_r) in enumerate(plans):
        n = 3 + i % 4
        count = 1 if kind == "constant" else 3
        mats = [lazy_stochastic(rng, n, 0.1).tolist() for _ in range(count)]
        seq = {"kind": "constant", "matrix": mats[0]} if kind == "constant" \
            else {"kind": "periodic", "matrices": mats}
        cfg = {"sequence": seq, "threshold": 1e-12, "max_r": max_r,
               "schedules": [_sched(rng, p, o) for p, o in scheds],
               "seed": int(rng.integers(1000))}
        if i % 3 == 0:
            cfg["condition_C"] = {"kind": "constant", "value": 0.95}
            cfg["condition_D"] = {"kind": "p_series", "amplitude": 0.5, "exponent": 1.0,
                                  "side": "below"}
        if i == 1:
            cfg["repair_columns"] = True
        out[f"ergodicity{i}"] = ("ergodicity", cfg)
    return out


def _semisimple(rng, n):
    d = int(rng.integers(1, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    C = rng.standard_normal((d, d))
    C *= rng.uniform(0.2, 0.8) / np.linalg.norm(C, 2)
    return Q[:, :d] @ C @ Q[:, :d].T + Q[:, d:] @ Q[:, d:].T


def _single_matrix_configs(rng):
    out = {}
    for i, (norm, n) in enumerate((("l1", 6), ("l2", 8), ("linf", 6), ("weighted_l1", 5),
                                   ("additive", 4), ("l1", 10))):
        P = rand_stochastic(rng, n)
        cfg = {"matrix": P.tolist(), "subspace": {"kind": "mean_zero", "n": n},
               "vector": rng.standard_normal(n).tolist(), "samples": 256,
               "seed": int(rng.integers(1000))}
        if norm == "weighted_l1":
            cfg["norm"] = {"kind": norm, "weights": rng.uniform(0.5, 2, n).tolist()}
        elif norm == "additive":
            cfg["norm"] = {"kind": "additive", "base": {"kind": "l1"},
                           "H": {"kind": "mean_zero", "n": n},
                           "K": {"kind": "span", "vectors": [[1.0] * n]}}
        else:
            cfg["norm"] = {"kind": norm}
        out[f"norm{i}"] = ("norm", cfg)
    classify = [
        {"matrix": _semisimple(rng, 6).tolist(), "norm": {"kind": "l2"}, "audit": True},
        {"matrix": rand_stochastic(rng, 5).tolist(), "norm": {"kind": "l1"},
         "subspace": {"kind": "mean_zero", "n": 5}, "audit": True},
        {"matrix": np.eye(4).tolist(), "norm": {"kind": "l1"}},
        {"matrix": _semisimple(rng, 8).tolist(), "norm": {"kind": "l2"}, "audit": True,
         "proof_samples": 200},
        {"matrix": rand_stochastic(rng, 7).tolist(), "norm": {"kind": "linf"},
         "subspace": {"kind": "mean_zero", "n": 7}},
    ]
    for i, cfg in enumerate(classify):
        cfg.update(budget=512, seed=int(rng.integers(1000)))
        out[f"classify{i}"] = ("classify", cfg)
    spectral = [
        {"matrix": rand_stochastic(rng, 6).tolist(), "eigenvalue": 1.0,
         "subspace": {"kind": "mean_zero", "n": 6}, "high_modulus": True,
         "stochastic_simple_one": True},
        {"matrix": rand_stochastic(rng, 9).tolist(), "eigenvalue": 1.0,
         "subspace": {"kind": "mean_zero", "n": 9}, "high_modulus": True,
         "norm": {"kind": "l1"}},
        {"matrix": _semisimple(rng, 6).tolist(), "eigenvalue": 1.0},
        {"matrix": rand_stochastic(rng, 12).tolist(), "eigenvalue": 1.0,
         "stochastic_simple_one": True},
    ]
    for i, cfg in enumerate(spectral):
        cfg["seed"] = int(rng.integers(1000))
        out[f"spectral{i}"] = ("spectral", cfg)
    return out


def _csv_matches(report_path: Path, name: str) -> list[str]:
    report = json.loads(report_path.read_text())
    bad = []
    for tname, tr in report["traces"].items():
        lines = (report_path.parent / f"{name}-{tname}.csv").read_text().splitlines()
        if lines[0] != ",".join(tr["columns"]) or len(lines) - 1 != len(tr["rows"]):
            bad.append(f"{tname}: CSV header or length differs from the JSON trace")
            continue
        for line, row in zip(lines[1:], tr["rows"]):
            if [float(c) for c in line.split(",")] != [float(v) for v in row]:
                bad.append(f"{tname}: CSV row {line} differs from JSON {row}")
                break
    return bad


def _tamper(report_path: Path, copy_path: Path):
    copy_path.unlink(missing_ok=True)
    if not report_path.exists():  # the run failed; the replay then fails too
        return
    report = json.loads(report_path.read_text())
    if report["traces"]:
        rows = next(iter(report["traces"].values()))["rows"]
        row = rows[len(rows) // 2]
        row[1] = row[1] * (1 + 1e-9) + 1e-300
    else:
        stack = [report["results"]]
        while stack:
            node = stack.pop()
            items = node.items() if isinstance(node, dict) else enumerate(node)
            hit = next(((k, v) for k, v in items if isinstance(v, float)), None)
            if hit:
                node[hit[0]] = hit[1] * (1 + 1e-9) + 1e-300
                break
            stack.extend(v for v in (node.values() if isinstance(node, dict) else node)
                         if isinstance(v, (dict, list)))
    copy_path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")


def _roundtrip_ops(name, sub, cfg, workdir):
    """Report and replay, then a tampered copy of the report replayed."""
    report = workdir / f"{name}-out.json"
    copy = workdir / f"{name}-tampered.json"

    def report_check(path):
        bad = _csv_matches(path, f"{name}-out")
        if name == "ergodicity_readme":
            crossed = json.loads(path.read_text())["results"]["runs"][0]["crossed_at"]
            if crossed != 52:
                bad.append(f"README example crossed at {crossed}, not 52")
        return bad

    return report_ops(name, sub, cfg, workdir, report_check) + [
        Op(f"{name}.replay_tampered", lambda: cli_main(["replay", "--report", str(copy)]),
           exit_is(1, lambda o: [] if last_json(o[1]).get("replay") == "mismatch"
                   else ["tampered replay did not report a mismatch"]),
           kind="replay", prepare=lambda: _tamper(report, copy)),
    ]


def _error_ops(rng, workdir):
    """Failure paths with documented exit codes; inputs do not depend on the seed."""
    bad_stoch = [[0.5, 0.2], [0.4, 0.8]]
    cases = {
        "err_not_stochastic": ("ergodicity", {
            "sequence": {"kind": "constant", "matrix": bad_stoch},
            "schedules": [{"p": 0}], "threshold": 1e-8, "max_r": 10}, 2, None),
        "err_overflow": ("product", {
            "sequence": {"kind": "constant", "matrix": [[10.0, 0.0], [0.0, 10.0]]},
            "schedules": [{"p": 0}], "norm": {"kind": "l1"}, "max_r": 400}, 3, None),
        "err_short_list": ("product", {
            "sequence": {"kind": "list", "matrices": [[[0.5, 0.5], [0.5, 0.5]]] * 5},
            "schedules": [{"p": 0}], "norm": {"kind": "l1"}, "max_r": 20}, 2,
            "an exhausted list sequence raises IndexError out of cli.main "
            "(a traceback and exit 1 as a script) instead of exit 2"),
        "err_l2_overflow": ("product", {
            "sequence": {"kind": "constant", "matrix": [[1e160, 0.0], [0.0, 1e160]]},
            "schedules": [{"p": 0}], "norm": {"kind": "l2"}, "max_r": 5}, 3,
            "a product that overflows to inf exits 2 ('non-finite entries') "
            "instead of the documented 3"),
    }
    ops = []
    for name, (sub, cfg, code, fault) in cases.items():
        path = workdir / f"{name}.json"
        write_json(path, cfg)
        argv = [sub, "--config", str(path), "--out", str(workdir), "--name", f"{name}-out"]
        ops.append(Op(f"{name}", lambda a=argv: cli_main(a), exit_is(code), fault=fault))
    # A supplied config that differs from the embedded one is a validation error.
    other = workdir / "err_config_mismatch.json"
    write_json(other, dict(README_CONFIG, max_r=99))
    ops.append(Op("err_config_mismatch",
                  lambda: cli_main(["replay", "--report",
                                    str(workdir / "ergodicity_readme-out.json"),
                                    "--config", str(other)]),
                  exit_is(2), kind="replay"))
    return ops


def build(seed: int, workdir, stats) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    configs = {}
    configs.update(_product_configs(rng, workdir))
    configs.update(_ergodicity_configs(rng, workdir))
    configs.update(_single_matrix_configs(rng))
    ops = []
    for name, (sub, cfg) in configs.items():
        ops.extend(_roundtrip_ops(name, sub, cfg, workdir))
    return ops + _error_ops(rng, workdir)
