"""What the three workloads share: operations, per-round statistics and
in-process CLI calls."""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

EPS = float(np.finfo(float).eps)


@dataclass
class Op:
    """One timed operation and the check of its output.

    ``check(output)`` returns the list of violated expectations.  ``fault``
    names a known defect of genprod that makes this operation fail on every
    run; such a failure is counted in ``failed`` without making the run
    incorrect.  ``kind`` is "op", "report" (a CLI run writing a report) or
    "replay".  ``prepare`` runs untimed just before the operation.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    fault: str | None = None
    kind: str = "op"
    prepare: Callable[[], None] | None = None


@dataclass
class RoundStats:
    """Per-layer figures that the workloads' own code measures each round."""

    scalar_evals: int = 0
    batch_evals: int = 0
    max_rel_gap: float = 0.0

    def reset(self):
        self.scalar_evals = 0
        self.batch_evals = 0
        self.max_rel_gap = 0.0


def cli_main(argv: list[str]) -> tuple[int, str, str]:
    """Call ``genprod.cli.main`` in-process, capturing what it prints."""
    from genprod import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def exit_is(code: int, extra=None):
    """Check of a ``cli_main`` result: the exit code, then ``extra(out)``."""
    def check(out):
        got, stdout, stderr = out
        bad = [] if got == code else [f"exit {got}, documented {code}: {stderr[-300:]}"]
        if not bad and extra:
            bad.extend(extra(out))
        return bad
    return check


def report_ops(name, sub, cfg, workdir, report_check=None) -> list[Op]:
    """Write ``cfg``, run ``genprod <sub>`` on it with ``--format csv`` (a
    "report" operation), then replay the report (a "replay" operation)."""
    cfg_path = workdir / f"{name}.json"
    write_json(cfg_path, cfg)
    report = workdir / f"{name}-out.json"
    argv = [sub, "--config", str(cfg_path), "--out", str(workdir), "--name",
            f"{name}-out", "--format", "csv"]

    def named(out):
        bad = [] if last_json(out[1]).get("report") == str(report) \
            else ["stdout does not name the report"]
        return bad + (report_check(report) if report_check else [])

    return [
        Op(f"{name}.report", lambda: cli_main(argv), exit_is(0, named), kind="report"),
        Op(f"{name}.replay", lambda: cli_main(["replay", "--report", str(report)]),
           exit_is(0, lambda o: [] if last_json(o[1]).get("replay") == "match"
                   else ["replay did not match"]), kind="replay"),
    ]


def close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def write_json(path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def rand_stochastic(rng, n: int) -> np.ndarray:
    """Column-stochastic matrix with Dirichlet(1) columns."""
    return rng.dirichlet(np.ones(n), size=n).T


def lazy_stochastic(rng, n: int, eps: float) -> np.ndarray:
    """(1 - eps) I + eps S: a slowly mixing column-stochastic matrix."""
    return (1.0 - eps) * np.eye(n) + eps * rand_stochastic(rng, n)
