"""Layered benchmark for genprod.

    python3 perfbench/run.py --workload trace_stream --seed 1 --seconds 40 --trace 0

Runs whole rounds of one workload's fixed operations in-process until
``--seconds`` would be exceeded, checks every output of every round, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` the rounds
alternate between untraced and traced, and it holds the per-layer metrics
and the tracing overhead.  See README.md in this directory.
"""
from __future__ import annotations

import os

# One BLAS thread: with OpenBLAS's default of two on a 2-core machine, small
# LAPACK calls spend most of their time waiting for the second thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("trace_stream", "verdict_sampling", "cli_roundtrip")
SETUP_REPEATS = 5
IMPORT_CHILDREN = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB", "report_p50_ms": "ms",
                    "replay_p50_ms": "ms"}

# Per-layer metrics: (name, unit, source).  Sources: "self:<span>" median
# self time, "total:<span>" median total time, "count:<counter>" per-round
# count, "stat:<field>" a figure the workload's own code measured.
PER_LAYER = [
    ("norms.operator_norm.calls", "count", "count:norms.operator_norm.calls"),
    ("norms.operator_norm.self_s", "s", "self:norms.operator_norm"),
    ("norms.partial_norm.closed.calls", "count", "count:norms.partial_norm.closed.calls"),
    ("norms.partial_norm.closed.self_s", "s", "self:norms.partial_norm.closed"),
    ("norms.partial_norm.sampled.calls", "count", "count:norms.partial_norm.sampled.calls"),
    ("norms.partial_norm.sampled.self_s", "s", "self:norms.partial_norm.sampled"),
    ("norms.partial_norm.sampled.probes", "count", "count:norms.partial_norm.sampled.probes"),
    ("norms.custom_norm.scalar_evals", "count", "stat:scalar_evals"),
    ("norms.custom_norm.batch_evals", "count", "stat:batch_evals"),
    ("norms.sampled.max_rel_gap", "ratio", "stat:max_rel_gap"),
    ("norms.splits.calls", "count", "count:norms.splits.calls"),
    ("norms.splits.self_s", "s", "self:norms.splits"),
    ("products.stream.steps", "count", "count:products.stream.steps"),
    ("products.stream.self_s", "s", "self:products.stream"),
    ("products.index_at.calls", "count", "count:products.index_at.calls"),
    ("products.factor.calls", "count", "count:products.factor.calls"),
    ("products.monitor.self_s", "s", "self:products.monitor"),
    ("stochastic.experiment.self_s", "s", "self:stochastic.experiment"),
    ("stochastic.coefficient.calls", "count", "count:stochastic.coefficient.calls"),
    ("stochastic.coefficient.self_s", "s", "self:stochastic.coefficient"),
    ("stochastic.validate.calls", "count", "count:stochastic.validate.calls"),
    ("contraction.nonexpansive.self_s", "s", "self:contraction.nonexpansive"),
    ("contraction.paracontracting.self_s", "s", "self:contraction.paracontracting"),
    ("contraction.l_paracontracting.self_s", "s", "self:contraction.l_paracontracting"),
    ("contraction.h_contractor.self_s", "s", "self:contraction.h_contractor"),
    ("contraction.audit.self_s", "s", "self:contraction.audit"),
    ("contraction.verdicts.certified", "count", "count:contraction.verdicts.certified"),
    ("contraction.verdicts.falsified", "count", "count:contraction.verdicts.falsified"),
    ("contraction.verdicts.inconclusive", "count", "count:contraction.verdicts.inconclusive"),
    ("spectral.calls", "count", "count:spectral.calls"),
    ("spectral.self_s", "s", "self:spectral"),
    ("matio.parse.self_s", "s", "self:matio.parse"),
    ("matio.to_jsonable.calls", "count", "count:matio.to_jsonable.calls"),
    ("matio.to_jsonable.self_s", "s", "self:matio.to_jsonable"),
    ("cli.run_config.self_s", "s", "self:cli.run_config"),
    ("cli.write.self_s", "s", "self:cli.write"),
    ("cli.replay.compare_s", "s", "total:cli.canonical_json"),
    ("cli.report_bytes", "bytes", "count:cli.report_bytes"),
    ("trace.overhead_s", "s", None),
]


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_seconds_in_child() -> float:
    """Time ``import genprod`` inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import genprod; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def warm_up():
    """First calls into each LAPACK routine the workloads use."""
    import numpy as np
    M = np.random.default_rng(0).random((6, 6))
    np.linalg.svd(M)
    np.linalg.eigh(M + M.T)
    np.linalg.eigvals(M)
    np.linalg.qr(M)
    np.linalg.inv(M + 6 * np.eye(6))
    np.linalg.solve(M + 6 * np.eye(6), np.ones(6))


def percentile(values, q):
    """The q-quantile by linear interpolation between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_round(ops, stats):
    """Run every operation once; return per-op (wall, cpu) and outputs."""
    stats.reset()
    times, outputs = [], []
    for op in ops:
        if op.prepare:
            op.prepare()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out, exc = op.run(), None
        except Exception as e:  # an operation that raises has failed
            out, exc = None, e
        times.append((time.perf_counter() - w0, time.process_time() - c0))
        outputs.append((out, exc))
    return times, outputs


def check_round(ops, outputs):
    """Failed count and the list of failures that no known fault explains."""
    failed, unexpected = 0, []
    for op, (out, exc) in zip(ops, outputs):
        if exc is not None:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            try:
                problems = op.check(out)
            except Exception as e:
                problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            failed += 1
            if op.fault is None:
                unexpected.append(f"{op.name}: {'; '.join(problems)}")
    return failed, unexpected


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "genprod" / "__init__.py").is_file():
        return fail(f"no genprod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import genprod
    import_times = [time.perf_counter() - t0]
    if Path(genprod.__file__).resolve().parent != (SRC / "genprod").resolve():
        return fail(f"imported genprod from {genprod.__file__}, not from {SRC}")
    import common
    from tracer import Tracer
    module = __import__(args.workload)
    for _ in range(IMPORT_CHILDREN):
        import_times.append(import_seconds_in_child())

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        stats = common.RoundStats()
        build_times = []
        for _ in range(SETUP_REPEATS):
            b0 = time.perf_counter()
            ops = module.build(args.seed, workdir, stats)
            warm_up()
            build_times.append(time.perf_counter() - b0)
        setup_s = statistics.median(import_times) + statistics.median(build_times)
        return measure(args, ops, stats, setup_s, t_start, Tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, stats, setup_s, t_start, Tracer) -> int:
    deadline = t_start + args.seconds
    rounds = []          # (traced, [(wall, cpu) per operation])
    layer_rounds = []    # per traced round: {source: value}
    failed = attempted = 0
    unexpected = []
    tracer = Tracer()
    need = 4 if args.trace else 2
    while True:
        r0 = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            times, outputs = run_round(ops, stats)
        finally:
            tracer.uninstall()
        f, bad = check_round(ops, outputs)
        outputs = None  # keep one round's outputs alive at a time
        failed += f
        attempted += len(ops)
        unexpected.extend(bad)
        rounds.append((traced, times))
        if traced:
            layer_rounds.append(layer_sources(tracer, stats))
        now = time.perf_counter()
        if len(rounds) >= need and now + (now - r0) > deadline:
            break
    for line in unexpected[:20]:
        print(f"perfbench: unexpected failure: {line}", file=sys.stderr)
    plain = [r for r in rounds if not r[0]]
    if args.trace:
        metrics, steady = per_layer(plain, rounds, layer_rounds)
    else:
        metrics, steady = end_to_end(ops, plain, setup_s), True
    correct = not unexpected and steady
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}, rounds {len(rounds)}, correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_op(rounds):
    """Each operation's median wall time over the rounds.

    The rounds spread an operation's repeats over the whole run, so one
    stall moves at most one repeat, and the median ignores it.
    """
    return [statistics.median(r[1][i][0] for r in rounds)
            for i in range(len(rounds[0][1]))]


def round_total(rounds, col):
    """Median over the rounds of one round's summed wall (0) or CPU (1) time."""
    return statistics.median(sum(t[col] for t in r[1]) for r in rounds)


def end_to_end(ops, plain, setup_s):
    med = statistics.median
    per_op_ms = [1e3 * t for t in per_op(plain)]
    by_kind = lambda kind: [v for v, op in zip(per_op_ms, ops) if op.kind == kind]
    values = {
        "setup_s": setup_s,
        "wall_s": round_total(plain, 0),
        "cpu_s": round_total(plain, 1),
        "op_p50_ms": med(per_op_ms),
        "op_p90_ms": percentile(per_op_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_p50_ms": med(by_kind("report")),
        "replay_p50_ms": med(by_kind("replay")),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_sources(tracer, stats):
    out = {}
    for _, _, source in PER_LAYER:
        if source is None:
            continue
        kind, key = source.split(":", 1)
        if kind == "self":
            out[source] = tracer.self_s.get(key, 0.0)
        elif kind == "total":
            out[source] = tracer.total_s.get(key, 0.0)
        elif kind == "count":
            out[source] = tracer.counts.get(key, 0)
        else:
            out[source] = getattr(stats, key)
    return out


def per_layer(plain, rounds, layer_rounds):
    """Median self times, per-round counts and the tracing overhead.

    Counts must be identical in every traced round; a difference means the
    workload is not deterministic, and the run is reported as incorrect.
    """
    metrics = {}
    steady = True
    for name, unit, source in PER_LAYER:
        if source is None:
            value = round_total([r for r in rounds if r[0]], 0) - round_total(plain, 0)
        else:
            vals = [lr[source] for lr in layer_rounds]
            if unit == "s":
                value = statistics.median(vals)
            else:
                value = vals[0]
                if any(v != value for v in vals):
                    print(f"perfbench: {name} differs between traced rounds: {vals}",
                          file=sys.stderr)
                    steady = False
        metrics[name] = {"value": value, "unit": unit}
    return metrics, steady


if __name__ == "__main__":
    sys.exit(main())
