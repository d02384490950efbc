"""Workload ``trace_stream``: norm and coefficient traces of general products.

Every sequence kind (constant, periodic non-commuting, periodic commuting,
scaled by a tail model) is crossed with every permutation kind and every
ordering, once under ``monitor_convergence`` and once, for the stochastic
kinds, under ``weak_ergodicity_experiment``.  Nested traces run to r in the
hundreds, re-ordered ones to r = 40.  The product streamer and the
closed-form norms do the work; no norm is sampled.
"""
from __future__ import annotations

import numpy as np

import genprod as gp
import oracles as orc
from common import EPS, Op, close, lazy_stochastic, rand_stochastic, report_ops

NS = (2, 3, 4, 5, 6, 7, 8)
PERMS = ("identity", "prefix", "block_shuffle")
ORDERS = ("left", "right", "random", "explicit")
NESTED_R = {"identity": 300, "prefix": 200, "block_shuffle": 80}
REORDERED_R = 40
NORMS = ("l1", "l2", "linf")
TAILS = (
    ("p_series", dict(amplitude=1.0, exponent=2.0, side="above", limit=1.0)),
    ("p_series", dict(amplitude=0.5, exponent=1.0, side="below", limit=1.0)),
    ("constant", dict(value=0.9)),
    ("periodic", dict(values=(1.25, 0.8))),
)
LAZY_EPS = 0.08
ERGODIC_THRESHOLD = 1e-12
README_A = np.array([[0.9, 0.2], [0.1, 0.8]])
# 0.1 times a symmetric doubly-stochastic matrix: ||A^r||_2 = 0.1^r exactly.
UNDERFLOW_A = 0.1 * np.array([[0.6, 0.4], [0.4, 0.6]])
UNDERFLOW_R = 250


def _tol(r: int, n: int) -> float:
    """Relative roundoff allowance for an r-fold product of nonnegative
    n x n matrices and its norm (derived in README.md)."""
    return 2.0 * (r + 1) * n * EPS


def _norm(kind):
    return {"l1": gp.L1, "l2": gp.L2, "linf": gp.LINF}[kind]


def _tail_model(kind, kw):
    if kind == "p_series":
        return gp.TailModel.p_series(kw["amplitude"], kw["exponent"], kw["side"],
                                     kw["limit"])
    if kind == "constant":
        return gp.TailModel.constant_value(kw["value"])
    return gp.TailModel.periodic(kw["values"])


class Spec:
    """A generated sequence with its numpy description."""

    def __init__(self, kind, n, mats, tail=None):
        self.kind, self.n, self.mats, self.tail = kind, n, mats, tail
        self.commuting = kind != "periodic"
        self.stochastic = kind != "scaled"
        self._omega = {}

    def factor(self, i: int) -> np.ndarray:
        if self.kind == "scaled":
            return orc.tail_value(self.tail[0], i, **self.tail[1]) * self.mats[0]
        return self.mats[(i - 1) % len(self.mats)]

    def omega(self, i: int) -> float:
        key = (i - 1) % len(self.mats)
        if key not in self._omega:
            self._omega[key] = orc.overlap_coefficient(self.factor(i))
        return self._omega[key]

    def sequence(self):
        if self.kind == "constant":
            return gp.MatrixSequence.constant(self.mats[0])
        if self.kind == "scaled":
            return gp.MatrixSequence.scaled(self.mats[0], _tail_model(*self.tail))
        return gp.MatrixSequence.periodic(self.mats)


def make_spec(kind, rng, n, idx, lazy=False) -> Spec:
    draw = (lambda: lazy_stochastic(rng, n, LAZY_EPS)) if lazy \
        else (lambda: rand_stochastic(rng, n))
    if kind == "constant":
        return Spec(kind, n, [draw()])
    if kind == "periodic":
        return Spec(kind, n, [draw() for _ in range(3)])
    if kind == "commuting":
        P = draw()
        mats = []
        for w in rng.dirichlet(np.ones(3), size=3):
            mats.append(w[0] * np.eye(n) + w[1] * P + w[2] * (P @ P))
        return Spec(kind, n, mats)
    return Spec(kind, n, [draw()], tail=TAILS[idx % len(TAILS)])


class Sched:
    """A generated schedule with what the oracle may know about it."""

    def __init__(self, perm, order, rng, idx, max_r, perm_seed=None,
                 order_seed=None):
        self.perm, self.order, self.max_r = perm, order, max_r
        self.p = 0 if perm == "block_shuffle" else idx % 3
        self.head = ()
        self.block = 1
        if perm == "identity":
            permutation = gp.Permutation()
        elif perm == "prefix":
            self.head = tuple(int(x) for x in
                              rng.choice(np.arange(1, 13), size=5, replace=False))
            permutation = gp.Permutation("prefix", prefix=self.head)
        else:
            self.block = 2 + idx % 4
            if perm_seed is None:
                perm_seed = int(rng.integers(1 << 16))
            permutation = gp.Permutation("block_shuffle", block=self.block,
                                         seed=perm_seed)
        self.orders = ()
        if order in ("left", "right"):
            ordering = gp.Ordering(order)
        elif order == "random":
            if order_seed is None:
                order_seed = int(rng.integers(1 << 16))
            ordering = gp.Ordering("random", seed=order_seed)
        else:
            self.orders = tuple(tuple(int(self.p + 1 + x) for x in rng.permutation(r))
                                for r in range(1, max_r + 1))
            ordering = gp.Ordering("explicit", orders=self.orders)
        self.schedule = gp.ProductSchedule(p=self.p, permutation=permutation,
                                           ordering=ordering)

    def index_of_position(self):
        """Position -> sequence index, when known apart from the seed."""
        if self.perm == "identity":
            return lambda pos: pos
        if self.perm == "prefix":
            table = orc.prefix_indices(self.head, self.p + self.max_r)
            return lambda pos: table[pos - 1]
        return None


def oracle_products(spec: Spec, sc: Sched) -> dict[int, np.ndarray]:
    """Products at every step r the oracle can form without genprod."""
    out = {}
    R = sc.max_r
    if spec.kind == "constant":
        return {r: orc.power(spec.mats[0], r) for r in range(1, R + 1)}
    if spec.commuting:
        C = np.eye(spec.n)
        for r in range(1, R + 1):
            idx = orc.index_multiset(sc.perm, r, sc.p, sc.head, sc.block)
            if idx is None:
                continue
            if sc.perm == "block_shuffle":
                C = orc.ordered_product([spec.factor(i) for i in idx])
            else:
                C = C @ spec.factor(idx[-1])
            out[r] = C
        return out
    where = sc.index_of_position()
    if where is None or sc.order == "random":
        return out
    F = lambda pos: spec.factor(where(pos))
    C = None
    for r in range(1, R + 1):
        pos = sc.p + r
        if sc.order == "left":
            C = F(pos) if C is None else C @ F(pos)
        elif sc.order == "right":
            C = F(pos) if C is None else F(pos) @ C
        else:
            C = orc.ordered_product([F(q) for q in sc.orders[r - 1]])
        out[r] = C
    return out


def check_monitor(tr, spec: Spec, sc: Sched, kind: str, known):
    bad = []
    R = sc.max_r
    mus = np.asarray(tr.mus)
    if tr.status.kind != "bounded_by" or mus.shape[0] != R or \
            not np.array_equal(tr.rs, np.arange(1, R + 1)):
        return [f"trace ended early: status {tr.status.kind}, {mus.shape[0]} of {R} steps"]
    if not np.all(np.isfinite(mus)) or np.any(mus < 0):
        bad.append("trace holds a negative or non-finite value")
    for r in range(1, R + 1):
        tol = _tol(r, spec.n)
        mu = mus[r - 1]
        if mu > tr.envelope[r - 1] * (1 + tol):
            bad.append(f"r={r}: mu {mu!r} above the envelope {tr.envelope[r - 1]!r}")
            break
        if spec.stochastic and kind == "l1" and not close(mu, 1.0, tol):
            bad.append(f"r={r}: l1 norm of a stochastic product is {mu!r}, not 1")
            break
        if r in known:
            want = orc.op_norm(known[r], kind)
            if not close(mu, want, tol):
                bad.append(f"r={r}: {kind} norm {mu!r}, numpy gives {want!r}")
                break
    return bad


def check_ergodic(run, spec: Spec, sc: Sched, threshold, known, crossing=None):
    bad = []
    w = np.asarray(run.coefficients)
    m = w.shape[0]
    if not np.array_equal(run.rs, np.arange(1, m + 1)):
        bad.append("trace steps are not 1..r")
    if run.crossed_at is not None:
        if run.crossed_at != m or w[-1] >= threshold or np.any(w[:-1] < threshold):
            bad.append("crossing step disagrees with the trace")
    elif m != sc.max_r or np.any(w < threshold):
        bad.append("trace stopped without crossing")
    if crossing is not None and run.crossed_at != crossing:
        bad.append(f"crossed at {run.crossed_at}, expected {crossing}")
    bounds = orc.coefficient_product_bounds(spec.omega, sc.perm, m, sc.p, sc.head,
                                            sc.block)
    for r in range(1, m + 1):
        tol = _tol(r, spec.n)
        v = w[r - 1]
        if not 0.0 <= v <= 1.0 + tol:
            bad.append(f"r={r}: coefficient {v!r} outside [0, 1]")
            break
        if v > bounds[r - 1] * (1 + tol) + tol:
            bad.append(f"r={r}: coefficient {v!r} above the product of factor "
                       f"coefficients {bounds[r - 1]!r}")
            break
        if r in known and not close(v, orc.overlap_coefficient(known[r]), 0.0, 2 * tol):
            bad.append(f"r={r}: coefficient {v!r}, numpy overlap form gives "
                       f"{orc.overlap_coefficient(known[r])!r}")
            break
    return bad


def _monitor_op(name, spec, sc, kind, fault=None):
    """A norm trace; for a scaled sequence also the two condition checks on
    its tail model, against the p-series test."""
    seq = spec.sequence()
    norm = _norm(kind)
    known = oracle_products(spec, sc)
    model = _tail_model(*spec.tail) if spec.tail else None

    def run():
        tr = gp.monitor_convergence(seq, sc.schedule, norm, None, sc.max_r)
        if model is None:
            return tr, None
        return tr, (gp.check_condition_C(model), gp.check_condition_D(model))

    def check(out):
        tr, verdicts = out
        bad = check_monitor(tr, spec, sc, kind, known)
        if verdicts is not None:
            want = tuple(gp.ConditionVerdict.HOLDS if f(spec.tail[0], **spec.tail[1])
                         else gp.ConditionVerdict.FAILS
                         for f in (orc.tail_condition_C, orc.tail_condition_D))
            if verdicts != want:
                bad.append(f"conditions C, D = {verdicts}, expected {want}")
        return bad

    return Op(name, run, check, fault=fault)


def _ergodic_op(name, spec, sc, threshold, crossing=None):
    seq = spec.sequence()
    known = oracle_products(spec, sc) if spec.commuting else {}

    def run():
        return gp.weak_ergodicity_experiment(seq, [sc.schedule], threshold,
                                             sc.max_r).runs[0]

    return Op(name, run,
              lambda out: check_ergodic(out, spec, sc, threshold, known, crossing))


def _cli_ops(rng, workdir):
    """Four product and four ergodicity reports, each written and replayed."""
    periodic = lambda draw: {"kind": "periodic",
                             "matrices": [draw().tolist() for _ in range(3)]}
    stoch = lambda: rand_stochastic(rng, 4)
    lazy = lambda: lazy_stochastic(rng, 4, LAZY_EPS)
    schedules = (
        ({"ordering": "left"}, 200),
        ({"p": 1, "permutation": {"kind": "prefix", "values": [3, 1, 2]},
          "ordering": "right"}, 150),
        ({"ordering": {"kind": "random", "seed": 5}}, 40),
        ({"permutation": {"kind": "block_shuffle", "block": 3, "seed": 9},
          "ordering": "left"}, 100),
    )
    configs = {}
    for i, (sched, r) in enumerate(schedules):
        configs[f"cli.ts_product{i}"] = ("product", {
            "sequence": periodic(stoch), "schedules": [sched], "max_r": r,
            "norm": {"kind": NORMS[i % len(NORMS)]}, "seed": i})
        configs[f"cli.ts_ergodicity{i}"] = ("ergodicity", {
            "sequence": periodic(lazy), "schedules": [sched], "max_r": r,
            "threshold": ERGODIC_THRESHOLD, "seed": i})
    return [op for name, (sub, cfg) in configs.items()
            for op in report_ops(name, sub, cfg, workdir)]


def build(seed: int, workdir, stats) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    i = 0
    for kind in ("constant", "periodic", "commuting", "scaled"):
        for perm in PERMS:
            for order in ORDERS:
                n = NS[i % len(NS)]
                R = NESTED_R[perm] if order in ("left", "right") else REORDERED_R
                spec = make_spec(kind, rng, n, i)
                sc = Sched(perm, order, rng, i, R)
                norm = NORMS[i % len(NORMS)]
                ops.append(_monitor_op(f"monitor.{kind}.{perm}.{order}.{norm}.n{n}",
                                       spec, sc, norm))
                i += 1
    for kind in ("constant", "periodic", "commuting", "fast"):
        for perm in PERMS:
            for order in ORDERS:
                n = NS[i % len(NS)]
                R = NESTED_R[perm] if order in ("left", "right") else REORDERED_R
                spec = make_spec("constant" if kind == "fast" else kind, rng, n, i,
                                 lazy=kind != "fast")
                sc = Sched(perm, order, rng, i, R)
                # Fast-mixing products reach roundoff; only an exact zero stops them.
                threshold = 1e-300 if kind == "fast" else ERGODIC_THRESHOLD
                ops.append(_ergodic_op(f"ergodicity.{kind}.{perm}.{order}.n{n}",
                                       spec, sc, threshold))
                i += 1
    # The README's running example: block_shuffle(4, seed 1), random(seed 2).
    readme = Sched("block_shuffle", "random", rng, 2, 100, perm_seed=1, order_seed=2)
    ops.append(_ergodic_op("ergodicity.readme_example", Spec("constant", 2, [README_A]),
                           readme, 1e-8, crossing=52))
    deep = Spec("constant", 2, [UNDERFLOW_A])
    ops.append(_monitor_op(
        "monitor.l2_underflow", deep,
        Sched("identity", "left", rng, 0, UNDERFLOW_R), "l2",
        fault="norms._power_iteration_top squares into M*M: l2 values below "
              "1e-154 lose digits and below 1e-162 come back as 0.0"))
    ops.extend(_cli_ops(rng, workdir))
    return ops
