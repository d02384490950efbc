"""Workload ``verdict_sampling``: single-matrix analysis at n = 4..40.

Sampled partial norms (linf, weighted l1, l1, additive and the benchmark's
own ``ScaledL2`` norm), the three contraction checks, equivalence audits of
constructed instances, and the spectral corollaries.  The sampling optimizer
and the SVD splits of ``I - A`` do the work; no product is streamed.
"""
from __future__ import annotations

import numpy as np

import genprod as gp
import oracles as orc
from common import Op, close, rand_stochastic, report_ops

SAMPLES = 256
# The optimizer's run time on linf is heavy-tailed (a few percent of random
# instances take 10x to 1000x the median), so linf instances do not depend
# on --seed: they come from this fixed generator seed, and every run pays
# the same for them.
LINF_SEED = 0
BUDGET = 512
WITNESS_RTOL = 1e-10
BOUND_RTOL = 1e-10


class ScaledL2(gp.VectorNorm):
    """||diag(d) x||_2, defined here through the public VectorNorm interface.

    It counts its own evaluations, so the benchmark sees how often the
    optimizer calls a norm one vector at a time and how often in batches.
    """

    name = "scaled_l2"

    def __init__(self, d, stats):
        self.d = np.asarray(d, dtype=float)
        self.stats = stats

    def dimension(self):
        return self.d.shape[0]

    def __call__(self, x):
        self.stats.scalar_evals += 1
        return float(np.linalg.norm(self.d * np.asarray(x)))

    def batch(self, X):
        self.stats.batch_evals += 1
        return np.linalg.norm(self.d[:, None] * np.asarray(X), axis=0)


def _l1(x):
    return float(np.abs(x).sum())


def _l2(x):
    return float(np.linalg.norm(x))


def _linf(x):
    return float(np.abs(x).max())


def doubly_stochastic(rng, n):
    """A convex mix of permutation matrices and the uniform matrix."""
    D = 0.2 * np.full((n, n), 1.0 / n)
    for w in 0.8 * rng.dirichlet(np.ones(4)):
        D += w * np.eye(n)[rng.permutation(n)]
    return D


def semisimple(rng, n):
    """Random A = identity on a fixed space, euclidean ratio k on an
    orthogonal moving space of dimension n // 2, built with genprod's public
    generator.  The dimension is fixed because the optimizer's cost depends
    on it; the seed moves only the values."""
    k = float(rng.uniform(0.1, 0.9))
    return gp.random_semisimple_nonexpansive(n, rng, moving_dim=n // 2, k=k)


def mean_zero(n):
    return gp.mean_zero_subspace(n)


def structural(v) -> bool:
    """A certificate must come from a structural route, never from samples."""
    cert = v.certificate or {}
    return (cert.get("route") in ("additive_split", "orthogonal_l2", "identity")
            or v.note.startswith("vacuous")
            or cert.get("exact") is True
            or cert.get("k_method") == "closed_form")


def verdict_problems(v, A, nrm) -> list[str]:
    """Certified needs a structural route; falsified needs a verified witness."""
    if v.kind.value == "certified":
        return [] if structural(v) else [f"{v.prop} certified without a structural route"]
    if v.kind.value != "falsified":
        return []
    w = v.witness
    if w is None:
        return [f"{v.prop} falsified without a witness"]
    Aw = A @ w
    nx, nax, moved = nrm(w), nrm(Aw), nrm(Aw - w)
    if v.prop == "paracontracting":
        ok = moved > 1e-9 * nx and nax >= nx * (1 - 1e-12)
    elif v.prop == "l_paracontracting":
        g = v.certificate["gamma"]
        ok = nax - (nx - g * moved) > 0.0
    else:  # nonexpansive, or an h_contractor falsified by expansion or k >= 1
        ok = nax >= nx * (1 - 1e-12)
    return [] if ok else [f"{v.prop} witness does not violate the property"]


def _sampled_op(name, A, H, norm, npnorm, stats, seed, exact=None, full=None,
                closed=None):
    """partial_norm on its sampling route, checked against numpy.

    The value must be attained by its witness, stay below the exact value
    and the full-space operator norm, and (for l1 on the mean-zero
    hyperplane) reach the closed form within 1e-6.
    """
    def run():
        return gp.partial_norm(A, H, norm, route="sample", samples=SAMPLES, seed=seed)

    def check(res):
        bad = []
        if res.method != "optimized" or res.samples <= 0:
            bad.append(f"route {res.method}/{res.strategy}, expected sampling")
        w = np.asarray(res.witness)
        if np.linalg.norm(w - H.basis @ (H.basis.conj().T @ w)) > 1e-9 * np.linalg.norm(w):
            bad.append("witness is not in the subspace")
        ratio = npnorm(A @ w) / npnorm(w)
        if not close(ratio, res.value, WITNESS_RTOL):
            bad.append(f"value {res.value!r} is not attained: witness gives {ratio!r}")
        for label, ref in (("exact value", exact), ("full-space norm", full)):
            if ref is not None and res.value > ref * (1 + BOUND_RTOL):
                bad.append(f"value {res.value!r} exceeds the {label} {ref!r}")
        if exact is not None and exact > 0:
            stats.max_rel_gap = max(stats.max_rel_gap, (exact - res.value) / exact)
        if closed is not None and abs(res.value - closed) > 1e-6:
            bad.append(f"sampled l1 {res.value!r} vs closed form {closed!r}")
        return bad

    return Op(name, run, check)


def _additive_np(H, K):
    T = np.hstack([H.basis, K.basis])
    d = H.dim

    def nrm(x):
        c = np.linalg.solve(T, x)
        return _l2(H.basis @ c[:d]) + _l2(K.basis @ c[d:])

    return nrm


def _sampling_ops(rng, fixed, stats):
    ops = []
    s = lambda: int(rng.integers(1 << 16))
    for n in range(4, 13):
        for rep in range(2):
            A = rand_stochastic(fixed, n)
            ops.append(_sampled_op(f"pn.linf.n{n}.{rep}", A, mean_zero(n), gp.LINF, _linf,
                                   stats, n + rep, exact=orc.linf_mean_zero_exact(A),
                                   full=orc.op_norm(A, "linf")))
    for n in (4, 6, 8, 12, 16, 20, 24, 32, 40):
        A = rand_stochastic(rng, n)
        w = rng.uniform(0.5, 2.0, n)
        ops.append(_sampled_op(f"pn.weighted_l1.n{n}", A, mean_zero(n), gp.WeightedL1(w),
                               lambda x, w=w: float(w @ np.abs(x)), stats, s(),
                               exact=orc.weighted_l1_mean_zero_exact(A, w),
                               full=orc.weighted_l1_operator(A, w)))
    for n in range(3, 11):
        A = rand_stochastic(rng, n)
        ops.append(_sampled_op(f"pn.l1.n{n}", A, mean_zero(n), gp.L1, _l1, stats, s(),
                               full=orc.op_norm(A, "l1"),
                               closed=orc.overlap_coefficient(A)))
    for n in (4, 6, 8, 10, 12):
        A, mov, fix, k = semisimple(rng, n)
        nu = gp.additive_norm(gp.L2, mov, fix)
        ops.append(_sampled_op(f"pn.additive.n{n}", A, mov, nu, _additive_np(mov, fix),
                               stats, s(), exact=orc.l2_on_subspace(A, mov.basis)))
    for n in (4, 6, 8, 10, 12, 16, 20):
        A, mov, fix, k = semisimple(rng, n)
        d = rng.uniform(0.5, 2.0, n)
        ops.append(_sampled_op(f"pn.scaled_l2.n{n}", A, mov, ScaledL2(d, stats),
                               lambda x, d=d: _l2(d * x), stats, s(),
                               exact=orc.scaled_l2_on_subspace(A, mov.basis, d)))
    return ops


def _verdict_op(name, run, A, nrm, expect, extra=None):
    """A contraction check: expected kind(s), verified witnesses, routes."""
    def check(v):
        bad = verdict_problems(v, A, nrm)
        if v.kind.value not in expect:
            bad.append(f"{v.prop} is {v.kind.value}, expected one of {expect}")
        if extra:
            bad.extend(extra(v))
        return bad

    return Op(name, run, check)


def _verdict_ops(rng, fixed, stats):
    ops = []
    for n in range(4, 13):
        D = doubly_stochastic(fixed, n)
        exact = orc.linf_mean_zero_exact(D)

        def k_bound(v, exact=exact):
            k = v.certificate["k"]
            stats.max_rel_gap = max(stats.max_rel_gap, (exact - k) / exact)
            bad = [] if k <= exact * (1 + BOUND_RTOL) else [f"sampled k {k!r} > exact {exact!r}"]
            if v.certificate.get("k_method") != "optimized":
                bad.append("k did not come from the sampling route")
            return bad

        ops.append(_verdict_op(
            f"h_contractor.linf.n{n}",
            lambda D=D, n=n: gp.check_H_contractor(D, mean_zero(n), gp.LINF,
                                                   samples=SAMPLES, seed=n),
            D, _linf, ("inconclusive",), k_bound))
    for n in (4, 8, 12, 20, 30, 40):
        A = rand_stochastic(rng, n)
        omega = orc.overlap_coefficient(A)
        ops.append(_verdict_op(
            f"h_contractor.l1.n{n}",
            lambda A=A, n=n: gp.check_H_contractor(A, mean_zero(n), gp.L1, seed=n),
            A, _l1, ("certified",),
            lambda v, omega=omega: [] if close(v.certificate["k"], omega, 0, 1e-12)
            else [f"k {v.certificate['k']!r} vs overlap form {omega!r}"]))
        ops.append(_verdict_op(
            f"paracontracting.l1.stochastic.n{n}",
            lambda A=A: gp.check_paracontracting(A, gp.L1, BUDGET, seed=3),
            A, _l1, ("falsified",)))
    for n in (4, 8, 12, 20, 30, 40):
        A, mov, fix, k = semisimple(rng, n)
        nu = gp.additive_norm(gp.L2, mov, fix)
        gamma = (1 - k) / (1 + k)
        ops.append(_verdict_op(
            f"paracontracting.l2.n{n}",
            lambda A=A: gp.check_paracontracting(A, gp.L2, BUDGET, seed=5),
            A, _l2, ("certified",),
            lambda v, k=k: [] if v.certificate.get("route") == "orthogonal_l2" and
            close(v.certificate["k"], k, 1e-9) else [f"certificate {v.certificate}"]))
        ops.append(_verdict_op(
            f"l_paracontracting.additive.n{n}",
            lambda A=A, nu=nu, g=gamma: gp.check_l_paracontracting(A, nu, g, BUDGET, seed=7),
            A, _additive_np(mov, fix), ("certified",),
            lambda v, g=gamma: [] if v.certificate.get("route") == "additive_split" and
            v.certificate["gamma"] >= g * (1 - 1e-12) else [f"certificate {v.certificate}"]))
        ops.append(_verdict_op(
            f"l_paracontracting.l2.n{n}",
            lambda A=A, g=gamma: gp.check_l_paracontracting(A, gp.L2, g, BUDGET, seed=9),
            A, _l2, ("falsified", "inconclusive")))
    return ops


def _audit_ops(rng):
    ops = []

    def audit_check(rep, A, k=None, identity=False):
        verdicts = [rep.nonexpansive, rep.paracontracting, rep.h_contractor]
        if rep.l_paracontracting is not None:
            verdicts.append(rep.l_paracontracting)
        bad = []
        for v in verdicts:
            bad.extend(verdict_problems(v, A, _l2))
        if not rep.agreement_ok:
            bad.append(f"audit disagreement: {rep.disagreement}")
        kinds = {v.prop: v.kind.value for v in verdicts}
        if identity:
            if rep.boundary != "k=1" or kinds != {
                    "nonexpansive": "certified", "paracontracting": "certified",
                    "l_paracontracting": "certified", "h_contractor": "inconclusive"}:
                bad.append(f"identity boundary: {rep.boundary} {kinds}")
        elif k is not None:
            if not (rep.hypotheses_ok and close(rep.k, k, 1e-9)
                    and close(rep.gamma, (1 - k) / (1 + k), 1e-9)):
                bad.append(f"audit k={rep.k} gamma={rep.gamma}, constructed k={k}")
            if set(kinds.values()) != {"certified"}:
                bad.append(f"contracting instance not certified: {kinds}")
        else:
            if rep.gamma is not None or kinds["nonexpansive"] != "falsified" or \
                    "certified" in kinds.values():
                bad.append(f"expansive instance: gamma={rep.gamma} {kinds}")
        return bad

    for n in (4, 6, 8, 12, 16, 24, 32, 40):
        A, mov, fix, k = semisimple(rng, n)
        ops.append(Op(f"audit.contracting.n{n}",
                      lambda A=A: gp.equiv_theorem_audit(A, gp.L2, seed=11),
                      lambda rep, A=A, k=k: audit_check(rep, A, k)))
    for n in (4, 8, 12, 20, 30, 40):
        A, mov, fix, k = semisimple(rng, n)
        B = 1.5 * A
        ops.append(Op(f"audit.expansive.n{n}",
                      lambda B=B: gp.equiv_theorem_audit(B, gp.L2, seed=13),
                      lambda rep, B=B: audit_check(rep, B)))
    for n in (4, 12, 24, 40):
        eye = np.eye(n)
        ops.append(Op(f"audit.identity.n{n}",
                      lambda eye=eye: gp.equiv_theorem_audit(eye, gp.L2, seed=17),
                      lambda rep, eye=eye: audit_check(rep, eye, identity=True)))
    return ops


def _spectral_ops(rng, fixed, stats):
    ops = []
    for n in (4, 6, 8, 12, 16, 24, 32, 40):
        A = rand_stochastic(rng, n)
        omega, sub = orc.overlap_coefficient(A), orc.subdominant_modulus(A)

        def check(rep, omega=omega, sub=sub):
            if rep.passed and rep.algebraic_one == 1 and \
                    close(rep.coefficient, omega, 0, 1e-12) and \
                    close(rep.subdominant_modulus, sub, 0, 1e-9):
                return []
            return [f"simple one: {rep}, numpy omega {omega!r} subdominant {sub!r}"]

        ops.append(Op(f"simple_one.n{n}", lambda A=A: gp.stochastic_simple_one(A), check))
    for n in (4, 6, 8, 10, 12):
        A = rand_stochastic(fixed, n)
        exact = orc.linf_mean_zero_exact(A)
        ones = int(np.sum(np.abs(orc.eigvals(A) - 1.0) < 1e-6))

        def check(rep, exact=exact, ones=ones):
            bad = []
            if rep.subspace_norm > exact * (1 + BOUND_RTOL):
                bad.append(f"sampled subspace norm {rep.subspace_norm!r} > exact {exact!r}")
            stats.max_rel_gap = max(stats.max_rel_gap, (exact - rep.subspace_norm) / exact)
            if rep.decided != (rep.margin > rep.margin_tol):
                bad.append("decision disagrees with the margin")
            if rep.decided and not (rep.holds and rep.algebraic == ones):
                bad.append(f"multiplicity {rep.algebraic}, numpy counts {ones}")
            return bad

        ops.append(Op(f"high_modulus.linf.n{n}",
                      lambda A=A, n=n: gp.high_modulus_bound(A, mean_zero(n), gp.LINF, 1.0,
                                                             samples=SAMPLES, seed=n),
                      check))
    return ops


# Fixed, seed-independent instance: column sums are 1, so the mean-zero
# hyperplane is exactly invariant under every multiple of it.
SCALE_A = np.array([[0.5, 0.2, 0.1, 0.3], [0.1, 0.4, 0.3, 0.2],
                    [0.3, 0.1, 0.4, 0.1], [0.1, 0.3, 0.2, 0.4]])


def _scale_op():
    H = mean_zero(4)

    def run():
        return (gp.partial_norm(SCALE_A, H, gp.L1).value,
                gp.partial_norm(1e8 * SCALE_A, H, gp.L1).value)

    return Op("pn.l1.scale_1e8", run,
              lambda v: [] if close(v[1], 1e8 * v[0], 1e-12)
              else [f"norm(1e8 A) = {v[1]!r}, 1e8 norm(A) = {1e8 * v[0]!r}"],
              fault="check_invariance uses an absolute residual, so 1e8 times a "
                    "stochastic matrix fails the invariance check")


def _cli_ops(rng, workdir):
    """Four classify and four norm reports, each written and replayed."""
    configs = {}
    for n in (4, 6, 8, 10):
        A = semisimple(rng, n)[0]
        configs[f"cli.vs_classify{n}"] = ("classify", {
            "matrix": A.tolist(), "norm": {"kind": "l2"}, "audit": True,
            "budget": BUDGET, "seed": n})
        P = rand_stochastic(rng, n)
        configs[f"cli.vs_norm{n}"] = ("norm", {
            "matrix": P.tolist(), "subspace": {"kind": "mean_zero", "n": n},
            "norm": {"kind": "weighted_l1", "weights": rng.uniform(0.5, 2.0, n).tolist()},
            "samples": SAMPLES, "seed": n})
    return [op for name, (sub, cfg) in configs.items()
            for op in report_ops(name, sub, cfg, workdir)]


def build(seed: int, workdir, stats) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    fixed = np.random.default_rng([LINF_SEED, 2])
    return (_sampling_ops(rng, fixed, stats) + _verdict_ops(rng, fixed, stats)
            + _audit_ops(rng) + _spectral_ops(rng, fixed, stats) + [_scale_op()]
            + _cli_ops(rng, workdir))
