"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""
import json
import time

import numpy as np
import pytest

from genprod.cli import EXIT_OK, main
from genprod.contraction import (
    Verdict,
    check_paracontracting,
    equiv_theorem_audit,
    lp_gamma,
    random_semisimple_nonexpansive,
)
from genprod.norms import L1, L2, operator_norm, partial_norm
from genprod.norms import additive_norm as make_additive_norm
from genprod.norms import mean_zero_subspace as ergodicity_subspace
from genprod.products import (
    MatrixSequence,
    Ordering,
    Permutation,
    ProductSchedule,
    bound_from_condition_C,
    monitor_convergence,
    stream_general_product,
)
from genprod.series import ConditionVerdict, TailModel, check_condition_C, check_condition_D
from genprod.spectral import (
    check_multiplicity_bounds,
    high_modulus_bound,
    stochastic_simple_one,
)
from genprod.stochastic import (
    accumulation_corollary_check,
    ergodicity_coefficient_l1,
    random_stochastic,
    weak_ergodicity_experiment,
    wkerg_condition_check,
)

from conftest import block_triangular_similarity

HOLDS, FAILS = ConditionVerdict.HOLDS, ConditionVerdict.FAILS
RUNNING = np.array([[0.9, 0.2], [0.1, 0.8]])


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_closed_form_vs_sampling_oracle():
    # 200 random column-stochastic matrices, n in 2..6: closed form agrees
    # with the sampling optimizer (1e4 directions plus refinement) to 1e-6
    start = time.monotonic()
    rng = np.random.default_rng(101)
    H_cache = {n: ergodicity_subspace(n) for n in range(2, 7)}
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        A = random_stochastic(n, rng)
        closed = ergodicity_coefficient_l1(A)
        oracle = partial_norm(A, H_cache[n], L1, route="sample",
                              samples=10_000, seed=trial).value
        worst = max(worst, abs(closed - oracle))
        assert abs(closed - oracle) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, f"200 matrices, max |closed - oracle| = {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_2_equivalence_concordance():
    # 100 random nonexpansive matrices with semisimple eigenvalue 1 under
    # the split-additive norm: the three classifications never conflict, and
    # the rate inequality holds on 1e4 samples at 1e-10 relative tolerance
    rng = np.random.default_rng(202)
    worst_slack = -np.inf
    for trial in range(100):
        n = int(rng.integers(2, 7))
        A, H, K, k = random_semisimple_nonexpansive(
            n, rng, complex_field=bool(trial % 5 == 4))
        rep = equiv_theorem_audit(A, L2, budget=512, seed=trial)
        assert rep.agreement_ok, rep.disagreement
        assert rep.hypotheses_ok
        kinds = {rep.l_paracontracting.kind, rep.paracontracting.kind,
                 rep.h_contractor.kind}
        assert kinds == {Verdict.CERTIFIED}
        nu = make_additive_norm(L2, H, K)
        gamma = lp_gamma(rep.k)
        X = rng.standard_normal((n, 10_000))
        if np.iscomplexobj(A):
            X = X + 1j * rng.standard_normal((n, 10_000))
        nx = nu.batch(X)
        AX = A @ X
        slack = (nu.batch(AX) - (nx - gamma * nu.batch(AX - X))) / nx
        worst_slack = max(worst_slack, float(slack.max()))
        assert np.all(slack <= 1e-10)
    _report(2, f"100 audits concordant; worst relative rate slack "
               f"{worst_slack:.2e} <= 1e-10")


def test_criterion_3_proof_chain_inequalities():
    # displacement and drop inequalities on 1e4 samples per audited matrix
    rng = np.random.default_rng(303)
    worst = -np.inf
    for trial in range(20):
        n = int(rng.integers(2, 7))
        A, _, _, _ = random_semisimple_nonexpansive(n, rng)
        rep = equiv_theorem_audit(A, L2, budget=256, proof_samples=10_000,
                                  seed=trial)
        assert rep.proof_chain is not None
        worst = max(worst, rep.proof_chain.displacement_excess,
                    rep.proof_chain.drop_deficit)
        assert rep.proof_chain.displacement_excess <= 1e-9
        assert rep.proof_chain.drop_deficit <= 1e-9
    _report(3, f"20 audits x 1e4 samples; worst inequality slack {worst:.2e} "
               f"<= 1e-9")


def _five_policies(rng):
    return [Ordering("left"), Ordering("right"),
            Ordering("random", seed=int(rng.integers(1 << 16))),
            Ordering("random", seed=int(rng.integers(1 << 16))),
            None]  # placeholder: explicit orders built per (p, max_r)


def _explicit_orders(p, max_r, seed):
    rng = np.random.default_rng(seed)
    return Ordering("explicit", orders=tuple(
        tuple(p + 1 + int(i) for i in rng.permutation(r))
        for r in range(1, max_r + 1)))


def test_criterion_4_bounded_envelope():
    # 20 sequences with factor norms 1 + 1/i^2 (summable excess): every
    # trace under 5 ordering policies stays below the running bound M_r
    rng = np.random.default_rng(404)
    max_r = 200
    model = TailModel.p_series(1.0, 2.0, "above")
    assert check_condition_C(model) == HOLDS
    checked = 0
    for s in range(20):
        base_seed = 1000 + s

        def factor(i, seed=base_seed):
            local = np.random.default_rng([seed, i])
            return float(model.value(i)) * random_stochastic(2, local)

        seq = MatrixSequence(n=2, rule=factor, name=f"excess-{s}")
        for p in (0, 2, 5):
            M = bound_from_condition_C(seq, L1, p, max_r)
            policies = _five_policies(rng)
            policies[4] = _explicit_orders(p, max_r, seed=base_seed + p)
            for ordering in policies:
                sched = ProductSchedule(p=p, ordering=ordering)
                mus = np.array([operator_norm(step.matrix, L1) for step in
                                stream_general_product(seq, sched, max_r)])
                assert np.all(mus <= M + 1e-8)
                checked += 1
    _report(4, f"{checked} traces (20 sequences x 3 offsets x 5 policies, "
               f"r <= {max_r}) all within M_r + 1e-8")


def test_criterion_5_convergence_to_zero():
    # 20 sequences satisfying both conditions cross 1e-8; the constant
    # stochastic case with coefficient 0.7 crosses at r = 52 (+/- 1)
    start = time.monotonic()
    rng = np.random.default_rng(505)
    # family 0: the stochastic running example, traced by its coefficient
    seq0 = MatrixSequence.constant(RUNNING)
    rep = weak_ergodicity_experiment(seq0, [ProductSchedule()], 1e-8, 200)
    assert rep.runs[0].crossed_at is not None
    assert abs(rep.runs[0].crossed_at - 52) <= 1
    crossings = [rep.runs[0].crossed_at]
    # families 1..19: damped-geometric factor norms c * (1 - 1/(2i)) or
    # plain constants c < 1; both satisfy the summable-excess and
    # divergent-deficit conditions
    for s in range(19):
        c = float(rng.uniform(0.3, 0.9))
        if s % 2:
            scale = TailModel.constant_value(c)
        else:
            def scale(i, c=c):
                return c * (1.0 - 0.5 / i)
        P = random_stochastic(2, rng)
        seq = MatrixSequence.scaled(P, scale, name=f"damped-{s}")
        model = TailModel.constant_value(c)
        assert check_condition_C(model) == HOLDS
        assert check_condition_D(model) == HOLDS
        sched = ProductSchedule(ordering=Ordering("left"))
        trace = monitor_convergence(seq, sched, L1, 1e-8, 1200)
        assert trace.status.kind == "converged_below", trace.status
        crossings.append(trace.status.r)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(5, f"20 sequences crossed 1e-8 (stochastic case at r = "
               f"{crossings[0]}); slowest at r = {max(crossings)}, "
               f"{elapsed:.1f}s")


def test_criterion_6_permutation_stability():
    # verdicts and convergence outcomes match between the identity
    # permutation and bounded-displacement shuffles, over 10 seeds
    model_C = TailModel.constant_value(0.7)
    base_conditions = (check_condition_C(model_C), check_condition_D(model_C))
    seq = MatrixSequence.constant(RUNNING)
    identity_trace = monitor_convergence(seq, ProductSchedule(), L1, 1e-8, 200)
    rng = np.random.default_rng(606)
    harmonic = MatrixSequence.scaled(np.eye(2),
                                     TailModel.p_series(0.5, 1.0, "below"))
    harmonic_status = monitor_convergence(
        harmonic, ProductSchedule(), L1, 1e-8, 150).status.kind
    for seed in range(10):
        perm = Permutation("block_shuffle", block=int(rng.integers(2, 9)),
                           seed=seed)
        # value families are permutation-invariant, so verdicts are too
        assert (check_condition_C(model_C), check_condition_D(model_C)) \
            == base_conditions
        sched = ProductSchedule(permutation=perm)
        trace = monitor_convergence(seq, sched, L1, 1e-8, 200)
        assert trace.status.kind == identity_trace.status.kind
        assert trace.status.r == identity_trace.status.r  # constant factors
        h2 = monitor_convergence(harmonic, sched, L1, 1e-8, 150)
        assert h2.status.kind == harmonic_status
    _report(6, "condition verdicts and convergence outcomes identical under "
               "10 bounded-displacement shuffles")


def test_criterion_7_stochastic_never_paracontracting():
    # 100 random non-identity stochastic matrices falsified with an explicit
    # witness; the identity is not falsified
    rng = np.random.default_rng(707)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        A = random_stochastic(n, rng)
        v = check_paracontracting(A, L1, 512, seed=trial)
        assert v.kind == Verdict.FALSIFIED
        w = v.witness
        assert w is not None
        assert L1(A @ w - w) > 1e-9 * L1(w)
        assert L1(A @ w) >= L1(w) * (1 - 1e-10)
    ident = check_paracontracting(np.eye(5), L1, 512)
    assert ident.kind == Verdict.CERTIFIED
    _report(7, "100 stochastic matrices falsified with verified witnesses; "
               "identity certified (vacuous)")


def test_criterion_8_accumulation_corollaries():
    alternating = TailModel.periodic([1.0, 0.5])
    to_nine = TailModel.p_series(0.4, 1.0, "below", limit=0.9)
    to_one = TailModel.p_series(1.0, 1.0, "below", limit=1.0)
    table = {
        (alternating, "single_point"): HOLDS,
        (alternating, "all_points"): FAILS,
        (to_nine, "single_point"): HOLDS,
        (to_nine, "all_points"): HOLDS,
        (to_one, "single_point"): FAILS,
        (to_one, "all_points"): FAILS,
    }
    for (family, variant), expected in table.items():
        rep = accumulation_corollary_check(family, variant)
        assert rep.verdict == expected, (family.kind, variant)
        if rep.verdict == HOLDS:
            assert rep.wkerg is not None and rep.wkerg.verdict == HOLDS
    # the slow approach to 1 still satisfies the direct conditions
    assert wkerg_condition_check(to_one, to_one).verdict == HOLDS
    _report(8, "accumulation-point verdicts match the expected table; every "
               "holds-verdict implies the sufficient conditions hold")


def test_criterion_9_multiplicity_bounds():
    # 500 randomized block-triangular similarity transforms (n <= 8) pass
    # both restriction bounds and the high-modulus clause; 100 contracting
    # stochastic matrices have a simple eigenvalue 1 with subdominant
    # modulus at most the coefficient
    rng = np.random.default_rng(909)
    grid = np.array([-0.6, -0.3, 0.0, 0.3, 0.6])
    for trial in range(500):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        lead = rng.uniform(1.5, 2.5, size=k) * rng.choice([-1.0, 1.0], size=k)
        trail = rng.choice(grid, size=n - k)
        A, H, _ = block_triangular_similarity(n, k, rng, lead, trail,
                                              coupling=0.4, block_noise=0.0)
        lam = complex(rng.choice(np.concatenate([lead, trail])))
        bounds = check_multiplicity_bounds(A, H, lam)
        assert bounds.all_hold
        high = high_modulus_bound(A, H, L2, complex(lead[0]))
        assert high.decided and high.holds
    count = 0
    while count < 100:
        A = random_stochastic(int(rng.integers(2, 7)), rng)
        if ergodicity_coefficient_l1(A) >= 1.0 - 1e-3:
            continue
        rep = stochastic_simple_one(A, tol=1e-8)
        assert rep.passed
        assert rep.algebraic_one == 1
        assert rep.subdominant_modulus <= rep.coefficient + 1e-8
        count += 1
    _report(9, "500 restriction-bound trials and 100 simple-eigenvalue "
               "checks all passed")


def test_criterion_10_replay_determinism(tmp_path):
    cfg = {
        "sequence": {"kind": "constant",
                     "matrix": [[0.9, 0.2], [0.1, 0.8]]},
        "schedules": [
            {"ordering": {"kind": "random", "seed": 11},
             "permutation": {"kind": "block_shuffle", "block": 3, "seed": 4}},
            {"ordering": {"kind": "left"}},
        ],
        "threshold": 1e-8,
        "max_r": 80,
        "seed": 42,
    }
    cfg_path = tmp_path / "erg.json"
    cfg_path.write_text(json.dumps(cfg))
    for sub in ("ergodicity", "product"):
        a = tmp_path / f"{sub}-a"
        b = tmp_path / f"{sub}-b"
        assert main([sub, "--config", str(cfg_path), "--out", str(a),
                     "--format", "csv", "--name", "run"]) == EXIT_OK
        assert main([sub, "--config", str(cfg_path), "--out", str(b),
                     "--format", "csv", "--name", "run"]) == EXIT_OK
        assert (a / "run.json").read_bytes() == (b / "run.json").read_bytes()
        for fa in sorted(a.glob("run-*.csv")):
            assert fa.read_bytes() == (b / fa.name).read_bytes()
        assert main(["replay", "--report", str(a / "run.json")]) == EXIT_OK
    _report(10, "byte-identical reruns and clean replays for ergodicity and "
                "product runs")
