import numpy as np
import pytest

from genprod import contraction, norms
from genprod.contraction import (
    ContractionVerdict,
    Verdict,
    check_H_contractor,
    check_l_paracontracting,
    check_paracontracting,
    equiv_theorem_audit,
    is_nonexpansive,
    lp_gamma,
    probe_strict_monotonicity,
    random_semisimple_nonexpansive,
)
from genprod.norms import (
    DecompositionError,
    L1,
    L2,
    LINF,
    Subspace,
    additive_norm as make_additive_norm,
    mean_zero_subspace,
    partial_norm,
)
from genprod.stochastic import random_stochastic

C, F, I = Verdict.CERTIFIED, Verdict.FALSIFIED, Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# lp_gamma
# ---------------------------------------------------------------------------

def test_lp_gamma_values():
    assert lp_gamma(0.0) == 1.0
    assert lp_gamma(0.5) == pytest.approx(1 / 3)
    assert lp_gamma(0.7) == pytest.approx(3 / 17)


def test_lp_gamma_domain():
    with pytest.raises(ValueError):
        lp_gamma(1.0)
    with pytest.raises(ValueError):
        lp_gamma(-0.1)


# ---------------------------------------------------------------------------
# Nonexpansiveness
# ---------------------------------------------------------------------------

def test_identity_nonexpansive():
    assert is_nonexpansive(np.eye(4), L1).kind == C


def test_double_identity_falsified_with_coordinate_witness():
    v = is_nonexpansive(2 * np.eye(3), L1)
    assert v.kind == F
    w = v.witness
    assert L1(2 * np.eye(3) @ w) > L1(w) * (1 + 1e-8)


def test_random_stochastic_nonexpansive_l1():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = random_stochastic(int(rng.integers(2, 7)), rng)
        assert is_nonexpansive(A, L1).kind == C


def test_nonexpansive_additive_norm_exact_route():
    A, H, K, k = random_semisimple_nonexpansive(5, np.random.default_rng(1),
                                                k=0.6)
    nu = make_additive_norm(L2, H, K)
    v = is_nonexpansive(A, nu)
    assert v.kind == C
    assert v.certificate["operator_norm"] == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Paracontraction
# ---------------------------------------------------------------------------

def test_identity_paracontracting_vacuously():
    for norm in (L1, L2, LINF):
        v = check_paracontracting(np.eye(3), norm, 200)
        assert v.kind == C
        assert "vacuous" in v.note


def test_diagonal_contraction_l2_certified():
    v = check_paracontracting(np.diag([1.0, 0.5]), L2, 500)
    assert v.kind == C
    assert v.certificate["k"] == pytest.approx(0.5)


def test_nonidentity_stochastic_falsified_l1():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = random_stochastic(int(rng.integers(2, 6)), rng)
        v = check_paracontracting(A, L1, 500, seed=3)
        assert v.kind == F
        # witness genuinely violates: moved but no norm drop
        w = v.witness
        assert L1(A @ w - w) > 1e-9 * L1(w)
        assert L1(A @ w) >= L1(w) * (1 - 1e-10)


def test_expansive_matrix_falsified():
    v = check_paracontracting(np.diag([2.0, 0.5]), L2, 500)
    assert v.kind == F


def test_unknown_structure_inconclusive():
    # rotation by an irrational angle: moves every nonzero vector but
    # preserves the euclidean norm of none strictly... actually preserves it;
    # with LINF there is no certification route and probes find no violation
    th = 0.3
    R = 0.99 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    v = check_paracontracting(R, LINF, 64, seed=1)
    assert v.kind in (I, F)


# ---------------------------------------------------------------------------
# Rate inequality
# ---------------------------------------------------------------------------

def test_identity_rate_certified_at_gamma_one():
    v = check_l_paracontracting(np.eye(3), L1, 1.0, 200)
    assert v.kind == C


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        check_l_paracontracting(np.eye(2), L1, 0.0, 10)


def test_composite_route_certifies_third():
    A = np.diag([1.0, 0.5])
    nu = make_additive_norm(L2, Subspace.span([0, 1]), Subspace.span([1, 0]))
    v = check_l_paracontracting(A, nu, 1 / 3, 500)
    assert v.kind == C
    assert v.certificate["k"] == pytest.approx(0.5)


def test_double_identity_rate_falsified():
    for gamma in (0.1, 1.0):
        v = check_l_paracontracting(2 * np.eye(2), L1, gamma, 100)
        assert v.kind == F


def test_rate_above_certified_level_is_inconclusive():
    A = np.diag([1.0, 0.5])
    nu = make_additive_norm(L2, Subspace.span([0, 1]), Subspace.span([1, 0]))
    v = check_l_paracontracting(A, nu, 0.9, 500)
    assert v.kind == I
    assert "below the requested" in v.note


# ---------------------------------------------------------------------------
# H-contraction
# ---------------------------------------------------------------------------

def test_running_example_h_contractor():
    A = np.array([[0.9, 0.2], [0.1, 0.8]])
    v = check_H_contractor(A, Subspace.span([1, -1]), L1)
    assert v.kind == C
    assert v.certificate["k"] == pytest.approx(0.7)


def test_identity_not_h_contractor():
    v = check_H_contractor(np.eye(2), Subspace.span([1, -1]), L1)
    assert v.kind == F
    assert v.certificate["k"] == pytest.approx(1.0)


def test_rank_one_stochastic_contracts_to_zero():
    v = np.array([0.3, 0.7])
    A = np.outer(v, np.ones(2))
    out = check_H_contractor(A, mean_zero_subspace(2), L1)
    assert out.kind == C
    assert out.certificate["k"] == pytest.approx(0.0, abs=1e-12)


def test_h_contractor_noninvariant_subspace():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    v = check_H_contractor(rot, Subspace.span([1, 0]), L2)
    assert v.kind == F
    assert v.witness is not None


# ---------------------------------------------------------------------------
# Additive norms
# ---------------------------------------------------------------------------

def test_additive_coordinate_split_is_plain_l1():
    nu = make_additive_norm(L1, Subspace.span([1, 0]), Subspace.span([0, 1]))
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.standard_normal(2)
        assert nu(x) == pytest.approx(L1(x), rel=1e-12)


def test_additive_agrees_with_base_on_parts():
    H = Subspace.span([1, -1])
    K = Subspace.span([1, 1])
    nu = make_additive_norm(L2, H, K)
    y = H.basis[:, 0] * 2.3
    assert nu(y) == pytest.approx(L2(y), rel=1e-12)


def test_additive_explicit_decomposition_value():
    nu = make_additive_norm(L2, Subspace.span([1, -1]), Subspace.span([1, 1]))
    assert nu([1.0, 0.0]) == pytest.approx(np.sqrt(2), rel=1e-12)


def test_additive_rejects_overlapping_parts():
    with pytest.raises(DecompositionError):
        make_additive_norm(L1, Subspace.span([1, 0, 0]),
                           Subspace.span([1, 0, 0], [0, 1, 0]))
    with pytest.raises(DecompositionError):
        make_additive_norm(L1, Subspace.span([1, 0]), Subspace.span([1, 1e-13]))


def test_additive_requires_full_span():
    with pytest.raises(DecompositionError):
        make_additive_norm(L1, Subspace.span([1, 0, 0]),
                           Subspace.span([0, 1, 0]))


# ---------------------------------------------------------------------------
# Equivalence audit
# ---------------------------------------------------------------------------

def test_audit_diagonal_example_consistent():
    rep = equiv_theorem_audit(np.diag([1.0, 0.5]), L2, proof_samples=500)
    assert rep.k == pytest.approx(0.5)
    assert rep.gamma == pytest.approx(1 / 3)
    assert rep.agreement_ok
    assert rep.l_paracontracting.kind == C
    assert rep.paracontracting.kind == C
    assert rep.h_contractor.kind == C
    assert rep.proof_chain.displacement_excess <= 1e-9
    assert rep.proof_chain.drop_deficit <= 1e-9


def test_audit_identity_flags_boundary():
    rep = equiv_theorem_audit(np.eye(3), L1)
    assert rep.boundary == "k=1"
    assert rep.agreement_ok
    assert rep.paracontracting.kind == C
    assert rep.h_contractor.kind == I


def test_audit_defective_matrix_flagged():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = equiv_theorem_audit(J, L1)
    assert not rep.hypotheses_ok
    assert rep.boundary == "defective eigenvalue 1"


@pytest.mark.parametrize("seed", range(8))
def test_audit_random_semisimple_never_disagrees(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    A, H, K, k = random_semisimple_nonexpansive(n, rng)
    rep = equiv_theorem_audit(A, L2, budget=400, proof_samples=300, seed=seed)
    assert rep.agreement_ok, rep.disagreement
    assert rep.k == pytest.approx(k, abs=1e-8)
    assert rep.proof_chain.displacement_excess <= 1e-9
    assert rep.proof_chain.drop_deficit <= 1e-9


def test_fixed_part_of_additive_norm_is_exact():
    A, H, K, _ = random_semisimple_nonexpansive(
        4, np.random.default_rng(7), moving_dim=1)
    v = is_nonexpansive(A, make_additive_norm(L1, H, K))
    assert v.kind == C
    assert v.certificate == {"operator_norm": 1.0, "exact": True}
    assert equiv_theorem_audit(A, L1).hypotheses_ok


def test_audit_complex_field():
    rng = np.random.default_rng(11)
    A, H, K, k = random_semisimple_nonexpansive(4, rng, k=0.4,
                                                complex_field=True)
    rep = equiv_theorem_audit(A, L2, budget=300, seed=1)
    assert rep.agreement_ok
    assert rep.k == pytest.approx(0.4, abs=1e-8)


def test_split_of_I_minus_A_is_computed_once(monkeypatch):
    calls = []
    split = norms._split

    def counting(*args, **kwargs):
        calls.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(norms, "_split", counting)
    rng = np.random.default_rng(3)
    A, H, K, k = random_semisimple_nonexpansive(4, rng, k=0.5)
    rep = equiv_theorem_audit(A, L2, budget=200)
    assert rep.l_paracontracting.kind == C
    assert len(calls) == 1
    calls.clear()
    nu = make_additive_norm(L2, H, K)
    v = check_l_paracontracting(A, nu, lp_gamma(k) / 2, 200)
    assert v.kind == C and v.certificate["route"] == "additive_split"
    assert calls == []


def test_audit_draws_its_probes_and_its_moving_ratio_once(monkeypatch):
    rng = np.random.default_rng(3)
    A, _, _, _ = random_semisimple_nonexpansive(4, rng, k=0.5)
    calls = {"_standard_normal": 0, "partial_norm": 0}

    def counting(name):
        original = getattr(contraction, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(contraction, name, counting(name))
    equiv_theorem_audit(A, L2, budget=200)
    assert calls == {"_standard_normal": 1, "partial_norm": 1}


@pytest.mark.parametrize("base", [L1, LINF], ids=["l1", "linf"])
def test_audit_runs_one_sampled_search_for_its_moving_ratio(monkeypatch, base):
    # the nonexpansive verdict reads the moving ratio the audit already holds
    rng = np.random.default_rng(4)
    A, _, _, _ = random_semisimple_nonexpansive(5, rng, k=0.5, moving_dim=3)
    searches = []
    probe = norms._probe_coords

    def counting(*args, **kwargs):
        searches.append(1)
        return probe(*args, **kwargs)

    monkeypatch.setattr(norms, "_probe_coords", counting)
    rep = equiv_theorem_audit(A, base, budget=200, seed=1)
    assert len(searches) == 1
    assert rep.nonexpansive.certificate == {"operator_norm": 1.0, "exact": False}
    assert rep.h_contractor.certificate["k"] == rep.k < 1.0


def _verdict_bytes(v):
    witness = None if v.witness is None else v.witness.tobytes()
    return v.kind, v.note, v.budget_used, v.certificate, witness


@pytest.mark.parametrize("base", [L1, L2, LINF], ids=["l1", "l2", "linf"])
@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("scale", [1.0, 1.5], ids=["contracting", "expansive"])
@pytest.mark.parametrize("moving_dim", [1, 2])
def test_audit_verdicts_equal_the_public_checks(base, complex_field, scale,
                                                moving_dim):
    rng = np.random.default_rng(5)
    A, _, _, _ = random_semisimple_nonexpansive(4, rng, k=0.5,
                                                moving_dim=moving_dim,
                                                complex_field=complex_field)
    A = scale * A
    budget, seed = 150, 2
    rep = equiv_theorem_audit(A, base, budget=budget, seed=seed)
    pair = norms.complementary_pair(A)
    nu = make_additive_norm(base, pair.moving, pair.fixed)
    expected = {
        "nonexpansive": is_nonexpansive(A, nu, samples=budget, seed=seed),
        "paracontracting": check_paracontracting(A, nu, budget, seed=seed),
        "h_contractor": check_H_contractor(A, pair.moving, nu,
                                           samples=budget, seed=seed),
        "l_paracontracting": None if rep.gamma is None else
        check_l_paracontracting(A, nu, rep.gamma, budget, seed=seed),
    }
    for name, v in expected.items():
        got = getattr(rep, name)
        if v is None:
            assert got is None
        else:
            assert _verdict_bytes(got) == _verdict_bytes(v), name


_E1, _E2 = np.eye(2)
_DIAG = np.diag([1.0, 0.5])
# One broken premise each: (A, H, K) for the additive norm over H + K.
PREMISE_BREAKERS = {
    "K moved by A": (_DIAG, Subspace.span(_E2), Subspace.span(_E1 + _E2)),
    "H not invariant": (np.array([[1.0, 0.3], [0.0, 0.5]]),
                        Subspace.span(_E2), Subspace.span(_E1)),
    "parts swapped": (_DIAG, Subspace.span(_E1), Subspace.span(_E2)),
}


@pytest.mark.parametrize("case", sorted(PREMISE_BREAKERS))
def test_split_certificate_needs_every_premise(case):
    A, H, K = PREMISE_BREAKERS[case]
    nu = make_additive_norm(L2, H, K)
    assert contraction._split_certificate(A, nu, samples=200, seed=0) is None
    for v in (check_paracontracting(A, nu, 200),
              check_l_paracontracting(A, nu, 0.01, 200)):
        assert not (v.certified and v.certificate
                    and v.certificate.get("route") == "additive_split")


def test_orthogonal_l2_route_does_not_swallow_unexpected_errors(monkeypatch):
    def broken(A):
        raise TypeError("not a rank or linear-algebra failure")

    monkeypatch.setattr(contraction, "complementary_pair", broken)
    with pytest.raises(TypeError):
        check_paracontracting(np.diag([1.0, 0.5]), L2)


# ---------------------------------------------------------------------------
# Certification soundness on fresh samples
# ---------------------------------------------------------------------------

def test_certified_verdicts_hold_on_fresh_samples():
    rng = np.random.default_rng(12)
    A, H, K, k = random_semisimple_nonexpansive(4, rng, k=0.5)
    nu = make_additive_norm(L2, H, K)
    gamma = lp_gamma(k)
    assert check_l_paracontracting(A, nu, gamma, 300).kind == C
    X = rng.standard_normal((4, 2000))
    lhs = nu.batch(A @ X)
    rhs = nu.batch(X) - gamma * nu.batch(A @ X - X)
    assert np.all(lhs <= rhs + 1e-10 * nu.batch(X))
    # strict drop on moved vectors
    moved = nu.batch(A @ X - X) > 1e-9 * nu.batch(X)
    assert np.all(lhs[moved] < nu.batch(X)[moved])


def test_certified_rate_holds_on_fresh_samples_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=30, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
               base=st.sampled_from([L1, L2, LINF]),
               complex_field=st.booleans())
    def prop(seed, n, base, complex_field):
        rng = np.random.default_rng(seed)
        # Exact ratios on H: the Gram route for l2, one direction otherwise.
        d = None if base is L2 else 1
        A, H, K, k = random_semisimple_nonexpansive(
            n, rng, moving_dim=d, complex_field=complex_field)
        nu = make_additive_norm(base, H, K)
        v = check_l_paracontracting(A, nu, lp_gamma(k) / 2, 200, seed=seed)
        assert v.kind == C
        gamma = v.certificate["gamma"]
        X = rng.standard_normal((n, 500))
        if complex_field:
            X = X + 1j * rng.standard_normal((n, 500))
        nx, nax = nu.batch(X), nu.batch(A @ X)
        assert np.all(nax <= nx - gamma * nu.batch(A @ X - X) + 1e-10 * nx)

    prop()


# ---------------------------------------------------------------------------
# Strict-monotonicity probe
# ---------------------------------------------------------------------------

def test_monotonicity_probe_additive_norm_consistent():
    H = Subspace.span([1, -1, 0])
    K = H.orthogonal_complement()
    nu = make_additive_norm(L2, H, K)
    probe = probe_strict_monotonicity(nu, H, K, samples=300, seed=5)
    assert probe.consistent


def test_monotonicity_probe_finds_linf_counterexample():
    # max-norm: growing the H part can leave the max unchanged
    H = Subspace.span([1, 0])
    K = Subspace.span([0, 1])
    probe = probe_strict_monotonicity(LINF, H, K, samples=500, seed=6)
    assert not probe.consistent
    y, yp, z = probe.counterexample
    assert LINF(y) < LINF(yp)
    assert LINF(y + z) >= LINF(yp + z) * (1 - 1e-12)


def test_expansive_matrix_is_not_an_h_contractor():
    v = check_H_contractor(2 * np.eye(2), mean_zero_subspace(2), L1)
    assert v.kind == F
    assert v.note == "matrix is expansive"
    assert v.certificate["operator_norm"] == pytest.approx(2.0)


def test_sampled_contraction_ratio_is_inconclusive():
    # l1 on a coordinate plane written in a rotated basis has no closed form
    A = np.diag([1.0, 0.5, 0.3])
    v = check_H_contractor(A, Subspace.span([0, 1, 1], [0, 1, -1]), L1)
    assert v.kind == I
    assert v.certificate["k_method"] == "optimized"
    assert v.certificate["k"] == pytest.approx(0.5, abs=1e-6)
    assert "sampled lower bound" in v.note


def test_exact_ratio_within_tolerance_of_one_is_inconclusive():
    v = check_H_contractor(np.diag([1.0, 1 - 1e-9]), Subspace.span([0, 1]), L2)
    assert v.kind == I
    assert v.certificate["k_method"] == "closed_form"
    assert v.certificate["k"] == pytest.approx(1 - 1e-9, abs=1e-15)
    assert "within tolerance" in v.note


def test_audit_rotation_block_sits_on_the_k_1_boundary():
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rep = equiv_theorem_audit(rot, L2)
    assert rep.boundary == "k=1"
    assert rep.k == pytest.approx(1.0) and rep.gamma is None
    assert rep.l_paracontracting is None
    assert rep.h_contractor.kind == F
