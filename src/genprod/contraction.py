"""Contraction-type classification of a single matrix.

Four related properties of a matrix A with respect to a vector norm:

  * nonexpansive: the induced operator norm is at most 1;
  * paracontracting: the norm strictly drops on every vector A moves;
  * rate-certified (gamma) contraction: norm(A x) <= norm(x) - gamma *
    norm(A x - x) for every x, for a fixed gamma > 0;
  * H-contracting: nonexpansive, with strict contraction on an invariant
    subspace H.

Paracontraction and the gamma inequality are universally quantified, so a
sampler can only falsify them.  Verdicts are therefore three-valued, and
certification goes through structural routes: for norms that add up along
the splitting into the fixed space of A and the range of (I - A), the three
strict properties coincide and the contraction ratio on the moving part
yields the certified rate gamma = (1 - k) / (1 + k).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .norms import (
    AdditiveNorm,
    InvarianceError,
    MOVED_RTOL,
    NORM_TOL,
    PNorm,
    RankAmbiguityError,
    Subspace,
    VectorNorm,
    _fixes,
    _operator_norm_detail,
    _standard_normal,
    additive_norm,
    as_matrix,
    check_invariance,
    complementary_pair,
    partial_norm,
)

# Scale-invariant threshold for counting an equality as a violation of a
# strict inequality.
FALSIFY_RTOL = 1e-12


class Verdict(str, enum.Enum):
    CERTIFIED = "certified"
    FALSIFIED = "falsified"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class ContractionVerdict:
    """Outcome of one contraction check.

    Falsified verdicts always carry a concrete witness vector; certified
    verdicts carry the structural evidence (contraction ratio k, certified
    rate gamma, route) in ``certificate``.
    """

    kind: Verdict
    prop: str
    witness: np.ndarray | None = None
    certificate: dict | None = None
    budget_used: int = 0
    note: str = ""

    def __post_init__(self):
        if self.witness is not None:
            w = np.asarray(self.witness)
            w.setflags(write=False)
            object.__setattr__(self, "witness", w)

    @property
    def certified(self) -> bool:
        return self.kind == Verdict.CERTIFIED

    @property
    def falsified(self) -> bool:
        return self.kind == Verdict.FALSIFIED


def lp_gamma(k: float) -> float:
    """Certified contraction rate from the ratio k on the moving subspace."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"need 0 <= k < 1, got {k}")
    return (1.0 - k) / (1.0 + k)


def _is_identity(A: np.ndarray) -> bool:
    return bool(np.all(np.abs(A - np.eye(A.shape[0])) <= 1e-12))


# ---------------------------------------------------------------------------
# Contraction checks
# ---------------------------------------------------------------------------

class _Facts:
    """What the verdicts on (A, norm) read, each computed on first use, so a
    caller that reads several verdicts (the audit) computes each fact once.
    ``budget`` is the probe count and the sample count of sampled norms.
    """

    def __init__(self, A, norm: VectorNorm, budget: int, seed: int):
        self.A = as_matrix(A)
        self.norm, self.budget, self.seed = norm, budget, seed
        self._partials = {}

    @cached_property
    def probes(self):
        """Probes X (coordinate vectors, eigenvector directions, additive parts,
        seeded random fill to the budget), norm(X), norm(A X), norm(A X - X)."""
        A, norm = self.A, self.norm
        n = A.shape[0]
        cplx = np.iscomplexobj(A)
        cols = [np.eye(n, dtype=complex if cplx else float)]
        try:
            _, vecs = np.linalg.eig(A)
            cols.append(vecs.real)
            if np.iscomplexobj(vecs):
                cols.append(vecs.imag)
        except np.linalg.LinAlgError:
            pass
        if isinstance(norm, AdditiveNorm):
            cols.extend(part.basis for part in (norm.H, norm.K) if part.dim)
        fill = max(self.budget - sum(c.shape[1] for c in cols), 0)
        if fill:
            cols.append(_standard_normal(np.random.default_rng(self.seed),
                                         (n, fill), cplx))
        X = np.hstack([c.astype(complex if cplx else float) for c in cols])
        X = X[:, np.linalg.norm(X, axis=0) > 1e-12]
        AX = A @ X
        return X, norm.batch(X), norm.batch(AX), norm.batch(AX - X)

    @cached_property
    def nonexpansive(self) -> ContractionVerdict:
        value, witness, exact = _operator_norm_detail(
            self.A, self.norm, samples=self.budget, seed=self.seed,
            partial=self.partial)
        cert = {"operator_norm": value, "exact": exact}
        if value > 1.0 + NORM_TOL:
            return ContractionVerdict(Verdict.FALSIFIED, "nonexpansive",
                                      witness=witness, certificate=cert)
        if exact:
            return ContractionVerdict(Verdict.CERTIFIED, "nonexpansive",
                                      certificate=cert)
        return ContractionVerdict(
            Verdict.INCONCLUSIVE, "nonexpansive", certificate=cert,
            note="operator norm known only as a sampled lower bound")

    def partial(self, H: Subspace):
        """``partial_norm(A, H, norm)``, once per Subspace object (by identity)."""
        if H not in self._partials:
            self._partials[H] = partial_norm(self.A, H, self.norm,
                                             samples=self.budget, seed=self.seed)
        return self._partials[H]

    @cached_property
    def split(self) -> dict | None:
        """Certificate via a norm that adds up along fixed/moving parts of A.

        Reads the split from the additive norm's own parts H + K and checks
        three facts: A fixes every vector of K (``max|A K - K|`` at most
        ``MOVED_RTOL * max(1, max|A|)``), H is invariant, and ``k`` (the
        base norm's ratio on H) is exact and below ``1 - NORM_TOL``.

        Since H + K is the whole space, these prove the rest.  For x = y + z
        with y in H and z in K, ``nu(A x) = base(A y) + base(z) <= k base(y)
        + base(z) <= nu(x)``, so A is nonexpansive.  As k < 1, 1 is not an
        eigenvalue of A on H, so K is the fixed space of A, H is the range of
        I - A, and eigenvalue 1 is semisimple.  The displacement bounds
        ``nu(x - A x) <= (1 + k) base(y)`` and ``nu(x) - nu(A x) >= (1 - k)
        base(y)`` give the rate gamma = (1 - k) / (1 + k).  A non-invariant H
        means no certificate.  The certificate dict, or None.
        """
        norm = self.norm
        if not isinstance(norm, AdditiveNorm) or not _fixes(self.A, norm.K):
            return None
        try:
            kres = self.partial(norm.H)
        except InvarianceError:
            return None
        if not kres.is_exact or kres.value >= 1.0 - NORM_TOL:
            return None
        k = kres.value
        return {"k": k, "gamma": lp_gamma(k), "route": "additive_split",
                "moving_dim": norm.H.dim}

    def orthogonal_l2(self) -> dict | None:
        """Paracontraction certificate for the euclidean norm.

        When the fixed space and the moving space are orthogonal complements,
        the euclidean norm splits by Pythagoras, so strict contraction on the
        moving part certifies the strict drop on every moved vector.  This
        route does NOT certify a gamma rate (the rate inequality genuinely
        fails for the euclidean norm without additivity).
        """
        try:
            pair = complementary_pair(self.A)
        except (RankAmbiguityError, np.linalg.LinAlgError):
            return None
        if not pair.complementary or pair.moving.dim == 0:
            return None
        if pair.fixed.dim:
            cross = pair.fixed.basis.conj().T @ pair.moving.basis
            if float(np.abs(cross).max()) > 1e-8:
                return None
        if self.nonexpansive.falsified:
            return None
        kres = self.partial(pair.moving)
        if not kres.is_exact or kres.value >= 1.0 - NORM_TOL:
            return None
        return {"k": kres.value, "route": "orthogonal_l2",
                "moving_dim": pair.moving.dim}

    def paracontracting(self) -> ContractionVerdict:
        X, nx, nax, moved = self.probes
        used = X.shape[1]
        viol = (nx > 1e-300) & (moved > MOVED_RTOL * nx) & \
            (nax >= nx * (1.0 - FALSIFY_RTOL))
        if np.any(viol):
            idx = int(np.argmax(np.where(viol, nax / np.maximum(nx, 1e-300),
                                         -np.inf)))
            return ContractionVerdict(Verdict.FALSIFIED, "paracontracting",
                                      witness=X[:, idx], budget_used=used)
        if _is_identity(self.A):
            return ContractionVerdict(Verdict.CERTIFIED, "paracontracting",
                                      budget_used=used,
                                      note="vacuous: the matrix moves no vector")
        cert = self.split
        if cert is None and isinstance(self.norm, PNorm) and self.norm.p == 2.0:
            cert = self.orthogonal_l2()
        if cert is not None:
            return ContractionVerdict(Verdict.CERTIFIED, "paracontracting",
                                      certificate=cert, budget_used=used)
        return ContractionVerdict(
            Verdict.INCONCLUSIVE, "paracontracting", budget_used=used,
            note="no violation sampled; no certification route applies")

    def l_paracontracting(self, gamma: float) -> ContractionVerdict:
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        X, nx, nax, moved = self.probes
        used = X.shape[1]
        slack = nax - (nx - gamma * moved)
        viol = slack > NORM_TOL * np.maximum(nx, 1.0)
        if np.any(viol):
            idx = int(np.argmax(np.where(viol, slack, -np.inf)))
            return ContractionVerdict(
                Verdict.FALSIFIED, "l_paracontracting", witness=X[:, idx],
                certificate={"gamma": gamma, "slack": float(slack[idx])},
                budget_used=used)
        if _is_identity(self.A):
            return ContractionVerdict(
                Verdict.CERTIFIED, "l_paracontracting",
                certificate={"gamma": gamma, "route": "identity"},
                budget_used=used, note="vacuous: the displacement term is zero")
        cert = self.split
        if cert is None:
            return ContractionVerdict(
                Verdict.INCONCLUSIVE, "l_paracontracting", budget_used=used,
                note="no violation sampled; no certification route applies")
        if cert["gamma"] >= gamma - 1e-15:
            return ContractionVerdict(
                Verdict.CERTIFIED, "l_paracontracting", budget_used=used,
                certificate={**cert, "gamma_requested": gamma})
        return ContractionVerdict(
            Verdict.INCONCLUSIVE, "l_paracontracting", budget_used=used,
            certificate=cert,
            note=f"certified rate {cert['gamma']:.6g} is below the "
                 f"requested gamma {gamma:.6g}")

    def h_contractor(self, H: Subspace) -> ContractionVerdict:
        A = self.A
        inv = check_invariance(A, H)
        if not inv.ok:
            leak = A @ H.basis - H.projector() @ (A @ H.basis)
            j = int(np.argmax(np.linalg.norm(leak, axis=0)))
            return ContractionVerdict(
                Verdict.FALSIFIED, "h_contractor", witness=H.basis[:, j],
                certificate={"invariance_residual": inv.residual},
                note="subspace is not invariant")
        nonexp = self.nonexpansive
        if nonexp.falsified:
            return ContractionVerdict(Verdict.FALSIFIED, "h_contractor",
                                      witness=nonexp.witness,
                                      certificate=nonexp.certificate,
                                      note="matrix is expansive")
        pn = self.partial(H)
        cert = {"k": pn.value, "k_method": pn.method, "k_strategy": pn.strategy,
                "subspace_dim": H.dim}
        if not nonexp.certified:
            return ContractionVerdict(Verdict.INCONCLUSIVE, "h_contractor",
                                      certificate=cert, note=nonexp.note)
        if pn.value >= 1.0:
            return ContractionVerdict(Verdict.FALSIFIED, "h_contractor",
                                      witness=pn.witness, certificate=cert)
        if not pn.is_exact:
            return ContractionVerdict(
                Verdict.INCONCLUSIVE, "h_contractor", certificate=cert,
                note="contraction ratio known only as a sampled lower bound")
        if pn.value >= 1.0 - NORM_TOL:
            return ContractionVerdict(
                Verdict.INCONCLUSIVE, "h_contractor", certificate=cert,
                note="contraction ratio within tolerance of 1")
        return ContractionVerdict(Verdict.CERTIFIED, "h_contractor",
                                  certificate=cert)


def _split_certificate(A, norm, *, samples: int, seed: int):
    """The additive-split certificate (:attr:`_Facts.split`) or None."""
    return _Facts(A, norm, samples, seed).split


def is_nonexpansive(A, norm: VectorNorm, *, samples: int = 4096,
                    seed: int = 0) -> ContractionVerdict:
    """Is the induced operator norm at most 1?

    Norms with exact operator-norm routes give definite verdicts.  When only
    the sampling lower bound is available, a bound above 1 still falsifies
    (the witness is explicit), but a bound below 1 cannot certify.
    """
    return _Facts(A, norm, samples, seed).nonexpansive


def check_paracontracting(A, norm: VectorNorm, budget: int = 2048, *,
                          seed: int = 0) -> ContractionVerdict:
    """Does the norm strictly drop on every vector that A moves?

    Sampling (coordinate vectors, eigenvector directions, random) can only
    falsify; certification uses the additive-split route, the orthogonal
    euclidean route, or the vacuous case A = I.
    """
    return _Facts(A, norm, budget, seed).paracontracting()


def check_l_paracontracting(A, norm: VectorNorm, gamma: float,
                            budget: int = 2048, *,
                            seed: int = 0) -> ContractionVerdict:
    """Does norm(A x) <= norm(x) - gamma * norm(A x - x) hold for all x?

    Falsified on any sampled violation beyond tolerance; certified when the
    additive-split route yields a rate at least as large as the requested
    gamma; otherwise inconclusive (sampling cannot prove a universally
    quantified inequality).
    """
    return _Facts(A, norm, budget, seed).l_paracontracting(gamma)


def check_H_contractor(A, H: Subspace, norm: VectorNorm, *,
                       samples: int = 4096, seed: int = 0) -> ContractionVerdict:
    """Nonexpansive, H invariant, and strictly contracting on H?

    The certificate carries the contraction ratio k on H.  A k at or above 1
    falsifies with the maximizing direction as witness, whether k is exact
    or a sampled lower bound; a sampled k below 1 cannot certify the
    supremum and stays inconclusive.
    """
    return _Facts(A, norm, samples, seed).h_contractor(H)


# ---------------------------------------------------------------------------
# Equivalence audit
# ---------------------------------------------------------------------------

class ProofChainStats(NamedTuple):
    """Worst sampled slack in the two displacement inequalities.

    For x = y + z split along moving/fixed parts and k the contraction ratio:
    displacement_excess is max of norm(x - A x) - (1 + k) norm(y), and
    drop_deficit is max of (1 - k) norm(y) - (norm(x) - norm(A x)); both are
    nonpositive up to roundoff when the audit hypotheses hold.
    """

    samples: int
    displacement_excess: float
    drop_deficit: float


@dataclass(frozen=True, eq=False)
class EquivalenceAuditReport:
    """Joint classification under the split-additive norm built from A."""

    nonexpansive: ContractionVerdict
    l_paracontracting: ContractionVerdict | None
    paracontracting: ContractionVerdict
    h_contractor: ContractionVerdict
    k: float | None
    gamma: float | None
    hypotheses_ok: bool
    boundary: str | None
    agreement_ok: bool
    disagreement: str | None
    proof_chain: ProofChainStats | None


def _audit_agreement(verdicts: dict) -> tuple[bool, str | None]:
    kinds = {name: v.kind for name, v in verdicts.items() if v is not None}
    cert = [n for n, k in kinds.items() if k == Verdict.CERTIFIED]
    fals = [n for n, k in kinds.items() if k == Verdict.FALSIFIED]
    if cert and fals:
        return False, f"certified {cert} vs falsified {fals}"
    return True, None


def equiv_theorem_audit(A, base: VectorNorm, *, budget: int = 2048,
                        proof_samples: int = 0,
                        seed: int = 0) -> EquivalenceAuditReport:
    """Classify A three ways under the additive norm built on its own split.

    Builds the norm that adds ``base`` values across the moving part (range
    of I - A) and the fixed part, computes the contraction ratio k there,
    then runs the rate check with gamma = (1 - k) / (1 + k), the strict-drop
    check, and the subspace-contraction check, reporting any certified vs
    falsified conflict.  ``proof_samples`` additionally samples the two
    displacement inequalities behind the rate bound.
    """
    A = as_matrix(A)
    if _is_identity(A):
        para = ContractionVerdict(Verdict.CERTIFIED, "paracontracting",
                                  note="vacuous: the matrix moves no vector")
        lpara = ContractionVerdict(Verdict.CERTIFIED, "l_paracontracting",
                                   certificate={"gamma": 1.0, "route": "identity"},
                                   note="vacuous: the displacement term is zero")
        hc = ContractionVerdict(
            Verdict.INCONCLUSIVE, "h_contractor",
            note="fixed-point boundary: the moving space is zero and every "
                 "nonzero invariant subspace has ratio exactly 1")
        nonexp = is_nonexpansive(A, base, seed=seed)
        return EquivalenceAuditReport(
            nonexpansive=nonexp, l_paracontracting=lpara, paracontracting=para,
            h_contractor=hc, k=None, gamma=None, hypotheses_ok=True,
            boundary="k=1", agreement_ok=True, disagreement=None,
            proof_chain=None)

    pair = complementary_pair(A)
    if not pair.complementary:
        nonexp = is_nonexpansive(A, base, seed=seed)
        bad = ContractionVerdict(
            Verdict.INCONCLUSIVE, "h_contractor",
            note="fixed and moving spaces are not complementary")
        return EquivalenceAuditReport(
            nonexpansive=nonexp, l_paracontracting=None, paracontracting=bad,
            h_contractor=bad, k=None, gamma=None, hypotheses_ok=False,
            boundary="defective eigenvalue 1", agreement_ok=True,
            disagreement=None, proof_chain=None)

    facts = _Facts(A, additive_norm(base, pair.moving, pair.fixed), budget, seed)
    kres = facts.partial(pair.moving)  # nu reduces to base on the moving part
    k = kres.value
    hypotheses_ok = facts.nonexpansive.certified and kres.is_exact
    boundary = None
    gamma = None
    if kres.is_exact and k >= 1.0 - NORM_TOL:
        boundary = f"k={k:.6g}"
    elif kres.is_exact and k < 1.0 - NORM_TOL:
        gamma = lp_gamma(k)

    verdicts = {"l_paracontracting": None if gamma is None
                else facts.l_paracontracting(gamma),
                "paracontracting": facts.paracontracting(),
                "h_contractor": facts.h_contractor(pair.moving)}
    agreement_ok, disagreement = _audit_agreement(verdicts)

    chain = None
    if proof_samples > 0 and hypotheses_ok:
        chain = _proof_chain_stats(A, facts.norm, k, proof_samples, seed)

    return EquivalenceAuditReport(
        nonexpansive=facts.nonexpansive, **verdicts, k=k, gamma=gamma,
        hypotheses_ok=hypotheses_ok, boundary=boundary,
        agreement_ok=agreement_ok, disagreement=disagreement, proof_chain=chain)


def _proof_chain_stats(A, nu: AdditiveNorm, k: float, samples: int,
                       seed: int) -> ProofChainStats:
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    cplx = np.iscomplexobj(A) or np.iscomplexobj(nu.H.basis)
    X = _standard_normal(rng, (n, samples), cplx)
    X = X / np.maximum(nu.batch(X), 1e-300)
    AX = A @ X
    Y, _ = nu.split_batch(X)
    ny = nu.base.batch(Y)
    displacement = nu.batch(X - AX)
    drop = nu.batch(X) - nu.batch(AX)
    excess = float(np.max(displacement - (1.0 + k) * ny))
    deficit = float(np.max((1.0 - k) * ny - drop))
    return ProofChainStats(samples=samples, displacement_excess=excess,
                           drop_deficit=deficit)


# ---------------------------------------------------------------------------
# Sampled probe for the strict-monotonicity condition
# ---------------------------------------------------------------------------

class MonotonicityProbe(NamedTuple):
    consistent: bool
    counterexample: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    samples: int


def probe_strict_monotonicity(norm: VectorNorm, H: Subspace, K: Subspace, *,
                              samples: int = 500,
                              seed: int = 0) -> MonotonicityProbe:
    """Sample the condition: growing the H part strictly grows the norm.

    Checks norm(y) < norm(y') implies norm(y + z) < norm(y' + z) on random
    y, y' from H and z from K; equality on the right already violates the
    strict implication.  A universally quantified condition cannot be
    certified this way; the probe reports consistency on the sample or a
    concrete counterexample.
    """
    rng = np.random.default_rng(seed)
    cplx = np.iscomplexobj(H.basis) or np.iscomplexobj(K.basis)

    def draw(S: Subspace):
        return S.basis @ _standard_normal(rng, S.dim, cplx)

    for i in range(samples):
        y, yp, z = draw(H), draw(H), draw(K)
        ny, nyp = norm(y), norm(yp)
        if ny > nyp:
            y, yp, ny, nyp = yp, y, nyp, ny
        if ny >= nyp * (1.0 - 1e-9):
            continue  # the hypothesis norm(y) < norm(y') is not clearly met
        if norm(y + z) >= norm(yp + z) * (1.0 - FALSIFY_RTOL):
            return MonotonicityProbe(False, (y, yp, z), i + 1)
    return MonotonicityProbe(True, None, samples)


# ---------------------------------------------------------------------------
# Random instances for audits and experiments
# ---------------------------------------------------------------------------

def random_semisimple_nonexpansive(n: int, rng, *, moving_dim: int | None = None,
                                   k: float | None = None,
                                   complex_field: bool = False):
    """Random matrix acting as the identity on a subspace and contracting
    (euclidean ratio exactly k) on an orthogonal complement.

    Returns (A, moving, fixed, k); eigenvalue 1 is semisimple by
    construction, with fixed space ``fixed`` and moving space ``moving``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    d = moving_dim if moving_dim is not None else int(rng.integers(1, n))
    if not 1 <= d <= n - 1:
        raise ValueError("moving_dim must be between 1 and n - 1")
    if k is None:
        k = float(rng.uniform(0.05, 0.95))
    Q, _ = np.linalg.qr(_standard_normal(rng, (n, n), complex_field))
    Bh, Bk = Q[:, :d], Q[:, d:]
    C = _standard_normal(rng, (d, d), complex_field)
    top = np.linalg.svd(C, compute_uv=False)[0]
    C = C * (k / top)
    A = Bh @ C @ Bh.conj().T + Bk @ Bk.conj().T
    return A, Subspace(Bh), Subspace(Bk), k
