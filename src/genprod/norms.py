"""Vector norms, invariant subspaces, and norms of matrices restricted to them.

Everything here works over the real or the complex field; inputs are promoted
to float64/complex128 on validation.  All returned objects are immutable
value types (arrays are marked read-only), so they can be shared freely
between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Tolerances for double precision at dimensions up to ~100.  The subspace
# layer takes its invariance, rank and "A fixes x" decisions from these only.
INVARIANCE_TOL = 1e-9
RANK_FLOOR = 1e-10
NORM_TOL = 1e-8
MOVED_RTOL = 1e-9


class InvarianceError(ValueError):
    """A subspace claimed invariant is not mapped into itself."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RankAmbiguityError(ValueError):
    """A numerical rank decision fell inside the ambiguity band.

    Carries the relative singular-value gap that straddled the cutoff, so the
    caller can see how far the data is from a clear decision.
    """

    def __init__(self, message, gap):
        super().__init__(message)
        self.gap = gap


class DecompositionError(ValueError):
    """A direct-sum split H + K is missing directions or too ill-conditioned."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and promote a square matrix with finite entries."""
    A = np.asarray(a)
    if A.dtype.kind not in "fc":
        A = A.astype(float)
    elif A.dtype == np.float32:
        A = A.astype(np.float64)
    elif A.dtype == np.complex64:
        A = A.astype(np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _standard_normal(rng, shape, cplx: bool) -> np.ndarray:
    """Standard normal draws, plus an independent imaginary part if cplx."""
    X = rng.standard_normal(shape)
    if cplx:
        X = X + 1j * rng.standard_normal(shape)
    return X


def as_vector(x, n: int | None = None) -> np.ndarray:
    v = np.asarray(x)
    if v.dtype.kind not in "fc":
        v = v.astype(float)
    v = v.reshape(-1)
    if n is not None and v.shape[0] != n:
        raise ValueError(f"vector has length {v.shape[0]}, expected {n}")
    return v


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace stored as an orthonormal basis (columns of ``basis``).

    ``basis`` has shape (n, d) with d the dimension and n the ambient
    dimension; d may be 0 (the zero subspace) or n (the full space).
    """

    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis)
        if B.ndim != 2:
            raise ValueError("subspace basis must be a 2-d array (n, d)")
        if B.dtype.kind not in "fc":
            B = B.astype(float)
        n, d = B.shape
        if d > n:
            raise ValueError(f"subspace dimension {d} exceeds ambient dimension {n}")
        # np.allclose(gram, I, atol=100 * INVARIANCE_TOL) without its overhead
        eye = np.eye(d)
        if not (np.abs(B.conj().T @ B - eye) <= 100 * INVARIANCE_TOL + 1e-5 * eye).all():
            raise ValueError("subspace basis columns are not orthonormal")
        object.__setattr__(self, "basis", _readonly(B.copy()))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0)))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n))

    @classmethod
    def span(cls, *vectors) -> "Subspace":
        """Orthonormalize spanning vectors (dependent ones are dropped)."""
        cols = [as_vector(v) for v in vectors]
        if not cols:
            raise ValueError("span() needs at least one vector")
        M = np.column_stack(cols)
        return cls.from_spanning(M)

    @classmethod
    def from_spanning(cls, M) -> "Subspace":
        """Subspace spanned by the columns of M, via SVD with rank detection."""
        M = np.atleast_2d(np.asarray(M))
        if M.dtype.kind not in "fc":
            M = M.astype(float)
        if M.size == 0 or not np.any(M):
            return cls.zero(M.shape[0])
        u, s, _ = np.linalg.svd(M, full_matrices=False)
        rank = int(np.sum(s > max(M.shape) * np.finfo(float).eps * s[0]))
        return cls(u[:, :rank])

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        B = self.basis
        return B @ B.conj().T

    def project(self, x) -> np.ndarray:
        x = as_vector(x, self.ambient_dim)
        return self.basis @ (self.basis.conj().T @ x)

    def coords(self, x) -> np.ndarray:
        """Coordinates of x in the orthonormal basis (x assumed in the subspace)."""
        return self.basis.conj().T @ as_vector(x, self.ambient_dim)

    def contains(self, x, tol: float = INVARIANCE_TOL) -> bool:
        """Is ``||x - P x|| <= tol * ||x||``?  Decided on x scaled by a power
        of two, so the answer does not depend on the scale of x; the zero
        vector is contained."""
        x = as_vector(x, self.ambient_dim)
        peak = float(np.abs(x).max()) if x.size else 0.0
        if peak == 0.0:
            return True
        f1, f2 = _pow2_factors(math.frexp(peak)[1])
        x = x * f1 * f2
        return float(np.linalg.norm(x - self.project(x))) <= \
            tol * float(np.linalg.norm(x))

    def equals(self, other: "Subspace", tol: float = 1e-8) -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        if self.dim == 0:
            return True
        diff = self.projector() - other.projector()
        return float(np.linalg.norm(diff, 2)) <= tol

    def orthogonal_complement(self) -> "Subspace":
        n, d = self.basis.shape
        if d == 0:
            return Subspace.full(n)
        if d == n:
            return Subspace.zero(n)
        # Complete the basis via full QR of [B | I].
        q, _ = np.linalg.qr(np.hstack([self.basis, np.eye(n, dtype=self.basis.dtype)]))
        comp = q[:, d:n]
        return Subspace(comp)


def mean_zero_subspace(n: int) -> Subspace:
    """The hyperplane of vectors whose entries sum to zero.

    Basis: successive differences e1-e2, e2-e3, ... orthonormalized, so it is
    canonical and reproducible.
    """
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if n == 1:
        return Subspace.zero(1)
    D = np.zeros((n, n - 1))
    for j in range(n - 1):
        D[j, j] = 1.0
        D[j + 1, j] = -1.0
    q, _ = np.linalg.qr(D)
    return Subspace(q)


def is_mean_zero_subspace(H: Subspace) -> bool:
    """True when H is exactly the sum-zero hyperplane (real basis)."""
    n = H.ambient_dim
    if H.dim != n - 1 or np.iscomplexobj(H.basis):
        return False
    e = np.ones(n)
    return float(np.linalg.norm(H.basis.T @ e)) <= INVARIANCE_TOL * np.sqrt(n)


# ---------------------------------------------------------------------------
# Rank decisions
# ---------------------------------------------------------------------------

def numerical_rank(singular_values) -> int:
    """Rank from descending singular values: values below RANK_FLOOR*s0 are zero.

    Raises RankAmbiguityError when the gap between the last kept and the first
    dropped value spans fewer than two orders of magnitude, i.e. the data
    does not clearly separate signal from noise at this floor.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    rel = s / s[0]
    rank = int(np.sum(rel > RANK_FLOOR))
    if 0 < rank < s.size and rel[rank] > 0.0:
        gap = rel[rank - 1] / rel[rank]
        if gap < 100.0:
            raise RankAmbiguityError(
                f"singular values {s[rank - 1]:.3e} and {s[rank]:.3e} straddle "
                f"the rank cutoff with gap {gap:.2e}", gap=gap)
    return rank


def _split(A) -> tuple[Subspace, Subspace]:
    """Fixed space of A and range of (I - A), from one SVD of (I - A)."""
    A = as_matrix(A)
    u, s, vh = np.linalg.svd(np.eye(A.shape[0]) - A)
    rank = numerical_rank(s)
    return Subspace(vh[rank:].conj().T), Subspace(u[:, :rank])


def fixed_point_space(A) -> Subspace:
    """Nullspace of (I - A): the fixed vectors of A."""
    return _split(A)[0]


def range_complement(A) -> Subspace:
    """Range of (I - A), the natural invariant complement to the fixed space."""
    return _split(A)[1]


class SplittingReport(NamedTuple):
    fixed: Subspace
    moving: Subspace
    complementary: bool
    min_angle_sv: float


def complementary_pair(A) -> SplittingReport:
    """Fixed space of A and range of (I - A), with a complementarity flag.

    Both spaces come from one SVD of (I - A), so their dimensions always add
    up to n.  ``complementary`` reports whether they intersect only at 0
    (equivalently, eigenvalue 1 of A has no nontrivial Jordan structure),
    decided by the smallest singular value of the stacked basis.
    """
    fixed, moving = _split(A)
    stacked = np.hstack([fixed.basis, moving.basis])
    if stacked.shape[1] == 0:
        return SplittingReport(fixed, moving, True, 1.0)
    sv = np.linalg.svd(stacked, compute_uv=False)
    min_sv = float(sv[-1])
    return SplittingReport(fixed, moving, min_sv > 1e-7, min_sv)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

class VectorNorm:
    """Base class: a vector norm, defined by ``batch`` (columnwise) or by
    ``__call__``; the default scalar call checks the length, then batches."""

    name = "norm"

    def __call__(self, x) -> float:
        return float(self.batch(as_vector(x, self.dimension())[:, None])[0])

    def batch(self, X: np.ndarray) -> np.ndarray:
        """Norm of every column of X."""
        if type(self).__call__ is VectorNorm.__call__:
            raise NotImplementedError("a VectorNorm defines batch or __call__")
        return np.array([self(X[:, j]) for j in range(X.shape[1])])

    def dimension(self) -> int | None:
        """Ambient dimension when the norm fixes one, else None."""
        return None

    def _batch_stack(self, X: np.ndarray) -> np.ndarray:
        """Norm of every column of every block X[i] of a stack (k, n, w), as
        a (k, w) array: one ``batch`` call on all k w columns.  A norm whose
        ``batch`` is a BLAS product, whose last bits depend on the width,
        scores each block by itself instead."""
        k, n, w = X.shape
        return self.batch(np.swapaxes(X, 0, 1).reshape(n, k * w)).reshape(k, w)


@dataclass(frozen=True)
class PNorm(VectorNorm):
    """The entrywise p-norm for p in {1, 2, inf}."""

    p: float

    def __post_init__(self):
        if self.p not in (1.0, 2.0, np.inf):
            raise ValueError("only p in {1, 2, inf} is supported")

    @property
    def name(self) -> str:
        return {1.0: "l1", 2.0: "l2", np.inf: "linf"}[self.p]

    def batch(self, X: np.ndarray) -> np.ndarray:
        if X.shape[0] == 0:
            return np.zeros(X.shape[1])
        a = np.abs(X)
        if self.p == 1.0:
            return a.sum(axis=0)
        if self.p == 2.0:
            return _euclidean(a)
        return a.max(axis=0)


def _pow2_factors(e):
    """Powers of two f1, f2 with f1 * f2 = 2**-e, for e = frexp(peak)[1].

    Scaling by both brings peak into [1/2, 1).  The scale is split in two
    halves so that neither factor leaves the float range when peak is
    subnormal or near the largest float; multiplying or dividing by either
    is exact.  Works elementwise on an array of exponents.
    """
    h = e // 2
    return 2.0 ** (h - e), 2.0 ** -h


def _euclidean(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a >= 0.

    Sums the squares directly wherever the sum lies in [2**-1000, 2**1000]:
    there nothing overflowed and no square that matters underflowed.  Any
    other column is first scaled by the power of two that brings its peak
    into [1/2, 1).  A column whose peak exceeds 2**500 is never squared
    unscaled (its sum of squares would pass 2**1000 anyway), so no square
    overflows.
    """
    if a.max(initial=0.0) > 2.0 ** 500:
        big = a.max(axis=0) > 2.0 ** 500
        b = np.copy(a)
        b[:, big] = 0.0
        ss = (b * b).sum(axis=0)
        ss[big] = np.inf
    else:
        ss = (a * a).sum(axis=0)
    ok = (ss >= 2.0 ** -1000) & (ss <= 2.0 ** 1000)
    if ok.all():
        return np.sqrt(ss)
    f1, f2 = _pow2_factors(np.frexp(np.where(ok, 0.5, a.max(axis=0)))[1])
    S = a * f1 * f2
    return np.sqrt((S * S).sum(axis=0)) / f1 / f2


L1 = PNorm(1.0)
L2 = PNorm(2.0)
LINF = PNorm(np.inf)


@dataclass(frozen=True, eq=False)
class WeightedL1(VectorNorm):
    """Sum of absolute entries with positive per-coordinate weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size == 0 or np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "weights", _readonly(w.copy()))

    name = "weighted_l1"

    def dimension(self) -> int:
        return self.weights.shape[0]

    def batch(self, X: np.ndarray) -> np.ndarray:
        return self.weights @ np.abs(X)

    _batch_stack = batch  # a stacked matmul: one gemv per block


@dataclass(frozen=True, eq=False)
class AdditiveNorm(VectorNorm):
    """Norm that splits along a direct sum H + K and adds the base norm parts.

    For x = y + z with y in H and z in K the value is base(y) + base(z).
    The split is the (generally oblique) projection along the pair, so the
    additivity identity holds exactly by construction.

    Raises DecompositionError unless dim H + dim K equals the ambient
    dimension and the stacked basis is invertible with condition number
    at most 1e8.
    """

    base: VectorNorm
    H: Subspace
    K: Subspace

    name = "additive"

    def __post_init__(self):
        H, K = self.H, self.K
        n = H.ambient_dim
        if K.ambient_dim != n:
            raise DecompositionError("H and K live in different ambient dimensions")
        if H.dim + K.dim != n:
            raise DecompositionError(
                f"dim H + dim K = {H.dim + K.dim} does not span dimension {n}")
        T = np.hstack([H.basis, K.basis])
        if n == 0:
            raise DecompositionError("empty ambient space")
        sv = np.linalg.svd(T, compute_uv=False)
        if sv[-1] <= 0 or sv[0] / sv[-1] > 1e8:
            raise DecompositionError(
                f"H and K overlap within tolerance (condition number "
                f"{sv[0] / max(sv[-1], 1e-300):.2e} exceeds 1.0e+08)")
        object.__setattr__(self, "_solve", _readonly(np.linalg.inv(T)))

    def dimension(self) -> int:
        return self.H.ambient_dim

    def split_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pair (Y, Z) with X = Y + Z, columns of Y in H, of Z in K; X
        may be a stack of blocks, split block by block."""
        C = self._solve @ X
        d = self.H.dim
        return self.H.basis @ C[..., :d, :], self.K.basis @ C[..., d:, :]

    def batch(self, X: np.ndarray) -> np.ndarray:
        Y, Z = self.split_batch(X)
        return self.base.batch(Y) + self.base.batch(Z)

    def _batch_stack(self, X: np.ndarray) -> np.ndarray:
        Y, Z = self.split_batch(X)
        return self.base._batch_stack(Y) + self.base._batch_stack(Z)


def additive_norm(base: VectorNorm, H: Subspace, K: Subspace) -> AdditiveNorm:
    """The split-and-add norm over a direct sum H + K (see AdditiveNorm)."""
    return AdditiveNorm(base, H, K)


def vector_norm(x, norm: VectorNorm) -> float:
    """Evaluate a norm on a vector (the scalar call checks the dimension)."""
    return norm(x)


# ---------------------------------------------------------------------------
# Operator and partial norms
# ---------------------------------------------------------------------------

def _top_singulars(S: np.ndarray):
    """Largest singular value and a maximizing right vector of each matrix of
    a stack S (m, r, c) with r, c >= 1.

    Computed from the symmetric eigendecomposition of the Gram matrix M* M,
    which is deterministic and accurate to machine precision.  (A plain
    power iteration stalls below 1e-8 accuracy when the top two singular
    values nearly coincide.)  Each M is first scaled by the power of two that
    brings its largest entry into [1/2, 1), so M* M neither overflows nor
    underflows, and the value is scaled back exactly; it is inf past the
    float range.  Note for the test suite: this is a different algorithm on a
    different operator than a full SVD of M, which therefore remains a valid
    independent oracle.
    """
    f1, f2 = _pow2_factors(np.frexp(np.abs(S).max(axis=(1, 2)))[1])
    T = S * f1[:, None, None] * f2[:, None, None]
    vals, vecs = np.linalg.eigh(T.conj().transpose(0, 2, 1) @ T)
    with np.errstate(over="ignore"):  # past the float range the value is inf
        top = np.sqrt(np.maximum(vals[:, -1], 0.0)) / f1 / f2
    return top, vecs[:, :, -1]


def _top_singular(M: np.ndarray):
    """:func:`_top_singulars` of one matrix; 0 and a zero vector when M is 0."""
    m, d = M.shape
    if not (m and d and M.any()):
        return 0.0, (np.zeros(d, dtype=M.dtype) if d else np.zeros(0))
    top, vecs = _top_singulars(M[None])
    return float(top[0]), vecs[0]


def _abs_sums(S: np.ndarray, norm: VectorNorm) -> np.ndarray:
    """Absolute column sums (l1), weighted column ratios (weighted l1) or row
    sums (linf) of each matrix of a stack S (m, n, n): the operator norm is
    the largest entry of each row of the result."""
    absS = np.abs(S)
    if isinstance(norm, WeightedL1):
        return (norm.weights @ absS) / norm.weights
    return absS.sum(axis=1 if norm.p == 1.0 else 2)


def has_closed_form(norm: VectorNorm) -> bool:
    """Does :func:`operator_norms` compute this norm in one stacked pass?"""
    return isinstance(norm, (PNorm, WeightedL1))


def operator_norms(S, norm: VectorNorm = L1) -> np.ndarray:
    """Induced operator norm of each matrix of a stack S (m, n, n), and inf
    for a matrix with a non-finite entry.

    The closed forms (l1, linf, weighted l1 and l2) take one numpy pass over
    the finite matrices and equal :func:`operator_norm` on each bit for bit;
    any other norm calls :func:`operator_norm` once per matrix, with its
    default samples and seed.
    """
    S = np.asarray(S)
    finite = np.isfinite(S).all(axis=(1, 2))
    out, S = np.full(len(S), np.inf), S[finite]
    if not S.size:
        out[finite] = 0.0
    elif not has_closed_form(norm):
        out[finite] = [operator_norm(A, norm) for A in S]
    elif isinstance(norm, PNorm) and norm.p == 2.0:
        out[finite] = _top_singulars(S)[0]
    else:
        out[finite] = _abs_sums(S, norm).max(axis=1)
    return out


def operator_norm(A, norm: VectorNorm = L1, *, seed: int = 0) -> float:
    """Induced operator norm of A.

    Closed forms: l1 (max absolute column sum), linf (max absolute row sum),
    weighted l1, and l2 via the Gram eigendecomposition.  Additive
    norms whose parts are invariant reduce to the two restricted norms; any
    remaining case falls back to the sampling optimizer of
    :func:`partial_norm` (its default samples, this ``seed``) on the full
    space and is a certified lower bound only.
    """
    A = as_matrix(A)
    if A.shape[0] == 0:
        return 0.0
    value, _, _ = _operator_norm_detail(A, norm, seed=seed)
    return value


def _within_a_part(norm: AdditiveNorm, H: Subspace) -> bool:
    """Does H lie in a part of the additive norm?  The norm agrees with its
    base norm on each of its parts, so there it reduces to the base norm."""
    tol = 1e-9 * np.sqrt(max(H.dim, 1))
    return any(part.dim >= H.dim and float(np.linalg.norm(
        H.basis - part.basis @ (part.basis.conj().T @ H.basis))) <= tol
        for part in (norm.H, norm.K))


def _operator_norm_detail(A, norm, *, samples=4096, seed=0, partial=None):
    """(value, witness, exact) triples backing operator_norm and verdicts.

    ``partial(H)``, when given, is the caller's ``partial_norm(A, H, norm)``
    with these samples and seed.  An additive norm reads its invariant parts'
    ratios from it wherever it reduces to the base norm, so a ratio the
    caller already holds is not searched for twice.
    """
    n = A.shape[0]
    if isinstance(norm, PNorm) and norm.p == 2.0:
        val, vec = _top_singular(A)
        return val, vec, True
    if has_closed_form(norm):
        sums = _abs_sums(A[None], norm)[0]
        k = int(np.argmax(sums))
        if isinstance(norm, PNorm) and norm.p == np.inf:
            row = A[k]
            w = np.ones(n, dtype=A.dtype)
            nz = np.abs(row) > 0
            w[nz] = np.conj(row[nz]) / np.abs(row[nz])
        else:
            w = np.zeros(n, dtype=A.dtype)
            w[k] = 1.0 if isinstance(norm, PNorm) else 1.0 / norm.weights[k]
        return float(sums[k]), w, True
    if isinstance(norm, AdditiveNorm):
        parts = [part for part in (norm.H, norm.K) if part.dim]
        fixed = [_fixes(A, part) for part in parts]
        if all(f or check_invariance(A, part).ok for f, part in zip(fixed, parts)):
            # A part that A fixes has ratio exactly 1 under the base norm.
            candidates = []
            exact = True
            for f, part in zip(fixed, parts):
                if f:
                    b = part.basis[:, 0]
                    candidates.append((1.0, _readonly(b / norm.base(b))))
                    continue
                if partial and _within_a_part(norm, part):
                    r = partial(part)
                else:
                    r = partial_norm(A, part, norm.base, samples=samples,
                                     seed=seed, check=False)
                exact = exact and r.is_exact
                candidates.append((r.value, r.witness))
            if not candidates:
                return 0.0, None, True
            value, witness = max(candidates, key=lambda t: t[0])
            return value, witness, exact
    r = partial_norm(A, Subspace.full(n), norm, samples=samples, seed=seed,
                     check=False)
    return r.value, r.witness, False


class InvarianceResult(NamedTuple):
    ok: bool
    residual: float


def _fixes(A: np.ndarray, K: Subspace) -> bool:
    """Does A fix every vector of K?  ``max|A K - K| <= MOVED_RTOL * max(1, max|A|)``."""
    B = K.basis
    return K.dim == 0 or bool(np.abs(A @ B - B).max() <=
                              MOVED_RTOL * max(1.0, float(np.abs(A).max())))


def check_invariance(A, H: Subspace) -> InvarianceResult:
    """Does A map H into H?  Residual is ||(I - P_H) A B_H|| (spectral).

    The residual is compared with ``INVARIANCE_TOL * ||A||_F``, so the
    decision does not depend on the scale of A; the zero matrix leaves every
    subspace invariant.
    """
    A = as_matrix(A)
    if A.shape[0] != H.ambient_dim:
        raise ValueError("matrix and subspace dimensions differ")
    if H.dim == 0:
        return InvarianceResult(True, 0.0)
    AB = A @ H.basis
    leak = AB - H.basis @ (H.basis.conj().T @ AB)
    residual = float(np.linalg.norm(leak, 2))
    m = float(np.abs(A).max())  # pre-scaled Frobenius norm: squares cannot overflow
    scale = m * float(np.linalg.norm(A / m)) if m else 0.0
    return InvarianceResult(residual <= INVARIANCE_TOL * scale, residual)


def _require_invariance(A, H: Subspace) -> None:
    inv = check_invariance(A, H)
    if not inv.ok:
        raise InvarianceError(
            f"subspace not invariant under the matrix "
            f"(residual {inv.residual:.3e})", residual=inv.residual)


def restrict(A, H: Subspace) -> np.ndarray:
    """Matrix of A acting on H, written in H's orthonormal basis."""
    A = as_matrix(A)
    _require_invariance(A, H)
    return H.basis.conj().T @ A @ H.basis


@dataclass(frozen=True, eq=False)
class PartialNormResult:
    """Largest norm amplification of A over an invariant subspace.

    ``method`` is "closed_form" for exact routes (including the euclidean
    route, computed to machine tolerance) and "optimized" for the sampling
    route, whose value is a certified lower bound with heuristic tightness.
    ``strategy`` names the specific computation.
    """

    value: float
    witness: np.ndarray | None
    method: str
    strategy: str
    tol: float
    samples: int = 0
    zero_subspace: bool = False

    @property
    def is_exact(self) -> bool:
        return self.method == "closed_form"


def column_pair_distances(S: np.ndarray) -> np.ndarray:
    """Absolute-sum distance between columns j < l of each matrix of a stack
    S (m, n, n) with n >= 2.

    Returns an (m, n(n-1)/2) array in the lexicographic pair order of
    ``np.triu_indices(n, 1)``.  It is built one column j at a time, so memory
    stays O(m n^2).
    """
    return np.concatenate([np.abs(S[:, :, j + 1:] - S[:, :, j:j + 1]).sum(axis=1)
                           for j in range(S.shape[2] - 1)], axis=1)


def max_column_distance(A: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest absolute-sum distance between two columns of A (n >= 2).

    Returns the distance and the first pair (j, l), j < l, attaining it in
    (j, l) order.
    """
    D = column_pair_distances(A[None])[0]
    k = int(np.argmax(D))
    j, l = np.triu_indices(A.shape[1], 1)
    return float(D[k]), (int(j[k]), int(l[k]))


def _probe_coords(A, H: Subspace, rng, samples: int) -> np.ndarray:
    """Candidate directions in basis coordinates: random plus structured.

    Structured probes are coordinate vectors and pairwise coordinate
    differences projected into the subspace (these are the extreme points of
    sum-norm balls sliced by difference subspaces) and a top singular
    direction of the restricted map.
    """
    n, d = H.basis.shape
    cplx = np.iscomplexobj(A) or np.iscomplexobj(H.basis)
    blocks = []
    C = _standard_normal(rng, (d, samples), cplx)
    blocks.append(C)
    blocks.append(np.eye(d, dtype=C.dtype))
    Bh = H.basis.conj().T  # projector coordinates: coords(P_H v) = Bh @ v
    coord = Bh  # projections of coordinate vectors
    blocks.append(coord)
    if n <= 40:
        j, l = np.triu_indices(n, 1)  # pairs j < l in lexicographic order
        blocks.append(Bh[:, j] - Bh[:, l])
    try:
        _, top = _top_singular(A @ H.basis)
        if np.linalg.norm(top) > 0:
            blocks.append(top.reshape(-1, 1))
    except np.linalg.LinAlgError:
        pass
    C = np.hstack([b.astype(C.dtype) for b in blocks])
    keep = np.linalg.norm(C, axis=0) > 1e-12
    return C[:, keep]


def _ratios(A, H: Subspace, norm: VectorNorm, C: np.ndarray) -> np.ndarray:
    """norm(A x) / norm(x) for each column x of each block H.basis @ C[i] of
    a stack C (k, d, w), as a (k, w) array; 0 where norm(x) <= 1e-300.

    Every block is scored bit for bit as it would be on its own: numpy's
    stacked matmul makes one BLAS call per block, A multiplies the same
    column-major copy of a block's columns that ``X[:, ok]`` makes, and the
    norm scores the stack with :meth:`VectorNorm._batch_stack`.
    """
    X = H.basis @ C
    nx = norm._batch_stack(X)
    ok = nx > 1e-300
    if ok.all():
        return norm._batch_stack(
            A @ np.swapaxes(np.swapaxes(X, 1, 2).copy(), 1, 2)) / nx
    ratios = np.zeros(nx.shape)
    for i, (Xi, oki) in enumerate(zip(X, ok)):
        ratios[i, oki] = norm._batch_stack((A @ Xi[:, oki])[None])[0] / nx[i, oki]
    return ratios


def _pattern_refine(A, H: Subspace, norm: VectorNorm,
                    starts: list[np.ndarray]) -> list[tuple[np.ndarray, float]]:
    """Pattern search over unit coordinate vectors from each start vector,
    steps shrinking to 1e-7; returns (c, value) per start, in start order.

    The starts move in lockstep.  Each sweep stacks the moves c +- step e_i
    (and +- i step e_i over the complex field) of every start whose step is
    still above 1e-7 into one block per start, and scores the stack with one
    :func:`_ratios` call.  Each start then takes its best move (the first on
    ties) if it gains, or halves its own step.  A block scores as it would
    alone, so every start follows the path it would follow alone, for every
    norm whose ``batch`` scores each column by itself (the built-in norms
    do); only the number of scoring calls drops, to one per sweep of the
    slowest start.  A start's first value is scored on its own.  No move
    vanishes: |c| = 1 and step <= 1/2.
    """
    cs = [c0 / np.linalg.norm(c0) for c0 in starts]
    bests = [float(_ratios(A, H, norm, c[None, :, None])[0, 0]) for c in cs]
    d = cs[0].shape[0]
    units = np.eye(d)
    units = np.hstack([units, -units, 1j * units, -1j * units]
                      if np.iscomplexobj(cs[0]) else [units, -units])
    steps = np.full(len(cs), 0.5)
    while (live := np.flatnonzero(steps > 1e-7)).size:
        cand = np.array([cs[j] for j in live])[:, :, None] + \
            steps[live, None, None] * units
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        vals = _ratios(A, H, norm, cand)
        for i, (j, k) in enumerate(zip(live, vals.argmax(axis=1))):
            if vals[i, k] > bests[j] * (1 + 1e-14) + 1e-300:
                cs[j], bests[j] = cand[i, :, k], float(vals[i, k])
            else:
                steps[j] *= 0.5
    return list(zip(cs, bests))


def partial_norm(A, H: Subspace, norm: VectorNorm = L1, *,
                 route: str = "auto", samples: int = 4096, seed: int = 0,
                 check: bool = True) -> PartialNormResult:
    """Supremum of norm(A x) / norm(x) over nonzero x in the invariant subspace H.

    Routes (``route="auto"``):
      * zero subspace: value 0 by convention, flagged;
      * one-dimensional H: direct evaluation on the basis vector;
      * l1 norm with H the sum-zero hyperplane: exact column-pair form;
      * l2 norm: spectral norm of A restricted to H (machine tolerance);
      * anything else: multi-start sampling on the unit sphere of H, then
        coordinate-wise pattern refinement of the three best probes in
        lockstep (:func:`_pattern_refine`).  The result is then a certified
        lower bound whose tightness is heuristic.

    ``route="sample"`` forces the sampling optimizer (useful as an
    independent cross-check of the closed forms).

    Raises InvarianceError when H is not invariant under A (skipped with
    ``check=False``, e.g. for full-space operator norms).
    """
    A = as_matrix(A)
    if A.shape[0] != H.ambient_dim:
        raise ValueError("matrix and subspace dimensions differ")
    if route not in ("auto", "sample"):
        raise ValueError(f"unknown route {route!r}")
    if H.dim == 0:
        return PartialNormResult(0.0, None, "closed_form", "zero_subspace",
                                 NORM_TOL, zero_subspace=True)
    if check:
        _require_invariance(A, H)

    if route != "sample":
        if isinstance(norm, AdditiveNorm) and _within_a_part(norm, H):
            return partial_norm(A, H, norm.base, route=route, samples=samples,
                                seed=seed, check=False)
        if H.dim == 1:
            b = H.basis[:, 0]
            nb = norm(b)
            value = float(norm(A @ b) / nb)
            return PartialNormResult(value, _readonly(b / nb), "closed_form",
                                     "single_direction", NORM_TOL)
        if isinstance(norm, PNorm) and norm.p == 1.0 and \
                not np.iscomplexobj(A) and is_mean_zero_subspace(H):
            best, pair = max_column_distance(A)
            w = np.zeros(A.shape[0])
            w[pair[0]], w[pair[1]] = 0.5, -0.5
            return PartialNormResult(best / 2.0, _readonly(w), "closed_form",
                                     "mean_zero_extreme_pairs", NORM_TOL)
        if isinstance(norm, PNorm) and norm.p == 2.0:
            value, coords = _top_singular(A @ H.basis)
            witness = None
            if np.linalg.norm(coords) > 0:
                witness = H.basis @ coords
                witness = _readonly(witness / norm(witness))
            return PartialNormResult(value, witness, "closed_form",
                                     "gram_spectral", NORM_TOL)

    # Sampling route.
    rng = np.random.default_rng(seed)
    C = _probe_coords(A, H, rng, samples)
    ratios = _ratios(A, H, norm, C[None])[0]
    order = np.argsort(ratios)[::-1]
    best_c = C[:, order[0]]
    best = float(ratios[order[0]])
    for c_ref, val in _pattern_refine(A, H, norm, [C[:, i] for i in order[:3]]):
        if val > best:
            best, best_c = val, c_ref
    w = H.basis @ best_c
    w = _readonly(w / norm(w))
    return PartialNormResult(best, w, "optimized",
                             "multistart_sampling+pattern_refine", NORM_TOL,
                             samples=int(C.shape[1]))


# ---------------------------------------------------------------------------
# Norm axiom spot checks
# ---------------------------------------------------------------------------

class NormAxiomReport(NamedTuple):
    homogeneity: float
    triangle: float
    definiteness_ok: bool
    samples: int


def check_norm_axioms(norm: VectorNorm, n: int, *, samples: int = 200,
                      seed: int = 0,
                      complex_field: bool = False) -> NormAxiomReport:
    """Sample homogeneity / triangle / definiteness violations of a norm.

    Returns maximal relative violations; a valid implementation shows values
    at roundoff level.  Spot checking cannot prove the axioms, it guards
    against mis-built composite norms.
    """
    rng = np.random.default_rng(seed)
    hom, tri = 0.0, 0.0
    for _ in range(samples):
        x = _standard_normal(rng, n, complex_field)
        y = _standard_normal(rng, n, complex_field)
        c = float(rng.standard_normal())
        nx, ny = norm(x), norm(y)
        scale = max(nx, ny, 1e-30)
        hom = max(hom, abs(norm(c * x) - abs(c) * nx) / max(abs(c) * nx, 1e-30))
        tri = max(tri, (norm(x + y) - nx - ny) / scale)
        if nx <= 0 and float(np.linalg.norm(x)) > 1e-12:
            return NormAxiomReport(hom, tri, False, samples)
    zero_ok = norm(np.zeros(n, dtype=complex if complex_field else float)) <= 1e-9
    return NormAxiomReport(hom, tri, zero_ok, samples)
