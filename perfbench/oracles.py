"""Reference computations made apart from genprod, with numpy alone.

Every check in the workloads compares genprod's output with one of these
functions or with a property the method must have.  None of them calls into
genprod, so a fault in the library cannot hide in its own oracle.
"""
from __future__ import annotations

import itertools

import numpy as np

ORD = {"l1": 1, "l2": 2, "linf": np.inf}


def ordered_product(mats) -> np.ndarray:
    """Product of the matrices, written left to right."""
    out = np.array(mats[0], dtype=float)
    for m in mats[1:]:
        out = out @ m
    return out


def power(A, r: int) -> np.ndarray:
    """A to the r-th power (the product of a constant sequence)."""
    return np.linalg.matrix_power(np.asarray(A, dtype=float), r)


def op_norm(A, kind: str) -> float:
    """Induced l1, l2 or linf operator norm (numpy's own, SVD for l2)."""
    return float(np.linalg.norm(A, ORD[kind]))


def overlap_coefficient(P) -> float:
    """l1 coefficient of ergodicity of a column-stochastic matrix.

    The overlap form ``1 - min_{j<l} sum_i min(P_ij, P_il)``: two columns
    that sum to one are at l1 distance ``2 - 2 * overlap``.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[1]
    if n < 2:
        return 0.0
    j, l = np.triu_indices(n, 1)
    return float(1.0 - np.minimum(P[:, j], P[:, l]).sum(axis=0).min())


def mean_zero_linf_vertices(n: int) -> np.ndarray:
    """Vertices of ``{x : sum(x) = 0, max|x_i| <= 1}`` as columns.

    A vertex has n - 1 coordinates at +-1; the remaining one balances the
    sum and must itself lie in [-1, 1].
    """
    if n > 12:
        raise ValueError("vertex enumeration is limited to n <= 12")
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1))).T
    cols = []
    for k in range(n):
        free = -signs.sum(axis=0)
        ok = np.abs(free) <= 1.0
        X = np.insert(signs[:, ok], k, free[ok], axis=0)
        cols.append(X)
    return np.unique(np.hstack(cols), axis=1)


def linf_mean_zero_exact(A) -> float:
    """Largest linf amplification of A over the mean-zero hyperplane.

    A convex function attains its maximum over a polytope at a vertex, and
    every vertex has linf norm 1.
    """
    A = np.asarray(A, dtype=float)
    X = mean_zero_linf_vertices(A.shape[0])
    return float(np.abs(A @ X).max(axis=0).max())


def weighted_l1_mean_zero_exact(A, w) -> float:
    """Largest weighted-l1 amplification over the mean-zero hyperplane.

    The slice of the weighted l1 ball by ``sum(x) = 0`` has the vertices
    ``+-(e_j - e_l) / (w_j + w_l)``.
    """
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    j, l = np.triu_indices(A.shape[0], 1)
    diff = A[:, j] - A[:, l]
    return float(((w @ np.abs(diff)) / (w[j] + w[l])).max())


def weighted_l1_operator(A, w) -> float:
    """Induced weighted-l1 norm: the largest weighted column sum ratio."""
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(((w @ np.abs(A)) / w).max())


def l2_on_subspace(A, basis) -> float:
    """Spectral norm of A on the span of an orthonormal basis."""
    return float(np.linalg.norm(np.asarray(A) @ np.asarray(basis), 2))


def scaled_l2_on_subspace(A, basis, d) -> float:
    """sup ||D A x|| / ||D x|| over x in span(basis), D = diag(d).

    With ``D B = Q R`` the ratio is ``||D A B R^-1 c'|| / ||c'||``.
    """
    D = np.diag(np.asarray(d, dtype=float))
    B = np.asarray(basis)
    _, R = np.linalg.qr(D @ B)
    M = D @ np.asarray(A) @ B @ np.linalg.inv(R)
    return float(np.linalg.norm(M, 2))


def eigvals(A) -> np.ndarray:
    return np.linalg.eigvals(np.asarray(A))


def subdominant_modulus(A, near_one: float = 1e-6) -> float:
    """Largest modulus among eigenvalues not within ``near_one`` of 1."""
    ev = eigvals(A)
    rest = ev[np.abs(ev - 1.0) > near_one]
    return float(np.abs(rest).max()) if rest.size else 0.0


def prefix_indices(prefix, count: int) -> list[int]:
    """First ``count`` images of the prefix permutation: the listed head,
    then every unused index in increasing order."""
    out = list(prefix[:count])
    used = set(prefix)
    i = 1
    while len(out) < count:
        if i not in used:
            out.append(i)
        i += 1
    return out


def index_multiset(kind: str, r: int, p: int = 0, prefix=(),
                   block: int = 1) -> list[int] | None:
    """Sequence indices of permuted positions p+1..p+r, when known apart
    from the permutation's seed.

    A block shuffle permutes indices inside aligned blocks, so its first
    positions cover whole blocks exactly when ``p`` and ``p + r`` are
    multiples of the block; otherwise None.
    """
    if kind == "identity":
        return list(range(p + 1, p + r + 1))
    if kind == "prefix":
        return prefix_indices(tuple(prefix), p + r)[p:]
    if p % block == 0 and (p + r) % block == 0:
        return list(range(p + 1, p + r + 1))
    return None


def coefficient_product_bounds(omega_of, kind: str, max_r: int, p: int = 0,
                               prefix=(), block: int = 1) -> np.ndarray:
    """Upper bounds on the product of the factor coefficients, r = 1..max_r.

    Identity and prefix permutations give the exact product.  For a block
    shuffle (``p`` on a block boundary) the full blocks are exact, and the
    m positions taken from the last, partial block are bounded by the m
    largest coefficients of that block.
    """
    if kind != "block_shuffle":
        idx = index_multiset(kind, max_r, p, prefix, block)
        return np.cumprod([omega_of(i) for i in idx])
    if p % block:
        raise ValueError("block-shuffle bound needs p on a block boundary")
    out = np.empty(max_r)
    full = 1.0
    for r in range(1, max_r + 1):
        g0 = p + ((r - 1) // block) * block   # start of the block holding r
        m = p + r - g0
        top = sorted((omega_of(i) for i in range(g0 + 1, g0 + block + 1)),
                     reverse=True)
        out[r - 1] = full * float(np.prod(top[:m]))
        if m == block:
            full = out[r - 1]
    return out


def tail_condition_C(kind: str, **kw) -> bool:
    """Does sum(max(mu_i, 1) - 1) converge for the declared family?

    Decided from the p-series test: sum 1/i**s converges iff s > 1.
    """
    if kind == "p_series":
        lim, side, s = kw["limit"], kw["side"], kw["exponent"]
        if lim != 1.0:
            return lim < 1.0
        return side == "below" or s > 1.0
    if kind == "constant":
        return kw["value"] <= 1.0
    if kind == "periodic":
        return max(kw["values"]) <= 1.0
    raise ValueError(kind)


def tail_condition_D(kind: str, **kw) -> bool:
    """Does sum(1 - min(mu_i, 1)) diverge for the declared family?"""
    if kind == "p_series":
        lim, side, s = kw["limit"], kw["side"], kw["exponent"]
        if lim != 1.0:
            return lim < 1.0
        return side == "below" and s <= 1.0
    if kind == "constant":
        return kw["value"] < 1.0
    if kind == "periodic":
        return min(kw["values"]) < 1.0
    raise ValueError(kind)


def tail_value(kind: str, i: int, **kw) -> float:
    """The i-th value (1-based) of a declared tail family."""
    if kind == "p_series":
        dev = kw["amplitude"] / float(i) ** kw["exponent"]
        v = kw["limit"] + dev if kw["side"] == "above" else kw["limit"] - dev
        return max(v, 0.0)
    if kind == "constant":
        return kw["value"]
    if kind == "periodic":
        vals = kw["values"]
        return vals[(i - 1) % len(vals)]
    raise ValueError(kind)
