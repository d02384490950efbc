"""General products drawn from matrix sequences, and their norm traces.

A *general product* takes a permuted tail of an infinite matrix sequence and
multiplies ever-longer factor sets in an arbitrary per-step order: the factor
multiset at step r is always the first r permuted factors past the offset p,
but where a new factor lands in the product is unconstrained.  Streaming
policies cover the nested orders that admit one multiplication per step and
fully re-ordered products that must be recomputed each step.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .norms import InvarianceError, Subspace, VectorNorm, as_matrix
from .norms import has_closed_form, operator_norms, restrict
from .series import TailModel, partial_sum_diagnostics

UNDERFLOW_CLAMP = 1e-300
OVERFLOW_LIMIT = 1e300
# Largest block of steps a trace measures with one stacked call.
BLOCK_CAP = 64


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------

class SequenceExhaustedError(IndexError, ValueError):
    """A finite sequence was asked for a factor past its end.

    An IndexError to sequence-style callers and a validation error (a
    ValueError) to the CLI.
    """


@dataclass(frozen=True, eq=False)
class MatrixSequence:
    """A finite or infinite sequence of same-sized square matrices.

    ``rule`` maps a 1-based index to its matrix.  Finite sequences built by
    :meth:`from_list` raise SequenceExhaustedError (an IndexError) when a
    product needs factors past their end.
    """

    n: int
    rule: Callable[[int], np.ndarray]
    name: str = ""

    def factor(self, i: int) -> np.ndarray:
        """The i-th matrix of the sequence (1-based)."""
        if i < 1:
            raise ValueError("factor indices are 1-based")
        A = as_matrix(self.rule(i), name=f"factor {i}")
        if A.shape[0] != self.n:
            raise ValueError(f"factor {i} has dimension {A.shape[0]}, expected {self.n}")
        return A

    @classmethod
    def constant(cls, A, name: str = "constant") -> "MatrixSequence":
        return cls.periodic([A], name=name)

    @classmethod
    def from_list(cls, mats: Sequence, name: str = "") -> "MatrixSequence":
        mats = _frozen_factors(mats, "empty sequence")
        return cls(n=mats[0].shape[0], rule=_Family(mats, False, name), name=name)

    @classmethod
    def periodic(cls, mats: Sequence, name: str = "periodic") -> "MatrixSequence":
        mats = _frozen_factors(mats, "periodic sequence needs at least one matrix")
        return cls(n=mats[0].shape[0], rule=_Family(mats, True, name), name=name)

    @classmethod
    def scaled(cls, base, scale: TailModel | Callable[[int], float],
               name: str = "scaled") -> "MatrixSequence":
        """Factors scale(i) * base; the scale is a tail model or a callable."""
        base = _frozen_factors([base], "")[0]
        fn = scale.value if isinstance(scale, TailModel) else scale
        return cls(n=base.shape[0], rule=_Scaled(base, fn), name=name)

    def map_factors(self, fn: Callable[[np.ndarray], np.ndarray],
                    name: str) -> "MatrixSequence":
        """The sequence of fn(factor).  A built family's members are mapped
        once, here; any other rule's factors as they are fetched."""
        rule = self.rule
        if not isinstance(rule, _Family):
            return MatrixSequence(self.n, lambda i: fn(self.factor(i)), name)
        mats = _frozen_factors([fn(A) for A in rule.mats], "")
        return MatrixSequence(mats[0].shape[0], rule._replace(mats=mats), name)


def _frozen_factors(mats: Sequence, empty_message: str) -> tuple:
    """``mats`` validated, checked to share one dimension and made read-only."""
    mats = tuple(as_matrix(m) for m in mats)
    if not mats:
        raise ValueError(empty_message)
    for m in mats:
        if m.shape[0] != mats[0].shape[0]:
            raise ValueError("all factors must share the sequence dimension")
        m.setflags(write=False)
    return mats


class _Family(NamedTuple):
    """A built family's rule: its frozen members, cycled or listed once."""

    mats: tuple
    cyclic: bool
    name: str

    def __call__(self, i: int) -> np.ndarray:
        if not self.cyclic and i > len(self.mats):
            raise SequenceExhaustedError(
                f"sequence {self.name or '<explicit>'} has only {len(self.mats)} "
                f"factors, index {i} requested")
        return self.mats[(i - 1) % len(self.mats)]


class _Scaled(NamedTuple):
    """A scaled sequence's rule: factor i is float(fn(i)) * base."""

    base: np.ndarray
    fn: Callable[[int], float]

    def __call__(self, i: int) -> np.ndarray:
        return float(self.fn(i)) * self.base


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """A bijection on the positive integers, in one of three shapes.

    * ``identity``
    * ``prefix``: positions 1..m map to the listed distinct indices, later
      positions enumerate the remaining indices in increasing order;
    * ``block_shuffle``: consecutive blocks of size ``block`` are shuffled
      internally with a per-block seeded generator, so every index moves by
      less than ``block`` positions (bounded displacement).
    """

    kind: str = "identity"
    prefix: tuple[int, ...] = ()
    block: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("identity", "prefix", "block_shuffle"):
            raise ValueError(f"unknown permutation kind {self.kind!r}")
        if self.kind == "prefix":
            vals = tuple(int(v) for v in self.prefix)
            if len(set(vals)) != len(vals) or any(v < 1 for v in vals):
                raise ValueError("prefix must list distinct positive indices")
            object.__setattr__(self, "prefix", vals)
        if self.kind == "block_shuffle" and self.block < 1:
            raise ValueError("block size must be >= 1")

    def indices(self, lo: int, hi: int) -> np.ndarray:
        """Original-sequence indices placed at positions lo..hi (1-based,
        lo <= hi), as an integer array."""
        if lo < 1:
            raise ValueError("positions are 1-based")
        q = np.arange(lo, hi + 1)
        if self.kind == "identity":
            return q
        if self.kind == "prefix":
            # t-th positive integer not used by the prefix: each used index
            # at or below the candidate pushes it up by one
            m = len(self.prefix)
            x = q - m
            for u in sorted(self.prefix):
                x += u <= x
            head = q <= m
            x[head] = np.array(self.prefix, dtype=x.dtype)[q[head] - 1]
            return x
        g, off = np.divmod(q - 1, self.block)
        shuffles = np.array([_block_permutation(self.seed, self.block, k)
                             for k in range(g[0], g[-1] + 1)])
        return g * self.block + shuffles[g - g[0], off] + 1

    def index_at(self, position: int) -> int:
        """Original-sequence index placed at the given position (1-based)."""
        return int(self.indices(position, position)[0])


@functools.lru_cache(maxsize=4096)
def _block_permutation(seed: int, block: int, g: int) -> tuple[int, ...]:
    """The shuffle of block g of a ``block_shuffle`` permutation."""
    return tuple(np.random.default_rng([seed, g]).permutation(block).tolist())


@dataclass(frozen=True)
class Ordering:
    """How each step's factor set is ordered into a product.

    * ``left``: append the newest factor on the right of the running product;
    * ``right``: append it on the left;
    * ``random``: re-order the whole factor set each step with a seeded
      generator (full recompute);
    * ``explicit``: ``orders[r-1]`` lists the positions p+1..p+r in the exact
      multiplication order, written left to right.
    """

    kind: str = "left"
    seed: int = 0
    orders: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("left", "right", "random", "explicit"):
            raise ValueError(f"unknown ordering policy {self.kind!r}")
        if self.kind == "explicit":
            object.__setattr__(self, "orders", tuple(
                tuple(int(x) for x in row) for row in self.orders))

    @property
    def incremental(self) -> bool:
        return self.kind in ("left", "right")


@dataclass(frozen=True)
class ProductSchedule:
    """One concrete way of forming general products: offset, permutation, order."""

    p: int = 0
    permutation: Permutation = Permutation()
    ordering: Ordering = Ordering()
    label: str = ""

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("offset p must be nonnegative")
        if not self.label:
            object.__setattr__(
                self, "label",
                f"p{self.p}-{self.permutation.kind}-{self.ordering.kind}")


@dataclass(frozen=True, eq=False)
class ProductStep:
    """One step of a streamed general product.

    ``factor`` is the matrix that entered at position p + r.  ``positions``
    lists the permuted-sequence positions in multiplication order (left to
    right): a ``range`` for the nested orders, the drawn or listed tuple for
    the re-ordering ones.  ``order`` maps them to original-sequence indices
    and is worked out only when read.
    """

    r: int
    matrix: np.ndarray
    factor: np.ndarray
    positions: Sequence[int]
    permutation: Permutation

    @property
    def order(self) -> tuple[int, ...]:
        q = np.asarray(self.positions)
        return tuple(self.permutation.indices(q.min(), q.max())[q - q.min()].tolist())

    def factor_positions(self) -> frozenset[int]:
        return frozenset(self.positions)


def stream_general_product(seq: MatrixSequence, sched: ProductSchedule,
                           max_r: int) -> Iterator[ProductStep]:
    """Yield the general products for r = 1..max_r under one schedule.

    Step r fetches one new factor, the one at position p + r.  Nested
    policies (left/right) cost one multiplication per step; the re-ordering
    policies keep every factor fetched so far and recompute the full r-fold
    product each step, as a pairwise tree of O(log r) stacked
    multiplications.  At every step the factor multiset is positions
    p+1..p+r of the permuted sequence, whatever the ordering.  A step's
    ``matrix`` and ``factor`` are read-only.  Steps are formed in the traces'
    blocks (:func:`_product_blocks`), each fetched in one step, so once
    step r is yielded the sequence may have been read up to
    min(r - 1, BLOCK_CAP - 1) positions past p + r; a factor's error is
    raised when its step is requested.
    """
    r, p, kind = 0, sched.p, sched.ordering.kind
    for P, B, gathers, _ in _product_blocks(seq, sched, max_r):
        for j in range(len(P)):
            r += 1
            positions = (range(p + 1, p + r + 1) if kind == "left" else
                         range(p + r, p, -1) if kind == "right" else
                         tuple((gathers[j] + p + 1).tolist()))
            yield ProductStep(r, P[j], B[j], positions, sched.permutation)


def _gather(ordering: Ordering, p: int, r: int) -> np.ndarray:
    """A re-ordered step r's positions in product order, as offsets from p + 1."""
    if ordering.kind == "random":
        return np.random.default_rng([ordering.seed, r]).permutation(r)
    positions = ordering.orders[r - 1]
    want = set(range(p + 1, p + r + 1))
    if set(positions) != want or len(positions) != r:
        raise ValueError(
            f"explicit order for step {r} must be a permutation of "
            f"positions {sorted(want)}, got {positions}")
    return np.subtract(positions, p + 1)


def _tree_product(X: np.ndarray) -> np.ndarray:
    """X[0] @ X[1] @ ... @ X[-1] by pairwise reduction: O(log len(X)) calls."""
    while len(X) > 1:
        m = len(X) & ~1
        Y = X[0:m:2] @ X[1:m:2]
        X = np.concatenate([Y, X[m:]]) if m < len(X) else Y
    return X[0]


def _members(seq: MatrixSequence, check=None) -> tuple | None:
    """A built family's member stack and which members are finite and pass
    ``check[1]``; None for any other rule or for members of mixed dtypes."""
    rule = seq.rule
    if not isinstance(rule, _Family) or len({A.dtype for A in rule.mats}) > 1:
        return None
    S = np.stack(rule.mats)
    ok = np.isfinite(S).all(axis=(1, 2))
    if check is not None:
        ok &= check[1](S)
    return S, ok


def _fetch(seq: MatrixSequence, idx: np.ndarray, members=None,
           check=None) -> tuple[list, Exception | None]:
    """The factors at sequence indices ``idx`` up to the first that fails:
    (groups, error), the groups (k, n, n) stacks of one dtype each.

    A built family's block is one gather from ``members``, a ``scaled``
    block its scales times the base, both tested as one stack; a factor that
    fails is fetched again alone and handed to ``check[0]``.  Any other rule
    is called and masked per index, so never past a factor that fails.
    """
    rule, error = seq.rule, None
    if members is None and not isinstance(rule, _Scaled):
        F = []
        try:
            for i in idx.tolist():
                A = seq.factor(i)
                if check is not None and not check[1](A[None])[0]:
                    check[0](A)
                F.append(A)
        except Exception as exc:
            error = exc
        if len({A.dtype for A in F}) == 1:
            return [np.stack(F)], error
        return [A[None].copy() for A in F], error
    if members is not None:
        S, ok = members
        m = (idx - 1) % len(S)
        F, good = S[m], ok[m] & (rule.cyclic | (idx <= len(S)))
    else:
        scales = []
        try:
            for i in idx.tolist():
                scales.append(float(rule.fn(i)))
        except Exception as exc:
            error = exc
        F = np.array(scales)[:, None, None] * rule.base
        good = np.isfinite(F).all(axis=(1, 2))
        if check is not None:
            good &= check[1](F)
    for b in np.flatnonzero(~good).tolist():
        try:
            A = (seq.factor(int(idx[b])) if members is not None
                 else as_matrix(F[b], name=f"factor {idx[b]}"))
            if check is not None:
                check[0](A)
        except Exception as exc:
            F, error = F[:b], exc
            break
    return [F] if len(F) else [], error


def _product_blocks(seq: MatrixSequence, sched: ProductSchedule, max_r: int,
                    cap: int = BLOCK_CAP, check=None) -> Iterator[tuple]:
    """The products of :func:`stream_general_product` in blocks of 1, 2, 4,
    ... up to ``cap`` steps, as (P, B, gathers, idx): the products and the
    entering factors, both (k, n, n) and read-only, each re-ordered step's
    :func:`_gather`, and the factors' sequence indices.  A nested step is
    one multiplication into a fresh array, a re-ordered one a
    :func:`_tree_product` over the factors fetched so far, both with numpy's
    overflow warnings off: an overflow shows as inf or NaN in P.  A block of
    mixed dtypes is yielded one step at a time.

    A block's factors come from one :func:`_fetch`: each must be finite and
    pass the mask ``check[1]`` if given, and ``check[0]`` raises for one that
    fails.  The steps before the first failure are yielded, then its error.
    """
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    ordering, p, perm = sched.ordering, sched.p, sched.permutation
    if ordering.kind == "explicit" and len(ordering.orders) < max_r:
        raise ValueError(
            f"explicit ordering lists {len(ordering.orders)} steps, "
            f"max_r={max_r} requested")
    members = _members(seq, check)
    left = ordering.kind == "left"
    r, size, C, F = 0, 1, None, None
    while r < max_r:
        k, gathers, error = min(size, max_r - r), [], None
        idx = perm.indices(p + r + 1, p + r + k)
        if not ordering.incremental:
            try:
                for s in range(r + 1, r + k + 1):
                    gathers.append(_gather(ordering, p, s))
            except Exception as exc:
                idx, error = idx[:len(gathers)], exc
        groups, fetch_error = _fetch(seq, idx, members, check)
        error = fetch_error or error
        if not groups:
            raise error
        for B in groups:
            g = gathers[:len(B)]
            del gathers[:len(B)]
            B.setflags(write=False)
            with np.errstate(over="ignore", invalid="ignore"):
                if ordering.incremental:
                    prods = []
                    for A in B:
                        C = A if C is None else C @ A if left else A @ C
                        prods.append(C)
                else:
                    F = B if F is None else np.concatenate([F, B])
                    prods = [_tree_product(F[offsets]) for offsets in g]
            P = np.stack(prods)
            P.setflags(write=False)
            yield P, B, g, idx[:len(B)]
            idx = idx[len(B):]
            r += len(B)
        if error is not None:
            raise error
        size = min(2 * size, cap)


# ---------------------------------------------------------------------------
# Norm traces
# ---------------------------------------------------------------------------

def bound_from_condition_C(seq: MatrixSequence, norm: VectorNorm, p: int,
                           r_max: int) -> np.ndarray:
    """Running products of max(mu, 1) over the factors past p.

    Entry r-1 bounds every general product of the first r factors in the given
    norm, once multiplied by the running product of min(mu, 1); the array is
    nondecreasing, and stays bounded exactly when the above-1 excess series
    converges.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if p < 0:
        raise ValueError("offset p must be nonnegative")
    groups, error = _fetch(seq, np.arange(p + 1, p + r_max + 1), _members(seq))
    if error is not None:
        raise error
    mus = np.concatenate([operator_norms(B, norm) for B in groups])
    return partial_sum_diagnostics(mus).plus_products


def _run_trace(seq: MatrixSequence, sched: ProductSchedule, max_r: int,
               measure, *, cap: int = BLOCK_CAP, check=None) -> tuple:
    """The trace loop of :func:`monitor_convergence` and
    :func:`weak_ergodicity_experiment`: (stopped, *arrays).

    Each block of :func:`_product_blocks` (``cap``, ``check``) is measured
    whole, with numpy's overflow and invalid-value warnings off:
    ``measure(P, B, idx)`` gives (stop, *arrays), a mask of the steps that stop
    the trace and arrays of per-step values.  The values are kept up to and
    including the first stopping step.  So the sequence is read at most
    ``cap - 1`` steps past the stop, and a step's error is raised only if no
    step before it stopped the trace.
    """
    kept = []
    for P, B, _, idx in _product_blocks(seq, sched, max_r, cap, check):
        with np.errstate(over="ignore", invalid="ignore"):
            stop, *arrays = measure(P, B, idx)
        stops = np.flatnonzero(stop)
        k = stops[0] + 1 if stops.size else len(stop)
        kept.append([a[:k] for a in arrays])
        if stops.size:
            break
    return (bool(stops.size), *map(np.concatenate, zip(*kept)))


@dataclass(frozen=True)
class TraceStatus:
    kind: str            # converged_below | bounded_by | exhausted
    r: int | None = None
    threshold: float | None = None
    bound: float | None = None


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """Norm values of a streamed general product, with the analytic envelope.

    ``envelope[i]`` is bound_M times the running product of min(mu, 1) of the
    factors, a valid upper bound for the trace under any ordering policy over
    the same factors.  ``factor_mus`` are the factor norms themselves.
    """

    rs: np.ndarray
    mus: np.ndarray
    envelope: np.ndarray
    factor_mus: np.ndarray
    bound_M: float
    status: TraceStatus
    schedule: ProductSchedule
    clamped_from: int | None = None
    overflow_at: int | None = None

    def __post_init__(self):
        for name in ("rs", "mus", "envelope", "factor_mus"):
            getattr(self, name).setflags(write=False)

    @property
    def crossed_at(self) -> int | None:
        return self.status.r if self.status.kind == "converged_below" else None


def monitor_convergence(seq: MatrixSequence, sched: ProductSchedule,
                        norm: VectorNorm, threshold: float | None,
                        max_r: int) -> ConvergenceTrace:
    """Stream a general product and record its norm against the envelope.

    Stops at the first step whose norm falls below ``threshold`` (status
    ``converged_below``), at ``max_r`` (status ``exhausted``, or
    ``bounded_by`` when no threshold was given), or when the norm overflows:
    it exceeds 1e300, is NaN, or the product itself has non-finite entries
    (recorded as an infinite norm).  Underflowing values are clamped at
    1e-300 and the first clamped step is recorded.  Steps are measured in
    blocks of up to BLOCK_CAP, so ``seq`` may be asked for up to
    BLOCK_CAP - 1 factors past the stop (see :func:`_run_trace`).  The
    factor norms of a ``constant`` or ``periodic`` sequence come from one
    call on its members, read by member index.
    """
    if threshold is not None and not threshold > 0:
        raise ValueError("threshold must be positive")
    closed = has_closed_form(norm)
    members = _members(seq) if closed and getattr(seq.rule, "cyclic", False) else None
    member_mus = None if members is None else operator_norms(members[0], norm)

    def measure(P, B, idx):
        mus = operator_norms(P, norm)
        stop = ~(mus <= OVERFLOW_LIMIT)
        if threshold is not None:
            stop |= np.maximum(mus, UNDERFLOW_CLAMP) < threshold
        return stop, mus, (operator_norms(B, norm) if member_mus is None
                           else member_mus[(idx - 1) % len(member_mus)])

    # A sampled norm is measured one step at a time: none is spent past the stop.
    stopped, raw, factor_mus = _run_trace(
        seq, sched, max_r, measure, cap=BLOCK_CAP if closed else 1)
    low = np.flatnonzero(raw < UNDERFLOW_CLAMP)
    mus = np.maximum(raw, UNDERFLOW_CLAMP)
    diag = partial_sum_diagnostics(factor_mus)
    bound_M = float(diag.plus_products[-1])
    # An infinite bound is vacuous but valid; inf times an underflowed 0 is not.
    envelope = bound_M * diag.minus_products if bound_M < np.inf \
        else np.full_like(diag.minus_products, np.inf)
    r = len(mus)
    overflow_at = r if stopped and not mus[-1] <= OVERFLOW_LIMIT else None
    if overflow_at is not None:
        status = TraceStatus("exhausted", r=overflow_at, bound=bound_M)
    elif stopped:
        status = TraceStatus("converged_below", r=r, threshold=threshold)
    elif threshold is None:
        status = TraceStatus("bounded_by", bound=bound_M)
    else:
        status = TraceStatus("exhausted", r=max_r, threshold=threshold,
                             bound=bound_M)
    return ConvergenceTrace(
        rs=np.arange(1, r + 1), mus=mus, envelope=envelope,
        factor_mus=diag.values, bound_M=bound_M, status=status, schedule=sched,
        clamped_from=int(low[0]) + 1 if low.size else None,
        overflow_at=overflow_at)


def restrict_stream(seq: MatrixSequence, H: Subspace) -> MatrixSequence:
    """The sequence of factors restricted to a common invariant subspace.

    Restriction is lazy; a factor that fails the invariance check raises
    InvarianceError naming its index.  Since restriction commutes with
    multiplication, convergence of the restricted products is exactly
    convergence of the full products on vectors of H.
    """
    if H.dim == 0:
        return MatrixSequence(n=0, rule=lambda i: np.zeros((0, 0)),
                              name=f"{seq.name}|zero")

    def rule(i: int) -> np.ndarray:
        A = seq.factor(i)
        try:
            return restrict(A, H)
        except InvarianceError as e:
            raise InvarianceError(
                f"factor {i} does not leave the subspace invariant "
                f"(residual {e.residual:.3e})", residual=e.residual) from None

    return MatrixSequence(n=H.dim, rule=rule, name=f"{seq.name}|restricted")
