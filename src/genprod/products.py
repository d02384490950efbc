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
        return cls(n=base.shape[0], rule=lambda i: float(fn(i)) * base, name=name)


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

    def index_at(self, position: int) -> int:
        """Original-sequence index placed at the given position (1-based)."""
        if position < 1:
            raise ValueError("positions are 1-based")
        if self.kind == "identity":
            return position
        if self.kind == "prefix":
            if position <= len(self.prefix):
                return self.prefix[position - 1]
            # t-th positive integer not used by the prefix: each used index
            # at or below the candidate pushes it up by one
            x = position - len(self.prefix)
            for u in sorted(self.prefix):
                if u > x:
                    break
                x += 1
            return x
        g, off = divmod(position - 1, self.block)
        return g * self.block + _block_permutation(self.seed, self.block, g)[off] + 1


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
        return tuple(self.permutation.index_at(q) for q in self.positions)

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
    p+1..p+r of the permuted sequence, whatever the ordering.  The traces
    share this product routine, :func:`_product_blocks`.
    """
    r, p, kind = 0, sched.p, sched.ordering.kind
    for P, B, gathers in _product_blocks(seq, sched, max_r, cap=1):
        r += 1
        positions = (range(p + 1, p + r + 1) if kind == "left" else
                     range(p + r, p, -1) if kind == "right" else
                     tuple((gathers[0] + p + 1).tolist()))
        yield ProductStep(r, P[0], B[0], positions, sched.permutation)


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


def _product_blocks(seq: MatrixSequence, sched: ProductSchedule, max_r: int,
                    cap: int, check=None) -> Iterator[tuple]:
    """The products of :func:`stream_general_product` in blocks of 1, 2, 4,
    ... up to ``cap`` steps, as (P, B, gathers): the products and the
    entering factors, both (k, n, n), and each re-ordered step's
    :func:`_gather`.  A nested step is one multiplication, a re-ordered one a
    :func:`_tree_product` over the factors fetched so far, both with numpy's
    overflow warnings off: an overflow shows as inf or NaN in P.

    A rule sequence's factors are fetched in step order by ``seq.factor``,
    then ``check[0]`` if given.  A built family's members get one stacked
    finiteness test, and the mask ``check[1]`` if given, per block; a member
    that fails is fetched and checked alone, which raises its error.  The
    first step that fails ends its block: the steps before it are yielded,
    then the error is raised.  A block of mixed dtypes is yielded one step at
    a time.
    """
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    ordering, p, perm = sched.ordering, sched.p, sched.permutation
    if ordering.kind == "explicit" and len(ordering.orders) < max_r:
        raise ValueError(
            f"explicit ordering lists {len(ordering.orders)} steps, "
            f"max_r={max_r} requested")
    family = seq.rule if isinstance(seq.rule, _Family) else None

    def fetch(i):
        return seq.factor(i) if check is None else check[0](seq.factor(i))

    get, left = fetch if family is None else family, ordering.kind == "left"
    r, size, C, F = 0, 1, None, None
    while r < max_r:
        mats, gathers, idxs, error = [], [], [], None
        try:
            for s in range(r + 1, min(r + size, max_r) + 1):
                if not ordering.incremental:
                    gathers.append(_gather(ordering, p, s))
                idxs.append(perm.index_at(p + s))
                mats.append(get(idxs[-1]))
        except Exception as exc:
            error = exc
        if not mats:
            raise error
        B = np.stack(mats) if len(mats) > 1 else mats[0][None]
        if family is not None:
            ok = np.isfinite(B).all(axis=(1, 2))
            if check is not None:
                ok &= check[1](B)
            for j in np.flatnonzero(~ok):
                try:
                    fetch(idxs[j])
                except Exception as exc:
                    del mats[j:]
                    B, error = B[:j], exc
                    break
        del gathers[len(mats):]
        mixed = any(A.dtype != B.dtype for A in mats)
        for lo in range(0, len(mats), 1 if mixed else len(mats) or 1):
            hi = lo + 1 if mixed else len(mats)
            Bg, g = (mats[lo][None] if mixed else B), gathers[lo:hi]
            with np.errstate(over="ignore", invalid="ignore"):
                if ordering.incremental:
                    prods = []
                    for A in mats[lo:hi]:
                        C = A if C is None else C @ A if left else A @ C
                        prods.append(C)
                else:
                    F = Bg if F is None else np.concatenate([F, Bg])
                    prods = [_tree_product(F[offsets]) for offsets in g]
            P = np.stack(prods)
            P.setflags(write=False)  # a streamed step's matrix is read-only
            yield P, Bg, g
            r += hi - lo
        if error is not None:
            raise error
        size = min(2 * size, cap)


# ---------------------------------------------------------------------------
# Norm traces
# ---------------------------------------------------------------------------

def bound_from_condition_C(seq: MatrixSequence, norm: VectorNorm, p: int,
                           r_max: int,
                           permutation: Permutation = Permutation()) -> np.ndarray:
    """Running products of max(mu, 1) over the permuted factors past p.

    Entry r-1 bounds every general product of the first r factors in the given
    norm, once multiplied by the running product of min(mu, 1); the array is
    nondecreasing, and stays bounded exactly when the above-1 excess series
    converges.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    factors = [seq.factor(permutation.index_at(p + i)) for i in range(1, r_max + 1)]
    if any(A.dtype != factors[0].dtype for A in factors):
        mus = np.concatenate([_block_norms(A[None], norm) for A in factors])
    else:
        mus = _block_norms(np.stack(factors), norm)
    return partial_sum_diagnostics(mus).plus_products


def _run_trace(seq: MatrixSequence, sched: ProductSchedule, max_r: int,
               measure, *, cap: int = BLOCK_CAP, check=None) -> tuple:
    """The trace loop of :func:`monitor_convergence` and
    :func:`weak_ergodicity_experiment`: (values, second values or None,
    stopped).

    Each block of :func:`_product_blocks` (``cap``, ``check``) is measured
    whole, with numpy's overflow and invalid-value warnings off:
    ``measure(P, B)`` gives every step's value, a second value per step or
    None, and a mask of the steps that stop the trace.  The values are kept
    up to and including the first stopping step.  So the sequence is read
    at most ``cap - 1`` steps past the stop, and a step's error is raised
    only if no step before it stopped the trace.
    """
    values, seconds = [], []
    for P, B, _ in _product_blocks(seq, sched, max_r, cap, check):
        with np.errstate(over="ignore", invalid="ignore"):
            vals, svals, stop = measure(P, B)
        stops = np.flatnonzero(stop)
        k = stops[0] + 1 if stops.size else len(vals)
        values.append(vals[:k])
        if svals is not None:
            seconds.append(svals[:k])
        if stops.size:
            break
    return (np.concatenate(values), np.concatenate(seconds) if seconds else None,
            bool(stops.size))


def _block_norms(S: np.ndarray, norm: VectorNorm) -> np.ndarray:
    """Operator norm of each matrix of a stack S (m, n, n), as
    :func:`operator_norm` gives it; inf for a matrix with a non-finite
    entry."""
    finite = np.isfinite(S).all(axis=(1, 2))
    out = np.full(len(S), np.inf)
    out[finite] = operator_norms(S[finite], norm)
    return out


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
    BLOCK_CAP - 1 factors past the stop (see :func:`_run_trace`).
    """
    if threshold is not None and not threshold > 0:
        raise ValueError("threshold must be positive")

    def measure(P, B):
        mus = _block_norms(P, norm)
        stop = ~(mus <= OVERFLOW_LIMIT)
        if threshold is not None:
            stop |= np.maximum(mus, UNDERFLOW_CLAMP) < threshold
        return mus, _block_norms(B, norm), stop

    # A sampled norm is measured one step at a time: none is spent past the stop.
    raw, factor_mus, stopped = _run_trace(
        seq, sched, max_r, measure, cap=BLOCK_CAP if has_closed_form(norm) else 1)
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
