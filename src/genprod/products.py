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
        n = mats[0].shape[0]

        def rule(i: int) -> np.ndarray:
            if i > len(mats):
                raise SequenceExhaustedError(
                    f"sequence {name or '<explicit>'} has only {len(mats)} "
                    f"factors, index {i} requested")
            return mats[i - 1]

        return cls(n=n, rule=rule, name=name)

    @classmethod
    def periodic(cls, mats: Sequence, name: str = "periodic") -> "MatrixSequence":
        mats = _frozen_factors(mats, "periodic sequence needs at least one matrix")
        return cls(n=mats[0].shape[0], rule=lambda i: mats[(i - 1) % len(mats)],
                   name=name)

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
    product each step.  At every step the factor multiset is positions
    p+1..p+r of the permuted sequence, whatever the ordering.
    """
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    ordering, p = sched.ordering, sched.p
    if ordering.kind == "explicit" and len(ordering.orders) < max_r:
        raise ValueError(
            f"explicit ordering lists {len(ordering.orders)} steps, "
            f"max_r={max_r} requested")
    cache: dict[int, np.ndarray] = {}
    C = None
    for r in range(1, max_r + 1):
        if ordering.kind == "left":
            positions = range(p + 1, p + r + 1)
        elif ordering.kind == "right":
            positions = range(p + r, p, -1)
        elif ordering.kind == "random":
            rng = np.random.default_rng([ordering.seed, r])
            positions = tuple(p + 1 + int(i) for i in rng.permutation(r))
        else:
            positions = ordering.orders[r - 1]
            want = set(range(p + 1, p + r + 1))
            if set(positions) != want or len(positions) != r:
                raise ValueError(
                    f"explicit order for step {r} must be a permutation of "
                    f"positions {sorted(want)}, got {positions}")
        B = seq.factor(sched.permutation.index_at(p + r))
        if not ordering.incremental:
            cache[p + r] = B
            C = cache[positions[0]].copy()
            for pos in positions[1:]:
                C = C @ cache[pos]
        elif C is None:
            C = B.copy()
        elif ordering.kind == "left":
            C = C @ B
        else:
            C = B @ C
        C.setflags(write=False)  # yielded array doubles as running state
        yield ProductStep(r, C, B, positions, sched.permutation)


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
    return partial_sum_diagnostics(_block_norms(factors, norm)).plus_products


class _Trace(NamedTuple):
    values: list            # one value per step, clamped with ``limits``
    factor_values: list     # the measure's second value per step
    stop: str | None        # "overflow", "crossed" or None
    clamped_from: int | None


def _run_trace(seq: MatrixSequence, sched: ProductSchedule, max_r: int,
               measure, threshold: float | None, *, limits: bool,
               cap: int = BLOCK_CAP) -> _Trace:
    """The trace loop of :func:`monitor_convergence` and
    :func:`weak_ergodicity_experiment`.

    Steps are pulled from :func:`stream_general_product` in blocks of 1, 2,
    4, ... up to ``cap`` steps, and ``measure(steps)`` gives the value of
    every step of a block, and a second value per step or None, in one call.
    The rules then apply to the values in step order: with ``limits``, a
    value below UNDERFLOW_CLAMP is raised to it (the first such step is
    recorded) and a value that is not at most OVERFLOW_LIMIT stops the trace
    as an overflow; a value below ``threshold`` stops it as a crossing.

    So the stream runs at most ``cap - 1`` steps past the step that stops
    the trace.  An error raised by the stream (by a factor fetch, say) ends
    the block, and is raised once the steps before it are measured, unless
    one of them stopped the trace.
    With ``limits``, a product with an entry that is not at most
    OVERFLOW_LIMIT also ends its block, so no product past an overflow is
    multiplied out.
    """
    stream = stream_general_product(seq, sched, max_r)
    values, factor_values = [], []
    clamped_from = None
    size = 1
    while len(values) < max_r:
        block, error = [], None
        try:
            for step in stream:
                block.append(step)
                if len(block) == size or limits and not \
                        np.abs(step.matrix).max(initial=0.0) <= OVERFLOW_LIMIT:
                    break
        except Exception as exc:
            error = exc
        if block:
            vals, fvals = measure(block)
            for k, v in enumerate(vals.tolist()):
                r = len(values) + 1
                if limits and v < UNDERFLOW_CLAMP:
                    v = UNDERFLOW_CLAMP
                    if clamped_from is None:
                        clamped_from = r
                values.append(v)
                if fvals is not None:
                    factor_values.append(fvals[k])
                if limits and not v <= OVERFLOW_LIMIT:
                    return _Trace(values, factor_values, "overflow", clamped_from)
                if threshold is not None and v < threshold:
                    return _Trace(values, factor_values, "crossed", clamped_from)
        if error is not None:
            raise error
        size = min(2 * size, cap)
    return _Trace(values, factor_values, None, clamped_from)


def _block_norms(mats: list, norm: VectorNorm) -> np.ndarray:
    """Operator norm of each matrix of a block; inf for a matrix with a
    non-finite entry.

    One stacked call when the block shares one dtype; a block that mixes
    real and complex matrices is measured one matrix at a time, so every
    value is the one :func:`operator_norm` gives.
    """
    if any(M.dtype != mats[0].dtype for M in mats):
        return np.concatenate([_block_norms([M], norm) for M in mats])
    S = np.stack(mats)
    finite = np.isfinite(S).all(axis=(1, 2))
    out = np.full(len(mats), np.inf)
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
    if threshold is not None and threshold <= 0:
        raise ValueError("threshold must be positive")

    def measure(steps):
        return (_block_norms([step.matrix for step in steps], norm),
                _block_norms([step.factor for step in steps], norm))

    # A sampled norm is measured one step at a time: none is spent past the stop.
    run = _run_trace(seq, sched, max_r, measure, threshold, limits=True,
                     cap=BLOCK_CAP if has_closed_form(norm) else 1)
    diag = partial_sum_diagnostics(run.factor_values)
    bound_M = float(diag.plus_products[-1])
    envelope = bound_M * diag.minus_products
    r = len(run.values)
    overflow_at = r if run.stop == "overflow" else None
    if overflow_at is not None:
        status = TraceStatus("exhausted", r=overflow_at, bound=bound_M)
    elif run.stop == "crossed":
        status = TraceStatus("converged_below", r=r, threshold=threshold)
    elif threshold is None:
        status = TraceStatus("bounded_by", bound=bound_M)
    else:
        status = TraceStatus("exhausted", r=max_r, threshold=threshold,
                             bound=bound_M)
    return ConvergenceTrace(
        rs=np.arange(1, r + 1), mus=np.asarray(run.values),
        envelope=envelope, factor_mus=diag.values, bound_M=bound_M,
        status=status, schedule=sched, clamped_from=run.clamped_from,
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
