"""Analytic tail families of norm values and the two product-convergence tests.

A sequence of factor norms mu(A_1), mu(A_2), ... controls its products through
two series:

  * condition C: sum of (max(mu_i, 1) - 1) converges, which bounds every
    partial product from above;
  * condition D: sum of (1 - min(mu_i, 1)) diverges, which drives the
    products to zero.

Software only ever sees finitely many values, so verdicts are issued solely
for declared analytic families (TailModel); raw finite data gets running
diagnostics and never a verdict.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class ConditionVerdict(str, enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDECIDABLE = "undecidable"


def mu_plus(v: float) -> float:
    """max(v, 1); the part of a norm value that can grow a product."""
    if v < 0:
        raise ValueError(f"norm value must be nonnegative, got {v}")
    return max(float(v), 1.0)


def mu_minus(v: float) -> float:
    """min(v, 1); the part of a norm value that shrinks a product."""
    if v < 0:
        raise ValueError(f"norm value must be nonnegative, got {v}")
    return min(float(v), 1.0)


@dataclass(frozen=True)
class TailModel:
    """A declared infinite family of nonnegative norm values.

    kinds:
      * ``p_series``: limit +/- amplitude / i**exponent (side "above"/"below");
      * ``periodic``: the given finite list repeated forever;
      * ``explicit_prefix``: explicit leading values, then a declared tail
        model (tail None makes convergence questions undecidable).

    A constant family is a one-value ``periodic`` family, and a finitely
    supported one is an ``explicit_prefix`` whose tail is the constant 1.
    """

    kind: str
    values: tuple[float, ...] = ()
    amplitude: float = 0.0
    exponent: float = 1.0
    side: str = "above"
    limit: float = 1.0
    tail: Optional["TailModel"] = None

    def __post_init__(self):
        if self.kind not in ("p_series", "periodic", "explicit_prefix"):
            raise ValueError(f"unknown tail family {self.kind!r}")
        if not all(map(math.isfinite, (self.amplitude, self.exponent, self.limit,
                                       *self.values))):
            raise ValueError("tail model parameters and values must be finite")
        if self.kind == "p_series":
            if self.side not in ("above", "below"):
                raise ValueError("side must be 'above' or 'below'")
            if self.amplitude < 0 or self.exponent <= 0:
                raise ValueError("p_series needs amplitude >= 0 and exponent > 0")
            if self.side == "below" and self.limit - self.amplitude < 0:
                raise ValueError("first term of the family would be negative")
        if self.kind == "periodic" and not self.values:
            raise ValueError("periodic family needs at least one value")
        if any(v < 0 for v in self.values):
            raise ValueError("norm values must be nonnegative")

    # -- constructors -------------------------------------------------------

    @classmethod
    def finite_support(cls, values: Sequence[float]) -> "TailModel":
        """Explicit values for i <= len(values), exactly 1 afterwards."""
        return cls.with_prefix(values, cls.periodic([1.0]))

    @classmethod
    def p_series(cls, amplitude: float, exponent: float, side: str = "above",
                 limit: float = 1.0) -> "TailModel":
        return cls("p_series", amplitude=float(amplitude),
                   exponent=float(exponent), side=side, limit=float(limit))

    @classmethod
    def constant_value(cls, c: float) -> "TailModel":
        return cls.periodic([c])

    @classmethod
    def periodic(cls, values: Sequence[float]) -> "TailModel":
        return cls("periodic", values=tuple(float(v) for v in values))

    @classmethod
    def with_prefix(cls, values: Sequence[float],
                    tail: Optional["TailModel"]) -> "TailModel":
        return cls("explicit_prefix", values=tuple(float(v) for v in values),
                   tail=tail)

    # -- evaluation ---------------------------------------------------------

    def value(self, i: int) -> float:
        """The i-th norm value, 1-based."""
        if i < 1:
            raise ValueError("indices are 1-based")
        if self.kind == "p_series":
            dev = self.amplitude / float(i) ** self.exponent
            v = self.limit + dev if self.side == "above" else self.limit - dev
            return max(v, 0.0)
        if self.kind == "periodic":
            return self.values[(i - 1) % len(self.values)]
        if i <= len(self.values):
            return self.values[i - 1]
        if self.tail is None:
            raise ValueError("explicit prefix exhausted and no tail declared")
        return self.tail.value(i - len(self.values))

    def prefix(self, r: int) -> np.ndarray:
        return np.array([self.value(i) for i in range(1, r + 1)])

    def sup_value(self) -> float:
        """Least upper bound of the family (exact for every kind)."""
        if self.kind == "p_series":
            return self.value(1) if self.side == "above" else self.limit
        if self.kind == "periodic":
            return max(self.values)
        tail_sup = self.tail.sup_value() if self.tail is not None else 0.0
        return max((*self.values, tail_sup))

    def accumulation_points(self) -> tuple[float, ...] | None:
        """All limit points of the value sequence, or None when unknown."""
        if self.kind == "p_series":
            return (self.limit,)
        if self.kind == "periodic":
            return tuple(sorted(set(self.values)))
        if self.tail is None:
            return None
        return self.tail.accumulation_points()


def _diverges(model: TailModel, above: bool) -> bool | None:
    """Does the series of |mu_i - 1| over the terms above 1 (or below 1)
    diverge?  None when a prefix has no declared tail."""
    if model.kind == "p_series":
        if model.limit != 1.0:
            # The terms tend to |limit - 1| > 0 on the limit's side only.
            return (model.limit > 1.0) == above
        # The terms amplitude / i**exponent sit on the family's own side.
        return (model.side == "above") == above and model.amplitude > 0.0 \
            and model.exponent <= 1.0
    if model.kind == "periodic":
        return max(model.values) > 1.0 if above else min(model.values) < 1.0
    if model.tail is None:
        return None
    return _diverges(model.tail, above)


def check_condition_C(model: TailModel) -> ConditionVerdict:
    """Does the above-1 excess series of the family converge?"""
    diverges = _diverges(model, above=True)
    if diverges is None:
        return ConditionVerdict.UNDECIDABLE
    return ConditionVerdict.FAILS if diverges else ConditionVerdict.HOLDS


def check_condition_D(model: TailModel,
                      subfamilies: Iterable[TailModel] = ()) -> ConditionVerdict:
    """Does the below-1 deficit series of the family diverge?

    ``subfamilies`` may declare value families along subsequences; the
    condition holds as soon as the full family or any declared subfamily
    makes the deficit series diverge.
    """
    diverges = _diverges(model, above=False)
    if diverges or any(_diverges(sub, above=False) for sub in subfamilies):
        return ConditionVerdict.HOLDS
    return ConditionVerdict.UNDECIDABLE if diverges is None else ConditionVerdict.FAILS


@dataclass(frozen=True, eq=False)
class SeriesDiagnostics:
    """Running sums and products over a finite list of norm values.

    Finite data cannot decide convergence; this is raw material for plots and
    for cross-checking declared families against realized factors.
    """

    values: np.ndarray
    plus_sums: np.ndarray       # partial sums of (mu_plus - 1)
    minus_sums: np.ndarray      # partial sums of (1 - mu_minus)
    plus_products: np.ndarray   # running products of mu_plus
    minus_products: np.ndarray  # running products of mu_minus

    def __post_init__(self):
        for name in ("values", "plus_sums", "minus_sums",
                     "plus_products", "minus_products"):
            a = getattr(self, name)
            a.setflags(write=False)


def partial_sum_diagnostics(values: Sequence[float]) -> SeriesDiagnostics:
    v = np.asarray(list(values), dtype=float)
    if np.any(v < 0):
        raise ValueError("norm values must be nonnegative")
    plus = np.maximum(v, 1.0)
    minus = np.minimum(v, 1.0)
    # A running product past the float range is unbounded: inf is its value.
    with np.errstate(over="ignore"):
        return SeriesDiagnostics(
            values=v,
            plus_sums=np.cumsum(plus - 1.0),
            minus_sums=np.cumsum(1.0 - minus),
            plus_products=np.cumprod(plus),
            minus_products=np.cumprod(minus),
        )


def sinh_product_limit() -> float:
    """Limit of the running product of (1 + 1/i**2); handy reference value."""
    return math.sinh(math.pi) / math.pi
