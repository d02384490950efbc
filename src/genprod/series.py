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
      * ``finite_support``: explicit values for i <= N, exactly 1 afterwards;
      * ``p_series``: limit +/- amplitude / i**exponent (side "above"/"below");
      * ``constant``: the same value c at every index;
      * ``periodic``: the given finite list repeated forever;
      * ``explicit_prefix``: explicit leading values, then a declared tail
        model (tail None makes convergence questions undecidable).
    """

    kind: str
    values: tuple[float, ...] = ()
    amplitude: float = 0.0
    exponent: float = 1.0
    side: str = "above"
    limit: float = 1.0
    constant: float = 1.0
    tail: Optional["TailModel"] = None

    def __post_init__(self):
        if self.kind not in ("finite_support", "p_series", "constant",
                             "periodic", "explicit_prefix"):
            raise ValueError(f"unknown tail family {self.kind!r}")
        if self.kind == "p_series":
            if self.side not in ("above", "below"):
                raise ValueError("side must be 'above' or 'below'")
            if self.amplitude < 0 or self.exponent <= 0:
                raise ValueError("p_series needs amplitude >= 0 and exponent > 0")
            if self.side == "below" and self.limit - self.amplitude < 0:
                raise ValueError("first term of the family would be negative")
        if self.kind == "constant" and self.constant < 0:
            raise ValueError("constant value must be nonnegative")
        if self.kind == "periodic" and not self.values:
            raise ValueError("periodic family needs at least one value")
        if any(v < 0 for v in self.values):
            raise ValueError("norm values must be nonnegative")

    # -- constructors -------------------------------------------------------

    @classmethod
    def finite_support(cls, values: Sequence[float]) -> "TailModel":
        return cls("finite_support", values=tuple(float(v) for v in values))

    @classmethod
    def p_series(cls, amplitude: float, exponent: float, side: str = "above",
                 limit: float = 1.0) -> "TailModel":
        return cls("p_series", amplitude=float(amplitude),
                   exponent=float(exponent), side=side, limit=float(limit))

    @classmethod
    def constant_value(cls, c: float) -> "TailModel":
        return cls("constant", constant=float(c))

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
        if self.kind == "finite_support":
            return self.values[i - 1] if i <= len(self.values) else 1.0
        if self.kind == "p_series":
            dev = self.amplitude / float(i) ** self.exponent
            v = self.limit + dev if self.side == "above" else self.limit - dev
            return max(v, 0.0)
        if self.kind == "constant":
            return self.constant
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
        if self.kind == "finite_support":
            return max((*self.values, 1.0))
        if self.kind == "p_series":
            return self.value(1) if self.side == "above" else self.limit
        if self.kind == "constant":
            return self.constant
        if self.kind == "periodic":
            return max(self.values)
        tail_sup = self.tail.sup_value() if self.tail is not None else 0.0
        return max((*self.values, tail_sup))

    def accumulation_points(self) -> tuple[float, ...] | None:
        """All limit points of the value sequence, or None when unknown."""
        if self.kind == "finite_support":
            return (1.0,)
        if self.kind == "p_series":
            return (self.limit,)
        if self.kind == "constant":
            return (self.constant,)
        if self.kind == "periodic":
            return tuple(sorted(set(self.values)))
        if self.tail is None:
            return None
        return self.tail.accumulation_points()


def check_condition_C(model: TailModel) -> ConditionVerdict:
    """Does the above-1 excess series of the family converge?"""
    if model.kind == "finite_support":
        return ConditionVerdict.HOLDS
    if model.kind == "p_series":
        if model.limit > 1.0:
            return ConditionVerdict.FAILS
        if model.limit < 1.0:
            # Only finitely many terms exceed 1.
            return ConditionVerdict.HOLDS
        if model.side == "below":
            return ConditionVerdict.HOLDS
        return ConditionVerdict.HOLDS if model.exponent > 1.0 else ConditionVerdict.FAILS
    if model.kind == "constant":
        return ConditionVerdict.HOLDS if model.constant <= 1.0 else ConditionVerdict.FAILS
    if model.kind == "periodic":
        return ConditionVerdict.HOLDS if max(model.values) <= 1.0 else ConditionVerdict.FAILS
    if model.tail is None:
        return ConditionVerdict.UNDECIDABLE
    return check_condition_C(model.tail)


def check_condition_D(model: TailModel,
                      subfamilies: Iterable[TailModel] = ()) -> ConditionVerdict:
    """Does the below-1 deficit series of the family diverge?

    ``subfamilies`` may declare value families along subsequences; the
    condition holds as soon as the full family or any declared subfamily
    makes the deficit series diverge.
    """
    verdict = _condition_D_single(model)
    if verdict == ConditionVerdict.HOLDS:
        return verdict
    for sub in subfamilies:
        if _condition_D_single(sub) == ConditionVerdict.HOLDS:
            return ConditionVerdict.HOLDS
    return verdict


def _condition_D_single(model: TailModel) -> ConditionVerdict:
    if model.kind == "finite_support":
        return ConditionVerdict.FAILS
    if model.kind == "p_series":
        if model.limit < 1.0:
            return ConditionVerdict.HOLDS
        if model.limit > 1.0:
            return ConditionVerdict.FAILS
        if model.side == "above":
            return ConditionVerdict.FAILS
        return ConditionVerdict.HOLDS if model.exponent <= 1.0 else ConditionVerdict.FAILS
    if model.kind == "constant":
        return ConditionVerdict.HOLDS if model.constant < 1.0 else ConditionVerdict.FAILS
    if model.kind == "periodic":
        return ConditionVerdict.HOLDS if min(model.values) < 1.0 else ConditionVerdict.FAILS
    if model.tail is None:
        return ConditionVerdict.UNDECIDABLE
    return _condition_D_single(model.tail)


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
