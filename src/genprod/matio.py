"""File formats and config (de)serialization.

Matrices travel as JSON arrays-of-rows (complex entries as [re, im] pairs)
or as CSV with a ``n,<dim>`` header line followed by the rows.  Norms,
subspaces, schedules, sequences, and tail models all have small JSON config
shapes so experiment runs can be replayed exactly.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .norms import (
    AdditiveNorm,
    L1,
    L2,
    LINF,
    PNorm,
    Subspace,
    VectorNorm,
    WeightedL1,
    additive_norm,
    as_matrix,
    mean_zero_subspace,
)
from .products import MatrixSequence, Ordering, Permutation, ProductSchedule
from .series import SeriesDiagnostics, TailModel


class ConfigError(ValueError):
    """A config document is malformed; message points at the offending key."""


def require(cfg: dict, key: str, where: str = ""):
    """``cfg[key]``; a missing key is a ConfigError naming it (and ``where``)."""
    if key not in cfg:
        raise ConfigError(f"{where} config is missing required key {key!r}".lstrip())
    return cfg[key]


def kind_of(cfg, where: str, kinds) -> str:
    """The 'kind' of a kind-tagged config object: a string among ``kinds``."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{where} config must be an object with a 'kind'")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {where} kind {kind!r}")
    return kind


def json_int(v, what: str) -> int:
    """A config integer.  It must be a JSON integer: ``int`` would also read
    3.9 as 3, true as 1 and "7" as 7."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    return v


def json_bool(v, what: str) -> bool:
    """A config flag: JSON true or false, so that "false" is not read as true."""
    if not isinstance(v, bool):
        raise ConfigError(f"{what} must be true or false, got {v!r}")
    return v


def json_float(v, what: str) -> float:
    """A config number: a JSON integer or float, not true or "1e-8"."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"{what} is too large for a float") from None


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def _real(v, i: int, j: int) -> float:
    """Matrix entry (i, j) as a float: a float as is, else :func:`json_float`."""
    return v if type(v) is float else json_float(v, f"matrix entry ({i},{j})")


def matrix_from_jsonable(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError("matrix must be a nonempty list of rows")
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ConfigError(f"matrix row {i} must be a list, got {row!r}")
    complex_entries = any(isinstance(v, list) for row in obj for v in row)
    n = len(obj)
    A = np.zeros((n, len(obj[0])), dtype=complex if complex_entries else float)
    for i, row in enumerate(obj):
        if len(row) != A.shape[1]:
            raise ConfigError(f"matrix row {i} has length {len(row)}, "
                              f"expected {A.shape[1]}")
        for j, v in enumerate(row):
            if isinstance(v, list):
                if len(v) != 2:
                    raise ConfigError(
                        f"complex entry at ({i},{j}) must be [re, im]")
                A[i, j] = complex(_real(v[0], i, j), _real(v[1], i, j))
            else:
                A[i, j] = _real(v, i, j)
    return A


def vector_from_jsonable(obj) -> np.ndarray:
    """A vector in the matrix entry format: reals and [re, im] pairs."""
    if not isinstance(obj, list):
        raise ConfigError("vector must be a list of entries")
    return matrix_from_jsonable([obj])[0]


def save_matrix_json(A, path) -> None:
    Path(path).write_text(json.dumps(to_jsonable(np.asarray(A))) + "\n",
                          encoding="utf-8")


def load_matrix_json(path) -> np.ndarray:
    return matrix_from_jsonable(json.loads(Path(path).read_text(encoding="utf-8")))


def csv_text(columns: list[str], rows) -> str:
    """A header line and one line per row; floats in round-trip repr form."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def matrix_to_csv_text(A) -> str:
    A = np.asarray(A)
    if np.iscomplexobj(A):
        raise ValueError("CSV matrix files are real-only; use JSON for complex")
    return csv_text(["n", str(A.shape[0])], to_jsonable(A))


def matrix_from_csv_text(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or not rows[0] or rows[0][0].strip() != "n":
        raise ConfigError("CSV matrix must start with a 'n,<dim>' header row")
    try:
        n = int(rows[0][1])
    except (IndexError, ValueError):
        raise ConfigError("CSV matrix header must carry the dimension") from None
    data = [r for r in rows[1:] if r]
    if len(data) != n:
        raise ConfigError(f"CSV matrix header says n={n} but {len(data)} rows follow")
    try:
        A = np.array([[float(v) for v in r] for r in data])
    except ValueError as e:
        raise ConfigError(f"CSV matrix has a non-numeric entry: {e}") from None
    if A.shape != (n, n):
        raise ConfigError(f"CSV matrix must be {n}x{n}, got {A.shape}")
    return A


def save_matrix_csv(A, path) -> None:
    Path(path).write_text(matrix_to_csv_text(A), encoding="utf-8")


def load_matrix_csv(path) -> np.ndarray:
    return matrix_from_csv_text(Path(path).read_text(encoding="utf-8"))


def matrix_from_config(obj, base_dir: Path | None = None) -> np.ndarray:
    """Inline rows, or {"file": path} with .json / .csv resolution."""
    if isinstance(obj, dict):
        if "file" not in obj:
            raise ConfigError("matrix object must be rows or {'file': path}")
        path = Path(obj["file"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"matrix file not found: {path}")
        try:
            if path.suffix.lower() == ".csv":
                return load_matrix_csv(path)
            return load_matrix_json(path)
        except (OSError, UnicodeDecodeError) as e:  # a directory, unreadable, not UTF-8
            raise ConfigError(f"cannot read matrix file {path}: {e}") from None
    return as_matrix(matrix_from_jsonable(obj))


# ---------------------------------------------------------------------------
# Generic report serialization
# ---------------------------------------------------------------------------

def to_jsonable(obj: Any) -> Any:
    """Dataclasses, arrays, containers and numpy scalars to plain JSON values.

    Non-finite floats become the strings "inf", "-inf" and "nan", so the
    result serializes as strict JSON.  The verdict enums are str enums and
    pass through as strings; a NamedTuple is a tuple and becomes a list.
    Complex numbers become [re, im] pairs.  A bool or int vector is written
    as ints, any other array as floats.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return to_jsonable(obj.item())
    if isinstance(obj, complex):
        return [to_jsonable(obj.real), to_jsonable(obj.imag)]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack((obj.real, obj.imag), axis=-1)
        obj = obj.astype(float if obj.ndim > 1 or obj.dtype.kind == "f" else int,
                         copy=False)
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            return to_jsonable(obj.tolist())
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name.startswith("_"):
                continue
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def norm_to_config(norm: VectorNorm) -> dict:
    if isinstance(norm, PNorm):
        return {"kind": norm.name}
    if isinstance(norm, WeightedL1):
        return {"kind": "weighted_l1", "weights": [float(w) for w in norm.weights]}
    if isinstance(norm, AdditiveNorm):
        return {"kind": "additive", "base": norm_to_config(norm.base),
                "H": subspace_to_config(norm.H), "K": subspace_to_config(norm.K)}
    raise ConfigError(f"norm {norm!r} has no config form")


def norm_from_config(cfg) -> VectorNorm:
    kind = kind_of(cfg, "norm", ("l1", "l2", "linf", "weighted_l1", "additive"))
    if kind == "weighted_l1":
        return WeightedL1(np.array([json_float(w, "weighted_l1 weight")
                                    for w in cfg.get("weights", [])]))
    if kind == "additive":
        return additive_norm(norm_from_config(require(cfg, "base", "norm")),
                             subspace_from_config(require(cfg, "H", "norm")),
                             subspace_from_config(require(cfg, "K", "norm")))
    return {"l1": L1, "l2": L2, "linf": LINF}[kind]


def subspace_to_config(S: Subspace) -> dict:
    return {"kind": "basis", "columns": to_jsonable(np.asarray(S.basis))}


def subspace_from_config(cfg) -> Subspace:
    kind = kind_of(cfg, "subspace", ("mean_zero", "full", "zero", "span", "basis"))
    if kind == "span":
        vecs = cfg.get("vectors", [])
        if not vecs:
            raise ConfigError("span subspace needs vectors")
        return Subspace.from_spanning(matrix_from_jsonable(vecs).T)
    if kind == "basis":
        return Subspace(matrix_from_jsonable(require(cfg, "columns", "subspace")))
    n = json_int(require(cfg, "n", "subspace"), "subspace 'n'")
    return {"mean_zero": mean_zero_subspace, "full": Subspace.full,
            "zero": Subspace.zero}[kind](n)


# ---------------------------------------------------------------------------
# Tail models
# ---------------------------------------------------------------------------

def tail_model_to_config(m: TailModel) -> dict:
    out = {"kind": m.kind}
    if m.kind == "p_series":
        out.update(amplitude=m.amplitude, exponent=m.exponent, side=m.side,
                   limit=m.limit)
    else:
        out["values"] = list(m.values)
    if m.kind == "explicit_prefix":
        out["tail"] = tail_model_to_config(m.tail) if m.tail else None
    return out


def tail_model_from_config(cfg) -> TailModel:
    kind = kind_of(cfg, "tail model", ("finite_support", "p_series", "constant",
                                       "periodic", "explicit_prefix"))

    def number(key, default=None):
        v = require(cfg, key, "tail model") if default is None else cfg.get(key, default)
        return json_float(v, f"tail model {key!r}")

    try:
        if kind == "p_series":
            return TailModel.p_series(number("amplitude"), number("exponent"),
                                      cfg.get("side", "above"), number("limit", 1.0))
        if kind == "constant":
            return TailModel.constant_value(number("value"))
        values = [json_float(v, "tail model 'values' entry") for v in
                  (require(cfg, "values", "tail model") if kind == "periodic"
                   else cfg.get("values", []))]
        if kind == "periodic":
            return TailModel.periodic(values)
        if kind == "finite_support":
            return TailModel.finite_support(values)
        tail = cfg.get("tail")
        return TailModel.with_prefix(values, tail_model_from_config(tail) if tail else None)
    except ConfigError:
        raise
    except ValueError as e:  # the model's own checks: finite, side, signs
        raise ConfigError(f"bad tail model config: {e}") from None


# ---------------------------------------------------------------------------
# Sequences and schedules
# ---------------------------------------------------------------------------

def sequence_from_config(cfg, base_dir: Path | None = None) -> MatrixSequence:
    kind = kind_of(cfg, "sequence", ("constant", "list", "periodic", "scaled"))
    if kind == "constant":
        return MatrixSequence.constant(
            matrix_from_config(require(cfg, "matrix", "sequence"), base_dir))
    if kind == "scaled":
        base = matrix_from_config(require(cfg, "matrix", "sequence"), base_dir)
        scale = tail_model_from_config(require(cfg, "scale", "sequence"))
        return MatrixSequence.scaled(base, scale, name=cfg.get("name", "scaled"))
    mats = [matrix_from_config(m, base_dir) for m in cfg.get("matrices", [])]
    if not mats:
        raise ConfigError(f"{kind} sequence needs matrices")
    make = MatrixSequence.from_list if kind == "list" else MatrixSequence.periodic
    return make(mats, name=cfg.get("name", kind))


def permutation_from_config(cfg) -> Permutation:
    if cfg is None:
        return Permutation()
    kind = kind_of(cfg, "permutation", ("identity", "prefix", "block_shuffle"))
    if kind == "prefix":
        return Permutation("prefix", prefix=tuple(
            json_int(v, "prefix value")
            for v in require(cfg, "values", "permutation")))
    if kind == "block_shuffle":
        return Permutation(
            "block_shuffle", block=json_int(cfg.get("block", 2), "permutation 'block'"),
            seed=json_int(cfg.get("seed", 0), "permutation 'seed'"))
    return Permutation()


def permutation_to_config(p: Permutation) -> dict:
    if p.kind == "identity":
        return {"kind": "identity"}
    if p.kind == "prefix":
        return {"kind": "prefix", "values": list(p.prefix)}
    return {"kind": "block_shuffle", "block": p.block, "seed": p.seed}


def ordering_from_config(cfg) -> Ordering:
    if cfg is None:
        return Ordering()
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    kind = kind_of(cfg, "ordering", ("left", "right", "random", "explicit"))
    if kind == "random":
        return Ordering("random", seed=json_int(cfg.get("seed", 0), "ordering 'seed'"))
    if kind == "explicit":
        return Ordering("explicit", orders=tuple(
            tuple(json_int(x, "ordering 'orders' entry") for x in row)
            for row in cfg.get("orders", [])))
    return Ordering(kind)


def ordering_to_config(o: Ordering) -> dict:
    if o.kind in ("left", "right"):
        return {"kind": o.kind}
    if o.kind == "random":
        return {"kind": "random", "seed": o.seed}
    return {"kind": "explicit", "orders": [list(row) for row in o.orders]}


def schedule_from_config(cfg) -> ProductSchedule:
    if not isinstance(cfg, dict):
        raise ConfigError("schedule config must be an object")
    return ProductSchedule(
        p=json_int(cfg.get("p", 0), "schedule 'p'"),
        permutation=permutation_from_config(cfg.get("permutation")),
        ordering=ordering_from_config(cfg.get("ordering")),
        label=cfg.get("label", ""))


def schedule_to_config(s: ProductSchedule) -> dict:
    return {"p": s.p, "permutation": permutation_to_config(s.permutation),
            "ordering": ordering_to_config(s.ordering), "label": s.label}


def diagnostics_to_csv_text(d: SeriesDiagnostics) -> str:
    """Running sums/products of a value list as plot-ready CSV."""
    cols = (d.values, d.plus_sums, d.minus_sums, d.plus_products,
            d.minus_products)
    return csv_text(["i", "value", "plus_sum", "minus_sum", "plus_product",
                     "minus_product"],
                    [[i, *row] for i, row in
                     enumerate(zip(*(c.tolist() for c in cols)), start=1)])
