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


def _get(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where} config is missing required key {key!r}")
    return cfg[key]


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def _json_float(v) -> float | str:
    """A float for strict JSON: finite as is, else "inf", "-inf" or "nan"."""
    v = float(v)
    return v if math.isfinite(v) else str(v)


def matrix_to_jsonable(A) -> list:
    A = np.asarray(A)
    if np.iscomplexobj(A):
        return [[[_json_float(v.real), _json_float(v.imag)] for v in row] for row in A]
    return [[_json_float(v) for v in row] for row in A]


def matrix_from_jsonable(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError("matrix must be a nonempty list of rows")
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
                A[i, j] = complex(float(v[0]), float(v[1]))
            else:
                A[i, j] = float(v)
    return A


def vector_from_jsonable(obj) -> np.ndarray:
    """A vector in the matrix entry format: reals and [re, im] pairs."""
    if not isinstance(obj, list):
        raise ConfigError("vector must be a list of entries")
    return matrix_from_jsonable([obj])[0]


def save_matrix_json(A, path) -> None:
    Path(path).write_text(json.dumps(matrix_to_jsonable(A)) + "\n",
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
    return csv_text(["n", str(A.shape[0])],
                    [[float(v) for v in row] for row in A])


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
        if path.suffix.lower() == ".csv":
            return load_matrix_csv(path)
        return load_matrix_json(path)
    return as_matrix(matrix_from_jsonable(obj))


# ---------------------------------------------------------------------------
# Generic report serialization
# ---------------------------------------------------------------------------

def to_jsonable(obj: Any) -> Any:
    """Dataclasses, arrays, containers and numpy scalars to plain JSON values.

    Non-finite floats become the strings "inf", "-inf" and "nan", so the
    result serializes as strict JSON.  The verdict enums are str enums and
    pass through as strings; a NamedTuple is a tuple and becomes a list.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else _json_float(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return to_jsonable(obj.item())
    if isinstance(obj, complex):
        return [_json_float(obj.real), _json_float(obj.imag)]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return matrix_to_jsonable(obj)
        if np.iscomplexobj(obj):
            return [[_json_float(v.real), _json_float(v.imag)] for v in obj]
        return [_json_float(v) for v in obj] if obj.dtype.kind == "f" \
            else [int(v) for v in obj]
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
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("norm config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind == "l1":
        return L1
    if kind == "l2":
        return L2
    if kind == "linf":
        return LINF
    if kind == "weighted_l1":
        return WeightedL1(np.asarray(cfg.get("weights", []), dtype=float))
    if kind == "additive":
        return additive_norm(norm_from_config(_get(cfg, "base", "norm")),
                             subspace_from_config(_get(cfg, "H", "norm")),
                             subspace_from_config(_get(cfg, "K", "norm")))
    raise ConfigError(f"unknown norm kind {kind!r}")


def subspace_to_config(S: Subspace) -> dict:
    return {"kind": "basis",
            "columns": matrix_to_jsonable(np.asarray(S.basis))}


def subspace_from_config(cfg) -> Subspace:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("subspace config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind == "mean_zero":
        return mean_zero_subspace(int(_get(cfg, "n", "subspace")))
    if kind == "full":
        return Subspace.full(int(_get(cfg, "n", "subspace")))
    if kind == "zero":
        return Subspace.zero(int(_get(cfg, "n", "subspace")))
    if kind == "span":
        vecs = cfg.get("vectors", [])
        if not vecs:
            raise ConfigError("span subspace needs vectors")
        return Subspace.from_spanning(matrix_from_jsonable(vecs).T)
    if kind == "basis":
        return Subspace(matrix_from_jsonable(_get(cfg, "columns", "subspace")))
    raise ConfigError(f"unknown subspace kind {kind!r}")


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
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("tail model config must be an object with a 'kind'")
    kind = cfg["kind"]
    try:
        if kind == "finite_support":
            return TailModel.finite_support(cfg.get("values", []))
        if kind == "p_series":
            return TailModel.p_series(cfg["amplitude"], cfg["exponent"],
                                      cfg.get("side", "above"),
                                      cfg.get("limit", 1.0))
        if kind == "constant":
            return TailModel.constant_value(cfg["value"])
        if kind == "periodic":
            return TailModel.periodic(cfg["values"])
        if kind == "explicit_prefix":
            tail = cfg.get("tail")
            return TailModel.with_prefix(
                cfg.get("values", []),
                tail_model_from_config(tail) if tail else None)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad tail model config: {e}") from None
    raise ConfigError(f"unknown tail model kind {kind!r}")


# ---------------------------------------------------------------------------
# Sequences and schedules
# ---------------------------------------------------------------------------

def sequence_from_config(cfg, base_dir: Path | None = None) -> MatrixSequence:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("sequence config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind == "constant":
        return MatrixSequence.constant(
            matrix_from_config(_get(cfg, "matrix", "sequence"), base_dir))
    if kind == "list":
        mats = [matrix_from_config(m, base_dir) for m in cfg.get("matrices", [])]
        if not mats:
            raise ConfigError("list sequence needs matrices")
        return MatrixSequence.from_list(mats, name=cfg.get("name", "list"))
    if kind == "periodic":
        mats = [matrix_from_config(m, base_dir) for m in cfg.get("matrices", [])]
        if not mats:
            raise ConfigError("periodic sequence needs matrices")
        return MatrixSequence.periodic(mats, name=cfg.get("name", "periodic"))
    if kind == "scaled":
        base = matrix_from_config(_get(cfg, "matrix", "sequence"), base_dir)
        scale = tail_model_from_config(_get(cfg, "scale", "sequence"))
        return MatrixSequence.scaled(base, scale, name=cfg.get("name", "scaled"))
    raise ConfigError(f"unknown sequence kind {kind!r}")


def permutation_from_config(cfg) -> Permutation:
    if cfg is None:
        return Permutation()
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("permutation config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind == "identity":
        return Permutation()
    if kind == "prefix":
        return Permutation("prefix", prefix=tuple(
            int(v) for v in _get(cfg, "values", "permutation")))
    if kind == "block_shuffle":
        return Permutation("block_shuffle", block=int(cfg.get("block", 2)),
                           seed=int(cfg.get("seed", 0)))
    raise ConfigError(f"unknown permutation kind {kind!r}")


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
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("ordering config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind in ("left", "right"):
        return Ordering(kind)
    if kind == "random":
        return Ordering("random", seed=int(cfg.get("seed", 0)))
    if kind == "explicit":
        return Ordering("explicit", orders=tuple(
            tuple(int(x) for x in row) for row in cfg.get("orders", [])))
    raise ConfigError(f"unknown ordering kind {kind!r}")


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
        p=int(cfg.get("p", 0)),
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
