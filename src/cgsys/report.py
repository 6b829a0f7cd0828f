"""Deterministic report documents and their canonical JSON encoding.

Reports are plain dictionaries with the shape

    {version, input_digest, checks: [{name, paper_anchor, max_residual,
     tolerance, pass, points}], verdict}

plus optional extras (classification flags, per-query records, profile
tables).  The serializer sorts keys and prints every float with 17
significant digits, so identical seed and configuration produce
byte-identical files; the shipped report_schema.json validates the layout.
Records may be handed over by column (``RecordColumns``); they are written
as the same text as the list of their rows.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPORT_VERSION = "0.1.0"

__all__ = [
    "REPORT_VERSION", "input_digest", "check_entry", "build_document",
    "canonical_json", "write_report", "schema_text", "RecordColumns",
]


def input_digest(text: str) -> str:
    """Stable content digest of the input definition."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_entry(name: str, anchor: str, max_residual: float, tolerance: float,
                points: int) -> dict:
    """One check of a report; it passes where max_residual < tolerance (a
    NaN residual fails)."""
    return {
        "name": name,
        "paper_anchor": anchor,
        "max_residual": float(max_residual),
        "tolerance": float(tolerance),
        "pass": bool(max_residual < tolerance),
        "points": int(points),
    }


def build_document(digest: str, checks: list[dict], **extras) -> dict:
    doc = {
        "version": REPORT_VERSION,
        "input_digest": digest,
        "checks": checks,
        "verdict": "pass" if all(c["pass"] for c in checks) else "fail",
    }
    for key, value in extras.items():
        if value is not None:
            doc[key] = value
    return doc


_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def _bracketed(parts: list[str], shape) -> str:
    """The texts ``parts`` of an array of ``shape`` (row-major, at least one)
    as nested JSON lists."""
    for n in reversed(shape):
        parts = ["[" + ", ".join(parts[i:i + n]) + "]" for i in range(0, len(parts), n)]
    return parts[0]


def _encode_floats(a: np.ndarray) -> str:
    """A float array in one pass: every value formatted at once (NaN and
    infinities as null), then the brackets of each axis."""
    parts = list(map("%.17g".__mod__, a.ravel().tolist()))
    if a.ndim == 1:
        text = "[" + ", ".join(parts) + "]"
        if "n" not in text:          # no finite value prints an 'n'
            return text
    return _bracketed(["null" if t in _NON_FINITE else t for t in parts], a.shape)


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """A list of report records stored by column.

    Record i is the object of the keys of ``shared`` and, where ``ok[i]``,
    of ``ok_only``, else of ``refused_only``, each valued at entry i of its
    column.  A column is an array whose first axis runs over the records, or
    a list; the records encode as the list of their objects."""

    ok: np.ndarray
    shared: dict
    ok_only: dict
    refused_only: dict

    def row(self, i: int) -> dict:
        layout = {**self.shared, **(self.ok_only if self.ok[i] else self.refused_only)}
        return {key: column[i] for key, column in layout.items()}


# the %-slot of one value of an ok record's column, by dtype kind
_SLOTS = {"f": "%.17g", "i": "%d", "b": "%s"}


def _encode_records(records: RecordColumns) -> str:
    """The records as ``_encode`` writes the list of their objects.  The ok
    rows whose floats are all finite go through one %-template of the ok
    layout, keys in sorted order (floats %.17g, integers %d); every other
    row is encoded value by value, so its NaN and infinities become null."""
    ok = np.asarray(records.ok, dtype=bool)
    parts = [None] * len(ok)
    rows = np.flatnonzero(ok)
    layout = {**records.shared, **records.ok_only}
    fields, blocks = [], []
    finite = np.ones(len(rows), dtype=bool)
    for key in sorted(layout):
        column = np.asarray(layout[key])[rows]
        slot = _SLOTS[column.dtype.kind]
        shape, size = column.shape[1:], math.prod(column.shape[1:])
        fields.append(f"{_str_key(key).replace('%', '%%')}: {_bracketed([slot] * size, shape)}")
        block = column.reshape(len(rows), size)
        if slot == "%.17g":
            finite &= np.isfinite(block).all(axis=1)
        elif slot == "%s":
            block = np.where(block, "true", "false")
        blocks.append(block)
    template = "{" + ", ".join(fields) + "}"
    values = np.concatenate([block.astype(object) for block in blocks], axis=1)
    for i, row in zip(rows[finite].tolist(), values[finite].tolist()):
        parts[i] = template % tuple(row)
    for i, text in enumerate(parts):
        if text is None:
            parts[i] = _encode(records.row(i))
    return "[" + ", ".join(parts) + "]"


@functools.lru_cache(maxsize=1024)
def _str_key(k: str) -> str:
    return json.dumps(k)


def _encode(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{_str_key(k) if type(k) is str else json.dumps(k)}: {_encode(v)}"
            for k, v in sorted(obj.items())) + "}"
    # float64 arrays in one pass; lists, of floats too, item by item to the same text
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim and obj.size:
        return _encode_floats(obj)
    if isinstance(obj, (np.ndarray, list, tuple)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not isinstance(items, (list, tuple)):
            raise TypeError(f"cannot encode {type(items).__name__} in a report")
        return "[" + ", ".join(_encode(v) for v in items) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, RecordColumns):
        return _encode_records(obj)
    raise TypeError(f"cannot encode {type(obj).__name__} in a report")


def canonical_json(doc) -> str:
    """Sorted keys, 17-significant-digit floats, newline-terminated."""
    return _encode(doc) + "\n"


def write_report(doc, path) -> None:
    Path(path).write_text(canonical_json(doc), encoding="utf-8")


def schema_text() -> str:
    res = importlib.resources.files("cgsys").joinpath("report_schema.json")
    return res.read_text(encoding="utf-8")
