"""The one writer for every CSV and JSON artifact.

CSV cells: ints and bools as ``str``, floats as ``repr`` (round-trip exact,
non-finite values as ``nan`` / ``inf``), anything else as ``str``.  JSON:
sorted keys, two-space indent, repr-exact floats, and non-finite floats
written as ``null`` so every file is strict JSON.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Table", "json_ready", "write_json", "write_csv"]

# A CSV artifact before it is written: (header, rows).
Table = tuple[tuple[str, ...], tuple[tuple, ...]]


def json_ready(value):
    """Recursively convert to plain JSON types; non-finite floats become null."""
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_ready(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def write_json(path: str | Path, payload: dict) -> None:
    text = json.dumps(json_ready(payload), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def _cell(cell) -> str:
    if isinstance(cell, (bool, np.bool_)):
        return str(bool(cell))
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    return str(cell)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        writer.writerows([_cell(c) for c in row] for row in rows)
