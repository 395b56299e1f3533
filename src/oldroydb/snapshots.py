"""Field snapshot files: a JSON header line plus raw float64 arrays.

Layout of a ``field-v1`` file: one UTF-8 JSON line

    {"schema": "field-v1", "d": ..., "n": ..., "period": ..., "kind": ...,
     "components": ...}

terminated by a newline, followed by the physical-space samples of each
component in order (component-major), each a C-order little-endian float64
array of shape (n, ..., n).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .fields import FIELD_KINDS, FieldError, SpectralField
from .grid import GridError, TorusGrid

SCHEMA = "field-v1"


class SnapshotError(IOError):
    """Malformed or inconsistent snapshot file."""


def write_field(path, field: SpectralField) -> None:
    if field.kind not in FIELD_KINDS:
        raise SnapshotError(f"kind {field.kind!r} has no snapshot representation")
    grid = field.grid
    header = {
        "schema": SCHEMA,
        "d": grid.d,
        "n": grid.n,
        "period": grid.period,
        "kind": field.kind,
        "components": field.ncomp,
    }
    phys = field.to_physical()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for c in range(field.ncomp):
            fh.write(np.ascontiguousarray(phys[c], dtype="<f8").tobytes())


def _header_int(header: dict, key: str) -> int:
    """An integer-valued header entry; 2.0 is accepted, 2.7, "2" and a gap are not."""
    value = header.get(key)
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise SnapshotError(f"header entry {key!r} must be an integer, got {value!r}")
    return int(value)


def read_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and over-long integers
            raise SnapshotError(f"bad snapshot header: {exc}") from exc
        if not isinstance(header, dict):
            raise SnapshotError(f"snapshot header must be a JSON object, got {header!r}")
        if header.get("schema") != SCHEMA:
            raise SnapshotError(f"unknown schema {header.get('schema')!r}")
        kind = header.get("kind")
        cls = FIELD_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise SnapshotError(f"unknown field kind {kind!r}")
        d, n = _header_int(header, "d"), _header_int(header, "n")
        period = header.get("period", 2.0 * np.pi)
        if type(period) not in (int, float) or not -np.inf < period < np.inf:
            raise SnapshotError(f"period must be a finite number, got {period!r}")
        if d not in (2, 3):
            raise SnapshotError(f"dimension must be 2 or 3, got {d}")
        ncomp = cls.ncomp_for(d)
        components = _header_int(header, "components")
        if components != ncomp:
            raise SnapshotError(
                f"component count {components} does not match "
                f"kind {kind!r} in dimension {d} (expected {ncomp})"
            )
        # the payload must be there before the grid allocates n**d points
        count = ncomp * n**d
        if 8 * count > os.fstat(fh.fileno()).st_size - fh.tell():
            raise SnapshotError("truncated snapshot payload")
        try:
            grid = TorusGrid(d, n, period)
        except GridError as exc:
            raise SnapshotError(f"bad snapshot grid: {exc}") from exc
        # straight into the array, with no bytes object in between
        raw = np.empty(count, dtype="<f8")
        if fh.readinto(raw) != raw.nbytes:
            raise SnapshotError("truncated snapshot payload")
    if not np.all(np.isfinite(raw)):
        raise SnapshotError("non-finite sample in snapshot payload")
    phys = raw.reshape((ncomp,) + grid.shape)
    try:
        return cls.from_physical(grid, phys)
    except FieldError as exc:
        raise SnapshotError(str(exc)) from exc
