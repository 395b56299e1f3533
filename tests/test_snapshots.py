import json
import types

import numpy as np
import pytest

from oldroydb import snapshots
from oldroydb.fields import random_scalar, random_sym_tensor, random_vector
from oldroydb.grid import TorusGrid
from oldroydb.operators import leray_project
from oldroydb.snapshots import SnapshotError, read_field, write_field


@pytest.mark.parametrize("maker,kind", [
    (random_scalar, "scalar"),
    (lambda g, r: leray_project(random_vector(g, r)), "velocity"),
    (random_sym_tensor, "stress"),
])
def test_roundtrip(tmp_path, rng, maker, kind):
    grid = TorusGrid(2, 32)
    field = maker(grid, rng)
    path = tmp_path / f"{kind}.field"
    write_field(path, field)
    back = read_field(path)
    assert back.kind == kind
    assert back.grid == grid
    np.testing.assert_allclose(back.coeffs, field.coeffs, atol=1e-14)


def test_roundtrip_three_dimensional(tmp_path, rng):
    grid = TorusGrid(3, 16)
    tau = random_sym_tensor(grid, rng)
    path = tmp_path / "tau.field"
    write_field(path, tau)
    back = read_field(path)
    assert back.ncomp == 6
    np.testing.assert_allclose(back.coeffs, tau.coeffs, atol=1e-14)


def test_header_is_one_json_line(tmp_path, rng):
    grid = TorusGrid(2, 16)
    field = random_scalar(grid, rng)
    path = tmp_path / "f.field"
    write_field(path, field)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    assert header["schema"] == "field-v1"
    assert header["kind"] == "scalar"
    assert header["components"] == 1
    assert len(payload) == grid.n**2 * 8
    # little-endian float64 payload reproduces the physical samples
    arr = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    np.testing.assert_allclose(arr, field.to_physical()[0], atol=0)


def test_bad_schema_rejected(tmp_path):
    path = tmp_path / "bad.field"
    path.write_bytes(b'{"schema": "other"}\n')
    with pytest.raises(SnapshotError):
        read_field(path)


def test_truncated_payload_rejected(tmp_path, rng):
    grid = TorusGrid(2, 16)
    field = random_scalar(grid, rng)
    path = tmp_path / "f.field"
    write_field(path, field)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(SnapshotError):
        read_field(path)


def test_payload_cut_after_the_size_check_rejected(tmp_path, rng, monkeypatch):
    # a file that loses its tail between the size check and the read
    grid = TorusGrid(2, 16)
    path = tmp_path / "f.field"
    write_field(path, random_scalar(grid, rng))
    full_size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-16])
    monkeypatch.setattr(snapshots.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=full_size))
    with pytest.raises(SnapshotError, match="truncated"):
        read_field(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_payload_rejected(tmp_path, bad):
    path = tmp_path / "bad.field"
    header = {"schema": "field-v1", "d": 2, "n": 16, "period": 6.283185307179586,
              "kind": "scalar", "components": 1}
    payload = np.zeros(256)
    payload[17] = bad
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload.tobytes())
    with pytest.raises(SnapshotError):
        read_field(path)


def test_component_count_mismatch(tmp_path):
    path = tmp_path / "bad.field"
    header = {"schema": "field-v1", "d": 2, "n": 16, "period": 6.283185307179586,
              "kind": "velocity", "components": 3}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * (3 * 256 * 8))
    with pytest.raises(SnapshotError):
        read_field(path)


GOOD_HEADER = {"schema": "field-v1", "d": 2, "n": 16, "period": 6.283185307179586,
               "kind": "velocity", "components": 2}


def _without(key):
    return {k: v for k, v in GOOD_HEADER.items() if k != key}


@pytest.mark.parametrize("header", [
    [1],
    _without("d"),
    {**GOOD_HEADER, "d": "two"},
    {**GOOD_HEADER, "d": 4},
    _without("n"),
    {**GOOD_HEADER, "n": 16.5},
    {**GOOD_HEADER, "n": 12},
    {**GOOD_HEADER, "n": 2**40},
    _without("components"),
    {**GOOD_HEADER, "components": 2.5},
    {**GOOD_HEADER, "period": float("inf")},
    {**GOOD_HEADER, "period": float("nan")},
    {**GOOD_HEADER, "period": "2pi"},
    {**GOOD_HEADER, "period": 10**400},
    {**GOOD_HEADER, "period": 1e300},
    {**GOOD_HEADER, "period": 1e-300},
], ids=["not-object", "missing-d", "string-d", "d-4", "missing-n", "fractional-n",
        "n-not-power-of-two", "huge-n", "missing-components", "fractional-components",
        "inf-period", "nan-period", "string-period", "huge-period",
        "volume-overflows-period", "wavenumbers-overflow-period"])
def test_malformed_header_rejected(tmp_path, header):
    path = tmp_path / "bad.field"
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * (2 * 256 * 8))
    with pytest.raises(SnapshotError):
        read_field(path)
