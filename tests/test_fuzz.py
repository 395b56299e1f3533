"""Property-based fuzzing of the two input readers.

Every generated config document must give a ``SolverConfig`` or a
``ConfigError``, and every generated snapshot file a field or a
``SnapshotError``; any other exception fails the test.
"""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oldroydb.fields import SpectralField
from oldroydb.snapshots import SnapshotError, read_field
from oldroydb.solver import ConfigError, SolverConfig

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SCHEMA = SolverConfig().to_dict()

scalars = (st.none() | st.booleans() | st.integers(-3, 300) | st.integers()
           | st.floats() | st.text(max_size=6))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                      max_leaves=6)


def _objects(keys, leaf):
    """JSON objects whose keys are mostly the schema's own."""
    return st.dictionaries(st.sampled_from(sorted(keys)) | st.text(max_size=6), leaf,
                           max_size=len(keys))


config_docs = _objects(SCHEMA, values | _objects(SCHEMA["init"], values)
                       | _objects(SCHEMA["output"], values))


def _config_or_error(parse, arg):
    try:
        assert isinstance(parse(arg), SolverConfig)
    except ConfigError:
        pass


@FUZZ
@given(doc=config_docs)
def test_from_dict_gives_config_or_config_error(doc):
    _config_or_error(SolverConfig.from_dict, doc)


@FUZZ
@given(text=st.one_of(st.text(max_size=40), config_docs.map(json.dumps)))
@example(text="1" * 5000)
@example(text="[" * 100000)
def test_from_json_gives_config_or_config_error(text):
    _config_or_error(SolverConfig.from_json, text)


GOOD_HEADER = {"schema": "field-v1", "d": 2, "n": 16, "period": 6.283185307179586,
               "kind": "velocity", "components": 2}

headers = _objects(GOOD_HEADER, st.sampled_from(list(GOOD_HEADER.values())) | values)
payloads = (st.binary(max_size=64)
            | st.integers(0, 3 * 256).flatmap(lambda count: st.binary(
                min_size=8 * count, max_size=8 * count)))


def _field_or_error(path):
    try:
        assert isinstance(read_field(path), SpectralField)
    except SnapshotError:
        pass


@FUZZ
@given(header=headers, payload=payloads)
@example(header=GOOD_HEADER, payload=np.full(512, np.nan).tobytes())
@example(header={**GOOD_HEADER, "kind": ["velocity"]}, payload=bytes(8 * 512))
def test_read_field_gives_field_or_snapshot_error(tmp_path, header, payload):
    path = tmp_path / "f.field"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    _field_or_error(path)


@FUZZ
@given(data=st.binary(max_size=256))
@example(data=b"1" * 5000 + b"\n")
def test_read_field_of_arbitrary_bytes(tmp_path, data):
    path = tmp_path / "f.field"
    path.write_bytes(data)
    _field_or_error(path)

