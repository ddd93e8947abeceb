"""The canonical-JSON codec that every record goes through."""

import pytest

from hcanet import records
from hcanet.noise import NoiseSpec


def test_dumps_sorts_keys_without_whitespace_and_encodes_nested_dataclasses():
    doc = {"z": 1, "configs": {"noise": NoiseSpec(kind="case1", seed=3)}, "outputs": ("a", "b")}
    assert records.dumps(doc) == (
        '{"configs":{"noise":{"kind":"case1","seed":3,"sigma":70.0}},"outputs":["a","b"],"z":1}'
    )


def test_dumps_refuses_what_is_not_a_record():
    with pytest.raises(TypeError):
        records.dumps({"x": object()})


@pytest.mark.parametrize("fields", [[1, 2], "x", None, 3])
def test_build_needs_a_json_object(fields):
    with pytest.raises(TypeError):
        records.build(NoiseSpec, fields)


def test_write_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(b"x" * 4096)
    records.write(path, {"a": 1})
    assert path.read_bytes() == b'{"a":1}'
