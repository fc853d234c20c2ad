"""The content-addressed record store and its durable writer.

Record-level behaviour runs over both real stores through
:mod:`tests.store_contract`; this module covers what neither adapter
shows: the record layout, the writer's output and the one salt.
"""

import json
import os

import pytest

import repro.serve.cache
from repro.store import RecordStore, code_salt, write_json

KEY = "ab" * 32


@pytest.fixture
def store(tmp_path):
    return RecordStore(str(tmp_path / "store"), schema=1, salt="test-salt")


class TestRecordStore:
    def test_extras_ride_along_and_are_not_read_back(self, store):
        store.write(KEY, {"value": 1}, job={"kind": "probe"})
        with open(store.path_for(KEY)) as handle:
            record = json.load(handle)
        assert record == {"schema": 1, "salt": "test-salt", "key": KEY,
                          "payload": {"value": 1},
                          "job": {"kind": "probe"}}
        assert store.read(KEY) == {"value": 1}

    def test_current_record_without_payload_is_corrupt(self, store):
        store.write(KEY, {"value": 1})
        path = store.path_for(KEY)
        with open(path) as handle:
            record = json.load(handle)
        del record["payload"]
        with open(path, "w") as handle:
            json.dump(record, handle)
        assert store.read(KEY) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(path)


class TestWriteJson:
    def test_compact_sorted_with_newline(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(path, {"b": 1, "a": [1, 2]})
        with open(path) as handle:
            assert handle.read() == '{"a":[1,2],"b":1}\n'

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(path, {"old": True})
        with pytest.raises(TypeError):
            write_json(path, {"new": object()})
        assert os.listdir(str(tmp_path)) == ["out.json"]
        with open(path) as handle:
            assert json.load(handle) == {"old": True}


def test_one_salt_for_every_store():
    assert repro.serve.cache.code_salt is code_salt
