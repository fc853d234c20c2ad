"""Record-level behaviour shared by every :class:`repro.store.RecordStore`.

Each group below is a mixin of test methods written against a small
key adapter, so the same tests run over the serve result cache
(``tests/serve/test_cache.py``) and the golden checkpoint store
(``tests/core/test_snapshot.py``).  A test class combines one adapter
with the groups it wants; an adapter provides:

* ``open(root, salt)`` — a store under ``root``;
* ``put(store, n)`` / ``get(store, n)`` — write record ``n`` and read
  it back as ``n`` (or None on a miss);
* ``key(store, n)`` — the content key record ``n`` is stored under;
* ``put_unserialisable(store, n)`` — a write of record ``n`` whose
  JSON encoding raises ``TypeError``.
"""

import json
import os

import pytest


class _Fixtures:
    @pytest.fixture
    def store(self, tmp_path):
        return self.open(str(tmp_path / "store"), salt="test-salt")

    def path(self, store, n):
        return store.path_for(self.key(store, n))


class PutGet(_Fixtures):
    def test_round_trip(self, store):
        self.put(store, 1)
        assert self.get(store, 1) == 1
        assert store.stats.hits == 1 and store.stats.puts == 1

    def test_miss_on_unknown_spec(self, store):
        assert self.get(store, 99) is None
        assert store.stats.misses == 1

    def test_records_shard_by_digest_prefix(self, store):
        self.put(store, 1)
        key = self.key(store, 1)
        expected = os.path.join(store.root, key[:2], key + ".json")
        assert os.path.exists(expected)

    def test_len_and_digests(self, store):
        for n in range(3):
            self.put(store, n)
        assert len(store) == 3
        assert self.key(store, 0) in set(store.digests())


class Invalidation(_Fixtures):
    def test_salt_mismatch_invalidates_and_deletes(self, tmp_path):
        root = str(tmp_path / "store")
        self.put(self.open(root, salt="old-code"), 1)
        new = self.open(root, salt="new-code")
        assert self.get(new, 1) is None
        assert new.stats.invalidations == 1
        assert new.stats.misses == 1
        assert len(new) == 0  # stale record physically removed

    def test_corrupt_record_invalidated(self, store):
        self.put(store, 1)
        with open(self.path(store, 1), "w") as handle:
            handle.write("{truncated")
        assert self.get(store, 1) is None
        assert store.stats.invalidations == 1
        assert store.stats.corrupt == 1

    def test_truncated_record_counted_as_corrupt(self, store):
        # Simulate a torn write (power loss mid-record): keep the first
        # half of the bytes.  Must read as a miss, not an exception.
        self.put(store, 1)
        path = self.path(store, 1)
        size = os.path.getsize(path)
        with open(path, "r+") as handle:
            handle.truncate(size // 2)
        assert self.get(store, 1) is None
        assert store.stats.corrupt == 1
        assert store.stats.invalidations == 1
        assert not os.path.exists(path)  # quarantined record removed
        # A recompute-and-put round-trips cleanly afterwards.
        self.put(store, 1)
        assert self.get(store, 1) == 1

    def test_non_dict_record_counted_as_corrupt(self, store):
        self.put(store, 1)
        with open(self.path(store, 1), "w") as handle:
            json.dump(["not", "a", "record"], handle)
        assert self.get(store, 1) is None
        assert store.stats.corrupt == 1

    def test_salt_mismatch_is_not_corruption(self, tmp_path):
        root = str(tmp_path / "store")
        self.put(self.open(root, salt="old-code"), 1)
        new = self.open(root, salt="new-code")
        assert self.get(new, 1) is None
        assert new.stats.invalidations == 1
        assert new.stats.corrupt == 0  # well-formed, just stale

    def test_digest_mismatch_invalidated(self, store):
        # A record renamed onto the wrong key must not be served.
        self.put(store, 1)
        wrong = self.path(store, 2)
        os.makedirs(os.path.dirname(wrong), exist_ok=True)
        os.replace(self.path(store, 1), wrong)
        assert self.get(store, 2) is None
        assert store.stats.invalidations == 1

    def test_schema_bump_invalidates(self, store):
        self.put(store, 1)
        path = self.path(store, 1)
        with open(path) as handle:
            record = json.load(handle)
        record["schema"] = 0
        with open(path, "w") as handle:
            json.dump(record, handle)
        assert self.get(store, 1) is None
        assert store.stats.invalidations == 1
        assert store.stats.corrupt == 0


class AtomicPut(_Fixtures):
    def test_no_temp_droppings_after_put(self, store):
        self.put(store, 1)
        leftovers = [name for _, _, names in os.walk(store.root)
                     for name in names if not name.endswith(".json")]
        assert leftovers == []

    def test_failed_put_leaves_no_partial_record(self, store):
        with pytest.raises(TypeError):
            self.put_unserialisable(store, 1)
        path = self.path(store, 1)
        assert not os.path.exists(path)
        shard = os.path.dirname(path)
        if os.path.isdir(shard):
            assert os.listdir(shard) == []  # temp file cleaned up
        assert self.get(store, 1) is None


class Stats(_Fixtures):
    def test_hit_rate(self, store):
        self.put(store, 1)
        self.get(store, 1)
        self.get(store, 2)
        assert store.stats.hit_rate == pytest.approx(0.5)
        rendered = store.stats.as_dict()
        assert rendered["hits"] == 1 and rendered["misses"] == 1

    def test_empty_stats_do_not_divide_by_zero(self, store):
        assert store.stats.hit_rate == 0.0


class RecordContract(PutGet, Invalidation, AtomicPut, Stats):
    """Every group at once."""
