"""The content-addressed result cache: hits, misses, invalidation.

Record-level behaviour is the shared :mod:`tests.store_contract`; this
module adds the cache's own job keying, payload rules and peek.
"""

import pytest

from repro.errors import ServeError
from repro.serve import JobSpec, ResultCache, code_salt
from tests import store_contract


def probe(seed=0):
    return JobSpec(kind="probe", behavior="ok", seed=seed)


class ResultKeys:
    """Record ``n`` is ``{"value": n}`` under ``probe(n)``."""

    def open(self, root, salt):
        return ResultCache(root, salt=salt)

    def put(self, store, n):
        store.put(probe(n), {"value": n})

    def get(self, store, n):
        payload = store.get(probe(n))
        return None if payload is None else payload["value"]

    def key(self, store, n):
        return probe(n).digest()

    def put_unserialisable(self, store, n):
        class Unserialisable:
            pass

        store.put(probe(n), {"value": Unserialisable()})


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"), salt="test-salt")


class TestPutGet(ResultKeys, store_contract.PutGet):
    def test_empty_payload_refused(self, cache):
        with pytest.raises(ServeError):
            cache.put(probe(1), None)


class TestInvalidation(ResultKeys, store_contract.Invalidation):
    pass


class TestPeek:
    def test_peek_by_raw_digest(self, cache):
        spec = probe(1)
        cache.put(spec, {"value": 1})
        assert cache.peek(spec.digest()) == {"value": 1}
        assert cache.stats.hits == 1

    def test_peek_unknown_digest_is_a_miss(self, cache):
        assert cache.peek("0" * 64) is None
        assert cache.stats.misses == 1


class TestAtomicPut(ResultKeys, store_contract.AtomicPut):
    pass


class TestStats(ResultKeys, store_contract.Stats):
    pass


class TestCodeSalt:
    def test_memoised_and_hexadecimal(self):
        salt = code_salt()
        assert salt == code_salt()
        assert len(salt) == 64
        int(salt, 16)

    def test_default_cache_salt_is_code_salt(self, tmp_path):
        assert ResultCache(str(tmp_path / "c")).salt == code_salt()
