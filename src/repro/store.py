"""Content-addressed JSON records: one digest, one code salt, one writer.

Every on-disk store in the package — the serve result cache
(:class:`repro.serve.cache.ResultCache`), the golden checkpoint-stream
store (:class:`repro.core.snapshot.CheckpointStore`) — and the serve
daemon's spool build on this module, which sits below every layer and
uses only the standard library.

* :func:`canonical_digest` is the one content key: SHA-256 of an object
  rendered as canonical JSON (sorted keys, no whitespace).
* :func:`code_salt` hashes every ``*.py`` source file of the package,
  so any code change — a timing-model tweak, a scheduler fix —
  invalidates every stored record.  That is deliberately aggressive:
  correctness of replayed results is worth more than store longevity.
* :func:`write_json` is the one durable writer: temp file, flush,
  fsync, atomic rename.
* :class:`RecordStore` is the one record layout and the one read-side
  validator: a record whose schema, salt or key no longer matches is
  *invalidated* on read — counted, deleted, and treated as a miss — so
  a stale record is never replayed as fresh.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

_code_salt_cache: Optional[str] = None


def canonical_digest(obj: object) -> str:
    """SHA-256 hex digest of ``obj`` as canonical JSON."""
    rendered = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def code_salt() -> str:
    """Digest of the repro package's source tree (memoised).

    Stable across processes and platforms for identical sources: files
    are hashed in sorted relative-path order with their contents.
    """
    global _code_salt_cache
    if _code_salt_cache is None:
        package_root = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.sha256()
        for directory, _, filenames in sorted(os.walk(package_root)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                relative = os.path.relpath(path, package_root)
                digest.update(relative.replace(os.sep, "/").encode())
                digest.update(b"\x00")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
                digest.update(b"\x00")
        _code_salt_cache = digest.hexdigest()
    return _code_salt_cache


def write_json(path: str, obj: object) -> None:
    """Write ``obj`` to ``path`` as compact sorted JSON, crash-safely.

    The bytes go to a process-private temp file, which is flushed and
    fsynced, then atomically renamed onto ``path``.  A
    process killed at any instant leaves the old file, the new file, or
    a stray ``*.tmp.<pid>`` file no reader looks at — never a truncated
    file on the live path.  The temp file is removed when the write
    raises (an unserialisable value, a full disk).
    """
    temporary = path + f".tmp.{os.getpid()}"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:
            pass
        raise


@dataclass
class CacheStats:
    """Read/write accounting for one :class:`RecordStore` session.

    ``invalidations`` counts every record deleted on read;
    ``corrupt`` is the subset caused by *corruption* (truncated or
    unparsable records — e.g. a writer killed mid-write on a
    filesystem without atomic replace) as opposed to salt/schema/key
    mismatches, which are expected whenever the code changes.  A
    non-zero ``corrupt`` under the atomic writer points at real
    storage trouble and is worth alerting on.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidations: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalidations": self.invalidations,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 4),
        }


class RecordStore:
    """Content-addressed JSON records under one root directory.

    One record per key under ``<root>/<key[:2]>/<key>.json``, holding
    ``schema`` (the record layout version of one store kind), ``salt``
    (default :func:`code_salt`), ``key``, ``payload`` and any debugging
    extras.  Subclasses map their own keys and payloads onto
    :meth:`read` and :meth:`write`.
    """

    def __init__(self, root: str, schema: int, salt: Optional[str] = None):
        self.root = root
        self.schema = schema
        self.salt = code_salt() if salt is None else salt
        self.stats = CacheStats()
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def read(self, key: str, decode=None) -> Optional[object]:
        """The payload stored under ``key``, or None.

        A record that cannot be parsed, or is not a record, is
        invalidated as corrupt; one whose schema, salt or key no longer
        match is invalidated as stale.  Both read as a miss.  ``decode``,
        if given, turns the payload into what is returned and raises
        ``KeyError``, ``IndexError``, ``TypeError`` or ``ValueError`` on
        a payload that does not hold; such a record is corrupt too.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            record = None
        if not isinstance(record, dict):
            self._invalidate(path, corrupt=True)
            return None
        if (record.get("schema") != self.schema
                or record.get("salt") != self.salt
                or record.get("key") != key):
            self._invalidate(path)
            return None
        if "payload" not in record:
            self._invalidate(path, corrupt=True)
            return None
        payload = record["payload"]
        if decode is not None:
            try:
                payload = decode(payload)
            except (KeyError, IndexError, TypeError, ValueError):
                self._invalidate(path, corrupt=True)
                return None
        self.stats.hits += 1
        return payload

    def _invalidate(self, path: str, corrupt: bool = False) -> None:
        self.stats.invalidations += 1
        if corrupt:
            self.stats.corrupt += 1
        self.stats.misses += 1
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - already gone / read-only
            pass

    def write(self, key: str, payload: object, **extra: object) -> None:
        """Store ``payload`` under ``key``; ``extra`` fields ride along
        for debugging and are never read back."""
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json(path, dict(extra, schema=self.schema, salt=self.salt,
                              key=key, payload=payload))
        self.stats.puts += 1

    def digests(self) -> Iterator[str]:
        """Keys of every record currently on disk."""
        for directory, _, filenames in os.walk(self.root):
            for filename in sorted(filenames):
                if filename.endswith(".json"):
                    yield filename[:-len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())
