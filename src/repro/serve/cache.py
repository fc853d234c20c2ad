"""Content-addressed on-disk result cache: a :class:`~repro.store.RecordStore`
keyed by job digest, whose records also carry the job's canonical
description (for debuggability and `repro-serve verify`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ServeError
from repro.serve.jobspec import JobSpec
from repro.store import CacheStats, RecordStore, code_salt

__all__ = ["CACHE_SCHEMA_VERSION", "CacheStats", "ResultCache", "code_salt"]

#: Version of the on-disk record schema; a mismatch invalidates.
CACHE_SCHEMA_VERSION = 2


class ResultCache(RecordStore):
    """Content-addressed store of deterministic job results."""

    def __init__(self, root: str, salt: Optional[str] = None):
        super().__init__(root, CACHE_SCHEMA_VERSION, salt)

    def get(self, spec: JobSpec) -> Optional[Dict[str, object]]:
        """The cached payload for ``spec``, or None (miss/invalidated)."""
        return self.read(spec.digest())

    def peek(self, digest: str) -> Optional[Dict[str, object]]:
        """The payload stored under a raw job ``digest``, or None.

        This is the daemon's cache-peek endpoint: clients hold job
        digests, not specs.
        """
        return self.read(digest)

    def put(self, spec: JobSpec, payload: Dict[str, object]) -> None:
        """Store a deterministic result payload for ``spec``."""
        if payload is None:
            raise ServeError("refusing to cache an empty payload")
        self.write(spec.digest(), payload, job=spec.canonical())
