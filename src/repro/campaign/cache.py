"""Content-addressed on-disk result cache for campaign cells.

A cell's cache key is the SHA-256 of the canonical JSON of everything that
determines its simulated timeline:

* the full :class:`~repro.config.SystemConfig` as a nested dict — minus the
  ``obs`` section, which is documented (and property-tested) to be
  timeline-neutral, so toggling instrumentation never invalidates results;
* the workload id and seed;
* a code version: a content hash over every ``.py`` file of the installed
  ``repro`` package, so any source change invalidates every cached cell.

Entries are written atomically (temp file + ``os.replace``) so concurrent
campaigns sharing a cache directory never observe torn JSON; a corrupt or
unreadable entry is treated as a miss and recomputed.  Only the campaign
*parent* process reads and writes the cache — workers just simulate — so
there is no cross-process locking to get wrong.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Optional

from ..config import SystemConfig


def canonical_config_doc(config: SystemConfig) -> dict:
    """The config as a canonical nested dict (cache-key input).

    The ``obs`` section is excluded: observability is timeline-neutral by
    contract, and campaign workers run with instruments off regardless.
    """
    doc = dataclasses.asdict(config)
    doc.pop("obs", None)
    return doc


@lru_cache(maxsize=1)
def code_version() -> str:
    """Content hash of the installed ``repro`` package sources."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_key(workload: str, seed: int, config: SystemConfig) -> str:
    """Content address of one campaign cell's result."""
    doc = {
        "workload": workload,
        "seed": seed,
        "config": canonical_config_doc(config),
        "code": code_version(),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Sharded key→document store under one cache directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str, ext: str) -> Path:
        return self.root / key[:2] / (key + ext)

    def _read(self, key: str, ext: str) -> Optional[bytes]:
        try:
            blob = self._path(key, ext).read_bytes()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return blob

    def _write(self, key: str, ext: str, blob: bytes) -> None:
        path = self._path(key, ext)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------- JSON documents

    def get(self, key: str) -> Optional[dict]:
        """The cached JSON document for ``key``, or None (counted a miss)."""
        blob = self._read(key, ".json")
        if blob is None:
            return None
        try:
            return json.loads(blob.decode("utf-8"))
        except ValueError:
            # Corrupt entry: recompute (the next put overwrites it).
            self.hits -= 1
            self.misses += 1
            return None

    def put(self, key: str, doc: dict) -> None:
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self._write(key, ".json", blob.encode("utf-8"))

    # ------------------------------------------------------- binary payloads

    def get_blob(self, key: str) -> Optional[bytes]:
        """Raw cached payload (pickled experiment results), or None."""
        return self._read(key, ".pkl")

    def put_blob(self, key: str, blob: bytes) -> None:
        self._write(key, ".pkl", blob)

    def stats(self) -> dict:
        return {"root": str(self.root), "hits": self.hits, "misses": self.misses}
