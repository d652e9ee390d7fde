"""Disk-backed, content-addressed artifact store.

Layout (one directory per entry, addressed by its canonical key)::

    <root>/
      store.json                      # format marker
      tmp/                            # staging area for in-flight writes
      objects/<key[:2]>/<key>/
        manifest.json                 # provenance + payload hashes
        payload.json                  # tagged JSON tree
        arrays.npz                    # referenced numpy arrays (optional)

Write protocol: an entry is staged completely under ``tmp/`` and then
moved into place with one ``os.rename``. Readers therefore never see a
partial entry, and concurrent writers need no locks — content
addressing makes the race idempotent: whoever renames first wins, the
loser observes the existing entry and discards its staging directory.
This is what makes the store safe under the runner's
``ProcessPoolExecutor`` workers.

Corrupt entries (truncated JSON, hash mismatch, missing arrays) are
indistinguishable from misses on the read path — the cache never
poisons a computation — and are reported explicitly by
:meth:`ResultStore.verify`.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .._version import PACKAGE_VERSION
from .serialization import SerializationError, decode_value, encode_value

__all__ = [
    "StoreError",
    "StoreEntry",
    "StoreStats",
    "VerifyIssue",
    "ResultStore",
]

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.json"
ARRAYS_NAME = "arrays.npz"

#: On-disk layout version, written to ``store.json`` and every manifest.
STORE_FORMAT_VERSION = 1

_STAGING_SEQ = itertools.count()


class StoreError(Exception):
    """Unrecoverable store-level failure (bad root, invalid key)."""


@dataclass(frozen=True)
class StoreEntry:
    """Provenance manifest of one stored artifact."""

    key: str
    fn_id: str
    code_fingerprint: str
    package_version: str
    created_at: float
    compute_seconds: float
    nbytes: int
    path: Path


@dataclass(frozen=True)
class StoreStats:
    """Aggregate store accounting (for ``repro store stats``)."""

    entries: int
    total_bytes: int
    entries_by_fn: Dict[str, int]
    compute_seconds_by_fn: Dict[str, float]

    @property
    def compute_seconds_total(self) -> float:
        """Total recorded solve time — the wall-clock a fully warm
        rerun of everything in the store would save."""
        return sum(self.compute_seconds_by_fn.values())


@dataclass(frozen=True)
class VerifyIssue:
    """One corruption finding from :meth:`ResultStore.verify`."""

    key: str
    problem: str


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class ResultStore:
    """Content-addressed result store rooted at a directory.

    Parameters
    ----------
    root:
        Store directory; created (with its marker file) if missing.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} is not a directory")
        self.objects_dir = self.root / "objects"
        self._tmp_dir = self.root / "tmp"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._tmp_dir.mkdir(parents=True, exist_ok=True)
        marker = self.root / "store.json"
        if not marker.exists():
            # Concurrent initializers write identical content; last
            # rename wins and all of them are correct.
            staged = self._tmp_dir / f"store.json.{os.getpid()}"
            staged.write_text(
                json.dumps(
                    {"format": STORE_FORMAT_VERSION, "package": PACKAGE_VERSION}
                ),
                encoding="utf-8",
            )
            os.replace(staged, marker)

    # ------------------------------------------------------------------
    # addressing

    def path_for(self, key: str) -> Path:
        """Entry directory for *key* (which need not exist yet)."""
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise StoreError(f"invalid store key {key!r}")
        return self.objects_dir / key[:2] / key

    # ------------------------------------------------------------------
    # read path

    def fetch(self, key: str) -> Optional[Tuple[Any, StoreEntry]]:
        """Decode entry *key* as ``(value, manifest)``.

        Returns ``None`` on a miss *or* on any corruption — a payload
        whose hash no longer matches its manifest included — so a
        damaged entry degrades to a recompute, never to an exception
        (or a foreign value) in the middle of a solve. A successful
        read bumps the entry's mtime so size-budget GC evicts
        least-recently-used entries first.
        """
        entry_dir = self.path_for(key)
        try:
            manifest = json.loads(
                (entry_dir / MANIFEST_NAME).read_text(encoding="utf-8")
            )
            hashes = manifest["hashes"]
            raw = (entry_dir / PAYLOAD_NAME).read_bytes()
            if hashlib.sha256(raw).hexdigest() != hashes[PAYLOAD_NAME]:
                return None
            payload = json.loads(raw.decode("utf-8"))
            arrays: Dict[str, np.ndarray] = {}
            if ARRAYS_NAME in hashes:
                raw = (entry_dir / ARRAYS_NAME).read_bytes()
                if hashlib.sha256(raw).hexdigest() != hashes[ARRAYS_NAME]:
                    return None
                with np.load(io.BytesIO(raw)) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            value = decode_value(payload, arrays)
        except (OSError, ValueError, KeyError, TypeError, SerializationError):
            return None
        try:
            os.utime(entry_dir / MANIFEST_NAME)
        except OSError:
            pass  # read-only stores still serve hits
        return value, self._entry_from_manifest(key, entry_dir, manifest)

    def get(self, key: str, default: Any = None) -> Any:
        """Value for *key*, or *default* on miss/corruption."""
        found = self.fetch(key)
        return default if found is None else found[0]

    # ------------------------------------------------------------------
    # write path

    def put(
        self,
        key: str,
        value: Any,
        *,
        fn_id: str,
        code_fingerprint: str = "",
        compute_seconds: float = 0.0,
    ) -> bool:
        """Persist *value* under *key*; returns True when this call
        created the entry.

        The entry is staged under ``tmp/`` and published with a single
        ``os.rename``. If another writer publishes the same key first,
        its entry (byte-equivalent by content addressing) is kept and
        this call reports False.
        """
        entry_dir = self.path_for(key)
        if entry_dir.exists():
            return False
        payload, arrays = encode_value(value)
        # Provenance metadata only — never feeds a computation.
        created_at = time.time()  # repro: noqa[DET001]
        staging = self._tmp_dir / f"{key}.{os.getpid()}.{next(_STAGING_SEQ)}"
        staging.mkdir(parents=True)
        try:
            (staging / PAYLOAD_NAME).write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
            hashes = {PAYLOAD_NAME: _sha256_file(staging / PAYLOAD_NAME)}
            if arrays:
                with open(staging / ARRAYS_NAME, "wb") as fh:
                    np.savez(fh, **arrays)
                hashes[ARRAYS_NAME] = _sha256_file(staging / ARRAYS_NAME)
            manifest = {
                "format": STORE_FORMAT_VERSION,
                "key": key,
                "fn_id": fn_id,
                "code_fingerprint": code_fingerprint,
                "package_version": PACKAGE_VERSION,
                "created_at": float(created_at),
                "compute_seconds": float(compute_seconds),
                "hashes": hashes,
            }
            (staging / MANIFEST_NAME).write_text(
                json.dumps(manifest, sort_keys=True, indent=1),
                encoding="utf-8",
            )
            entry_dir.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(staging, entry_dir)
            except OSError:
                if entry_dir.exists():
                    return False  # lost the publish race: idempotent
                raise
            return True
        finally:
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)

    def delete(self, key: str) -> bool:
        """Remove entry *key*; returns whether anything was removed."""
        entry_dir = self.path_for(key)
        if not entry_dir.exists():
            return False
        shutil.rmtree(entry_dir)
        return True

    # ------------------------------------------------------------------
    # enumeration / maintenance

    def keys(self) -> List[str]:
        """Sorted keys of all entries (including corrupt ones)."""
        found = []
        for shard in sorted(self.objects_dir.iterdir()):
            if shard.is_dir():
                found.extend(p.name for p in sorted(shard.iterdir()) if p.is_dir())
        return found

    def entries(self) -> Iterator[StoreEntry]:
        """Iterate manifests of readable entries (corrupt ones skipped;
        :meth:`verify` is the tool that reports those)."""
        for key in self.keys():
            entry_dir = self.path_for(key)
            try:
                manifest = json.loads(
                    (entry_dir / MANIFEST_NAME).read_text(encoding="utf-8")
                )
                yield self._entry_from_manifest(key, entry_dir, manifest)
            except (OSError, ValueError):
                continue

    def _entry_from_manifest(
        self, key: str, entry_dir: Path, manifest: Dict[str, Any]
    ) -> StoreEntry:
        return StoreEntry(
            key=key,
            fn_id=str(manifest.get("fn_id", "?")),
            code_fingerprint=str(manifest.get("code_fingerprint", "")),
            package_version=str(manifest.get("package_version", "?")),
            created_at=float(manifest.get("created_at", 0.0)),
            compute_seconds=float(manifest.get("compute_seconds", 0.0)),
            nbytes=_dir_bytes(entry_dir),
            path=entry_dir,
        )

    def stats(self) -> StoreStats:
        """Aggregate accounting over all readable entries."""
        by_fn: Dict[str, int] = {}
        seconds: Dict[str, float] = {}
        total_bytes = 0
        count = 0
        for entry in self.entries():
            count += 1
            total_bytes += entry.nbytes
            by_fn[entry.fn_id] = by_fn.get(entry.fn_id, 0) + 1
            seconds[entry.fn_id] = (
                seconds.get(entry.fn_id, 0.0) + entry.compute_seconds
            )
        return StoreStats(
            entries=count,
            total_bytes=total_bytes,
            entries_by_fn=by_fn,
            compute_seconds_by_fn=seconds,
        )

    def gc(
        self,
        *,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        dry_run: bool = False,
    ) -> List[str]:
        """Evict entries by age and/or size budget; returns evicted keys.

        Age eviction drops entries whose manifest ``created_at`` is
        older than *max_age_seconds*. Size eviction then removes
        least-recently-*used* entries (reads bump mtime) until the
        store fits *max_total_bytes*. Corrupt entries are always
        evicted — they can never serve a hit.
        """
        # Maintenance policy, not simulation state.
        now = time.time()  # repro: noqa[DET001]
        evicted: List[str] = []
        readable: Dict[str, StoreEntry] = {e.key: e for e in self.entries()}
        for key in self.keys():
            entry = readable.get(key)
            if entry is None:
                evicted.append(key)  # corrupt: unconditionally collect
            elif (
                max_age_seconds is not None
                and now - entry.created_at > max_age_seconds
            ):
                evicted.append(key)
        if max_total_bytes is not None:
            survivors = [
                e for e in readable.values() if e.key not in set(evicted)
            ]
            total = sum(e.nbytes for e in survivors)
            survivors.sort(
                key=lambda e: (e.path / MANIFEST_NAME).stat().st_mtime
            )
            for entry in survivors:
                if total <= max_total_bytes:
                    break
                evicted.append(entry.key)
                total -= entry.nbytes
        if not dry_run:
            for key in evicted:
                self.delete(key)
        return evicted

    def verify(self) -> List[VerifyIssue]:
        """Re-hash every entry's payload files against its manifest.

        Returns one :class:`VerifyIssue` per problem: unreadable or
        malformed manifests, missing payload files, hash mismatches,
        and payloads that no longer decode.
        """
        issues: List[VerifyIssue] = []
        for key in self.keys():
            entry_dir = self.path_for(key)
            try:
                manifest = json.loads(
                    (entry_dir / MANIFEST_NAME).read_text(encoding="utf-8")
                )
            except (OSError, ValueError) as exc:
                issues.append(VerifyIssue(key, f"unreadable manifest: {exc!r}"))
                continue
            hashes = manifest.get("hashes")
            if not isinstance(hashes, dict) or PAYLOAD_NAME not in hashes:
                issues.append(VerifyIssue(key, "manifest lists no payload hashes"))
                continue
            damaged = False
            for name, expected in sorted(hashes.items()):
                target = entry_dir / name
                if not target.exists():
                    issues.append(VerifyIssue(key, f"missing file {name}"))
                    damaged = True
                elif _sha256_file(target) != expected:
                    issues.append(VerifyIssue(key, f"hash mismatch in {name}"))
                    damaged = True
            if damaged:
                continue
            try:
                payload = json.loads(
                    (entry_dir / PAYLOAD_NAME).read_text(encoding="utf-8")
                )
                arrays: Dict[str, np.ndarray] = {}
                arrays_path = entry_dir / ARRAYS_NAME
                if arrays_path.exists():
                    with np.load(arrays_path) as npz:
                        arrays = {name: npz[name] for name in npz.files}
                decode_value(payload, arrays)
            except (OSError, ValueError, KeyError, SerializationError) as exc:
                issues.append(VerifyIssue(key, f"payload does not decode: {exc!r}"))
        return issues
