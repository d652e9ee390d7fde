"""ResultStore behaviour: publish, fetch, maintenance, corruption."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.store import ResultStore, StoreError, canonical_key, result_store


def key_for(i):
    return canonical_key("toy", {"i": i})


def _has_entry(store, key):
    """Whether a (possibly corrupt) entry exists for *key*."""
    return (store.path_for(key) / "manifest.json").exists()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def test_put_fetch_roundtrip_with_manifest(store):
    key = key_for(0)
    assert store.put(
        key,
        {"capacity": 0.5, "p": np.array([0.5, 0.5])},
        fn_id="toy",
        code_fingerprint="deadbeef",
        compute_seconds=1.25,
    )
    assert _has_entry(store, key)
    value, entry = store.fetch(key)
    assert value["capacity"] == 0.5
    np.testing.assert_array_equal(value["p"], [0.5, 0.5])
    assert entry.fn_id == "toy"
    assert entry.code_fingerprint == "deadbeef"
    assert entry.compute_seconds == 1.25
    assert entry.nbytes > 0


def test_second_put_is_a_noop(store):
    key = key_for(1)
    assert store.put(key, {"v": 1}, fn_id="toy")
    assert not store.put(key, {"v": 2}, fn_id="toy")
    assert store.get(key) == {"v": 1}


def test_miss_and_default(store):
    assert store.fetch(key_for(2)) is None
    assert store.get(key_for(2), default="fallback") == "fallback"


def test_invalid_keys_are_rejected(store):
    with pytest.raises(StoreError):
        store.path_for("../escape")
    with pytest.raises(StoreError):
        store.path_for("UPPERCASE")
    with pytest.raises(StoreError):
        store.path_for("")


def test_delete_keys_entries_stats(store):
    for i in range(3):
        store.put(key_for(i), {"i": i}, fn_id="toy", compute_seconds=2.0)
    store.put(key_for(99), {"i": 99}, fn_id="other", compute_seconds=1.0)
    assert len(store.keys()) == 4
    stats = store.stats()
    assert stats.entries == 4
    assert stats.entries_by_fn == {"toy": 3, "other": 1}
    assert stats.compute_seconds_by_fn["toy"] == pytest.approx(6.0)
    assert stats.compute_seconds_total == pytest.approx(7.0)
    assert stats.total_bytes > 0
    assert store.delete(key_for(0))
    assert not store.delete(key_for(0))
    assert len(list(store.entries())) == 3


def test_gc_by_age(store, monkeypatch):
    clock = {"now": 100.0}
    monkeypatch.setattr(
        result_store, "time", SimpleNamespace(time=lambda: clock["now"])
    )
    store.put(key_for(0), {"v": 0}, fn_id="toy")
    clock["now"] = 900.0
    store.put(key_for(1), {"v": 1}, fn_id="toy")
    clock["now"] = 1000.0
    evicted = store.gc(max_age_seconds=200.0, dry_run=True)
    assert evicted == [key_for(0)] or set(evicted) == {key_for(0)}
    assert _has_entry(store, key_for(0))  # dry run deleted nothing
    store.gc(max_age_seconds=200.0)
    assert not _has_entry(store, key_for(0))
    assert _has_entry(store, key_for(1))


def test_gc_by_size_evicts_least_recently_used(store):
    keys = [key_for(i) for i in range(3)]
    for i, key in enumerate(keys):
        store.put(key, {"v": i, "pad": "x" * 100}, fn_id="toy")
    # Touch entries 1 and 2 so entry 0 is the LRU victim.
    import os

    manifest0 = store.path_for(keys[0]) / "manifest.json"
    os.utime(manifest0, (1.0, 1.0))
    store.fetch(keys[1])
    store.fetch(keys[2])
    per_entry = store.stats().total_bytes // 3
    evicted = store.gc(max_total_bytes=2 * per_entry + per_entry // 2)
    assert keys[0] in evicted
    assert _has_entry(store, keys[1]) and _has_entry(store, keys[2])


def test_gc_collects_corrupt_entries(store):
    key = key_for(5)
    store.put(key, {"v": 5}, fn_id="toy")
    (store.path_for(key) / "manifest.json").write_text("not json")
    assert key in store.gc()
    assert not _has_entry(store, key)


def test_corrupt_payload_reads_as_miss(store):
    key = key_for(6)
    store.put(key, {"v": 6}, fn_id="toy")
    (store.path_for(key) / "payload.json").write_text("{\"truncated\":")
    assert store.fetch(key) is None
    assert store.get(key, default="recompute") == "recompute"


def test_tampered_but_decodable_entry_reads_as_miss(store):
    """A payload or array file whose hash no longer matches the
    manifest is a miss, even when it still decodes."""
    edited, swapped = key_for(7), key_for(8)
    for key in (edited, swapped):
        store.put(key, {"v": 1.0, "arr": np.ones(2)}, fn_id="toy")
    payload = store.path_for(edited) / "payload.json"
    payload.write_text(payload.read_text().replace("1.0", "2.0"))
    with open(store.path_for(swapped) / "arrays.npz", "wb") as fh:
        np.savez(fh, a0=np.zeros(2))
    assert store.fetch(edited) is None
    assert store.fetch(swapped) is None


def test_verify_reports_each_corruption(store):
    clean, flipped, missing, undecodable = (key_for(i) for i in range(4))
    for key in (clean, flipped, missing, undecodable):
        store.put(key, {"v": 1, "arr": np.ones(3)}, fn_id="toy")
    assert store.verify() == []

    payload = store.path_for(flipped) / "payload.json"
    payload.write_text(payload.read_text().replace("1", "2", 1))
    (store.path_for(missing) / "arrays.npz").unlink()
    # Consistent re-hash but undecodable content: rewrite payload AND
    # its manifest hash so only the decode step can catch it.
    bad_payload = store.path_for(undecodable) / "payload.json"
    bad_payload.write_text(json.dumps({"__repro__": "mystery"}))
    import hashlib

    manifest_path = store.path_for(undecodable) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["hashes"]["payload.json"] = hashlib.sha256(
        bad_payload.read_bytes()
    ).hexdigest()
    manifest_path.write_text(json.dumps(manifest))

    issues = store.verify()
    problems = {issue.key: issue.problem for issue in issues}
    assert clean not in problems
    assert "hash mismatch" in problems[flipped]
    assert "missing file" in problems[missing]
    assert "does not decode" in problems[undecodable]


def test_store_root_must_be_a_directory(tmp_path):
    rogue = tmp_path / "file"
    rogue.write_text("x")
    with pytest.raises(StoreError):
        ResultStore(rogue)
