"""Fixture: store-layout writes, activation reads and cache events
outside repro.store."""

import os

from repro.numerics import record_cache_event
from repro.store import ResultStore

store = ResultStore("/tmp/cache")


def sneak_entry(key: str) -> None:
    store.path_for(key).mkdir(parents=True)  # bypasses atomic publish
    (store.path_for(key) / "payload.json").write_text("{}")
    (store.objects_dir / key[:2] / key).unlink()


def fork_activation() -> str:
    root = os.environ["REPRO_STORE_DIR"]
    fallback = os.environ.get("REPRO_STORE_DIR", "")
    return os.getenv("REPRO_STORE_DIR", root or fallback)


def fork_accounting() -> None:
    record_cache_event("my_solver", "hit")  # bypasses the memo protocol
