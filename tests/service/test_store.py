"""The content-addressed store: verified reads, atomic writes.

Unit-level coverage of :class:`repro.service.store.ResultStore` — the
service-level behaviours (recompute after eviction, warm starts) live
in ``test_fault_paths.py``.
"""

import json
import os
from pathlib import Path

from repro.runner import RunResult
from repro.service import ResultStore
from repro.service.store import STORE_SCHEMA, payload_result, result_payload


def _payload(label="entry", cycles=42):
    return result_payload(RunResult(index=0, label=label, ok=True,
                                    completed=True, cycles=cycles))


KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


def test_put_get_round_trip(tmp_path):
    store = ResultStore(str(tmp_path))
    payload = _payload()
    store.put(KEY, payload)
    assert store.get(KEY) == payload
    assert KEY in store
    assert list(store.keys()) == [KEY]
    assert len(store) == 1
    result = payload_result(payload)
    assert result.label == "entry" and result.cycles == 42


def test_get_missing_is_a_plain_miss(tmp_path):
    store = ResultStore(str(tmp_path))
    assert store.get(KEY) is None
    assert KEY not in store
    assert store.metrics.counter("store.corrupt_evictions").value == 0


def test_payload_is_stored_verbatim(tmp_path):
    """The on-disk payload file IS the served bytes (cmp-able)."""
    store = ResultStore(str(tmp_path))
    payload = _payload()
    store.put(KEY, payload)
    assert Path(store.payload_path(KEY)).read_bytes() == payload


def test_flipped_byte_is_evicted_not_served(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(KEY, _payload())
    path = store.payload_path(KEY)
    blob = bytearray(Path(path).read_bytes())
    blob[0] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    assert store.get(KEY) is None
    assert store.metrics.counter("store.corrupt_evictions").value == 1
    # both files are gone: the entry cannot half-exist
    assert not os.path.exists(path)
    assert not os.path.exists(store.meta_path(KEY))


def test_truncated_payload_is_evicted(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(KEY, _payload())
    with open(store.payload_path(KEY), "wb") as fh:
        fh.write(b"{")
    assert store.get(KEY) is None
    assert store.metrics.counter("store.corrupt_evictions").value == 1


def test_torn_write_payload_without_metadata_is_swept(tmp_path):
    store = ResultStore(str(tmp_path))
    path = store.payload_path(KEY)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_payload())
    assert store.get(KEY) is None
    assert not os.path.exists(path)
    assert store.metrics.counter("store.corrupt_evictions").value == 1


def test_metadata_for_the_wrong_key_is_rejected(tmp_path):
    """Cross-wired metadata (says it belongs to another key) must not
    vouch for the payload."""
    store = ResultStore(str(tmp_path))
    store.put(KEY, _payload())
    meta = json.loads(Path(store.meta_path(KEY)).read_text())
    meta["key"] = OTHER
    with open(store.meta_path(KEY), "w") as fh:
        json.dump(meta, fh)
    assert store.get(KEY) is None


def test_foreign_schema_misses_instead_of_misreading(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(KEY, _payload())
    meta = json.loads(Path(store.meta_path(KEY)).read_text())
    assert meta["schema"] == STORE_SCHEMA
    meta["schema"] = "repro.service.store/999"
    with open(store.meta_path(KEY), "w") as fh:
        json.dump(meta, fh)
    assert store.get(KEY) is None


def test_evict_removes_both_files_and_reports(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(KEY, _payload())
    assert store.evict(KEY) is True
    assert store.get(KEY) is None
    assert store.evict(KEY) is False  # already gone
    assert store.metrics.counter("store.evictions").value >= 1


def test_overwrite_replaces_the_entry(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(KEY, _payload(cycles=1))
    new = _payload(cycles=2)
    store.put(KEY, new)
    assert store.get(KEY) == new
    assert len(store) == 1


def test_keys_enumerates_across_shards_sorted(tmp_path):
    store = ResultStore(str(tmp_path))
    keys = sorted(f"{b:02x}" + "f" * 62 for b in (0x0A, 0xFE, 0x33))
    for k in keys:
        store.put(k, _payload(label=k[:4]))
    assert list(store.keys()) == keys
    assert len(store) == 3


def test_checkpoint_dir_is_per_key_and_created_on_demand(tmp_path):
    store = ResultStore(str(tmp_path))
    d1 = store.checkpoint_dir(KEY)
    d2 = store.checkpoint_dir(OTHER)
    assert d1 != d2
    assert os.path.isdir(d1) and os.path.isdir(d2)
    assert store.checkpoint_dir(KEY) == d1  # stable


def test_shared_metrics_registry(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    store = ResultStore(str(tmp_path), metrics=reg)
    store.put(KEY, _payload())
    store.get(KEY)
    assert reg.counter("store.puts").value == 1
    assert reg.counter("store.gets").value == 1
