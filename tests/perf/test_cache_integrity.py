"""Disk-entry integrity: checksums, quarantine, headerless files, injection."""

from __future__ import annotations

import glob
import os
import pickle

import pytest

from repro import faults
from repro.arch.library import mesh_composition
from repro.faults import FaultPlan, FaultSpec
from repro.kernels import gcd
from repro.obs import observe
from repro.perf.cache import ScheduleCache


@pytest.fixture(autouse=True)
def _no_fault_leak():
    faults.disarm()
    yield
    faults.disarm()


def _kc():
    return gcd.build_kernel(), mesh_composition(4)


def _entry_path(tmp_path):
    files = [
        p for p in glob.glob(os.path.join(str(tmp_path), "*.pkl"))
    ]
    assert len(files) == 1
    return files[0]


class TestChecksums:
    def test_bit_flip_is_quarantined_and_recomputed(self, tmp_path):
        kernel, comp = _kc()
        cache = ScheduleCache(str(tmp_path))
        cache.get_or_compute(kernel, comp, lambda: {"v": 1})
        path = _entry_path(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x01  # silent bit flip deep in the pickled body
        with open(path, "wb") as fh:
            fh.write(bytes(blob))

        fresh = ScheduleCache(str(tmp_path))
        payload, hit = fresh.get_or_compute(
            kernel, comp, lambda: {"v": "recomputed"}
        )
        assert not hit and payload == {"v": "recomputed"}
        assert fresh.corrupt == 1
        # evidence kept outside the key namespace
        assert os.path.exists(path + ".corrupt")
        assert os.path.exists(path)  # the recomputed entry

    def test_torn_write_is_a_miss_not_a_crash(self, tmp_path):
        kernel, comp = _kc()
        cache = ScheduleCache(str(tmp_path))
        cache.get_or_compute(kernel, comp, lambda: {"v": list(range(50))})
        path = _entry_path(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])

        fresh = ScheduleCache(str(tmp_path))
        payload, hit = fresh.get_or_compute(kernel, comp, lambda: "again")
        assert not hit and payload == "again"
        assert fresh.corrupt == 1

    def test_headerless_entry_is_quarantined_as_miss(self, tmp_path):
        kernel, comp = _kc()
        cache = ScheduleCache(str(tmp_path))
        key = cache.key_for(kernel, comp)
        legacy = os.path.join(str(tmp_path), f"{key}.pkl")
        with open(legacy, "wb") as fh:
            pickle.dump({"pre": "checksum"}, fh)
        payload, hit = cache.get_or_compute(
            kernel, comp, lambda: {"v": "recomputed"}
        )
        # a file without the checksum header is never unpickled
        assert not hit and payload == {"v": "recomputed"}
        assert (cache.misses, cache.corrupt) == (1, 1)
        assert os.path.exists(legacy + ".corrupt")

    def test_corrupt_counter_reaches_metrics(self, tmp_path):
        kernel, comp = _kc()
        ScheduleCache(str(tmp_path)).get_or_compute(
            kernel, comp, lambda: "x"
        )
        path = _entry_path(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"trailing garbage breaks the digest")
        with observe() as session:
            ScheduleCache(str(tmp_path)).get(
                ScheduleCache(str(tmp_path)).key_for(kernel, comp)
            )
        counters = session.metrics.snapshot()["counters"]
        assert any(
            k.startswith("perf.cache.corrupt") for k in counters
        )


class TestInjectedWriteFaults:
    def test_injected_torn_write_recovers_on_read(self, tmp_path):
        kernel, comp = _kc()
        plan = FaultPlan(
            [FaultSpec("cache.write", "torn", rate=1.0, count=1)], seed=0
        )
        cache = ScheduleCache(str(tmp_path))
        with faults.injected(plan):
            cache.get_or_compute(kernel, comp, lambda: {"good": True})
        assert len(plan.fired) == 1
        # this process's memory layer still hits; a fresh process
        # (instance) must detect the torn disk entry and recompute
        fresh = ScheduleCache(str(tmp_path))
        payload, hit = fresh.get_or_compute(
            kernel, comp, lambda: {"good": True}
        )
        assert not hit and payload == {"good": True}
        assert fresh.corrupt == 1
        # the recomputed (clean) entry now round-trips
        again = ScheduleCache(str(tmp_path))
        payload, hit = again.get_or_compute(
            kernel, comp, lambda: pytest.fail("must hit disk")
        )
        assert hit and payload == {"good": True}

    def test_injected_corrupt_write_recovers_on_read(self, tmp_path):
        kernel, comp = _kc()
        plan = FaultPlan(
            [FaultSpec("cache.write", "corrupt", rate=1.0, count=1)],
            seed=0,
        )
        cache = ScheduleCache(str(tmp_path))
        with faults.injected(plan):
            cache.get_or_compute(kernel, comp, lambda: {"n": 42})
        fresh = ScheduleCache(str(tmp_path))
        payload, hit = fresh.get_or_compute(kernel, comp, lambda: {"n": 42})
        assert not hit
        assert fresh.corrupt == 1
        assert payload == {"n": 42}

    def test_quarantined_files_are_not_cache_keys(self, tmp_path):
        kernel, comp = _kc()
        plan = FaultPlan(
            [FaultSpec("cache.write", "corrupt", rate=1.0, count=1)],
            seed=0,
        )
        with faults.injected(plan):
            ScheduleCache(str(tmp_path)).get_or_compute(
                kernel, comp, lambda: "x"
            )
        fresh = ScheduleCache(str(tmp_path))
        fresh.get_or_compute(kernel, comp, lambda: "x")
        # .pkl.corrupt files are invisible to the disk scan (eviction,
        # size accounting) — only real .pkl entries count
        names = os.listdir(str(tmp_path))
        assert any(n.endswith(".pkl.corrupt") for n in names)
        entries = [p for _, p, _ in fresh._disk_entries()]
        assert all(not p.endswith(".corrupt") for p in entries)
