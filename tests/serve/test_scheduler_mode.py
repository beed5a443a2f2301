"""scheduler_mode threading through the job layer (ISSUE satellite 3).

The scheduling strategy is *result-relevant*: a modulo-scheduled
program has different contexts (and cycle counts) than the list one,
so the mode must enter both the job fingerprint and the schedule-cache
key.  These tests pin the failure mode that motivated the satellite —
a warm list-mode cache silently serving a stale program to a modulo
request.
"""

from __future__ import annotations

import pytest

from repro.arch.library import mesh_composition
from repro.perf.cache import ScheduleCache
from repro.serve.jobs import JobSpec, execute_job
from repro.serve.server import request_to_spec


def _spec(**kw):
    defaults = dict(workload="dotp", composition=mesh_composition(4))
    defaults.update(kw)
    return JobSpec(**defaults)


class TestFingerprint:
    def test_mode_enters_the_fingerprint(self):
        base = _spec().fingerprint()
        assert _spec(scheduler_mode="modulo").fingerprint() != base
        assert _spec(scheduler_mode="auto").fingerprint() != base
        assert (
            _spec(scheduler_mode="modulo").fingerprint()
            != _spec(scheduler_mode="auto").fingerprint()
        )

    def test_default_mode_is_explicit_list(self):
        assert (
            _spec().fingerprint() == _spec(scheduler_mode="list").fingerprint()
        )


class TestScheduleCache:
    def test_warm_list_cache_does_not_satisfy_modulo(self, tmp_path):
        """The cell that satellite 3 demands: warm the cache in list
        mode, then request modulo — it must MISS (and vice versa)."""
        cache = ScheduleCache(str(tmp_path))
        warm = execute_job(_spec(), cache=cache)
        hot = execute_job(_spec(), cache=cache)
        crossed = execute_job(_spec(scheduler_mode="modulo"), cache=cache)
        assert (warm.cache_hit, hot.cache_hit, crossed.cache_hit) == (
            False,
            True,
            False,
        )
        # and the modulo program really is a different artifact
        assert crossed.program_digest != warm.program_digest

    def test_each_mode_warms_its_own_entry(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        for mode in ("list", "modulo", "auto"):
            first = execute_job(_spec(scheduler_mode=mode), cache=cache)
            second = execute_job(_spec(scheduler_mode=mode), cache=cache)
            assert (first.cache_hit, second.cache_hit) == (False, True), mode
            assert second.program_digest == first.program_digest

    def test_cached_modulo_result_matches_uncached(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        execute_job(_spec(scheduler_mode="modulo"), cache=cache)  # warm
        cached = execute_job(_spec(scheduler_mode="modulo"), cache=cache)
        uncached = execute_job(_spec(scheduler_mode="modulo"))
        assert cached.program_digest == uncached.program_digest
        assert cached.run_cycles == uncached.run_cycles


class TestExecution:
    def test_modulo_dotp_beats_list(self):
        ref = execute_job(_spec())
        got = execute_job(_spec(scheduler_mode="modulo"))
        assert got.run_cycles < ref.run_cycles

    def test_invalid_mode_is_rejected(self):
        with pytest.raises(ValueError):
            execute_job(_spec(scheduler_mode="superblock"))


class TestRequestParsing:
    def test_mode_parsed_from_request(self):
        spec = request_to_spec(
            {
                "kernel": "dotp",
                "composition": "mesh4",
                "scheduler_mode": "modulo",
            }
        )
        assert spec.scheduler_mode == "modulo"

    def test_mode_defaults_to_list(self):
        spec = request_to_spec({"kernel": "dotp", "composition": "mesh4"})
        assert spec.scheduler_mode == "list"

    def test_invalid_mode_is_a_value_error(self):
        with pytest.raises(ValueError):
            request_to_spec(
                {
                    "kernel": "dotp",
                    "composition": "mesh4",
                    "scheduler_mode": "bogus",
                }
            )

    def test_unknown_backend_is_a_value_error(self):
        # rejected at parse time, before admission, not inside a worker
        with pytest.raises(ValueError, match="backend"):
            request_to_spec(
                {
                    "kernel": "dotp",
                    "composition": "mesh4",
                    "backend": "vector",
                }
            )
