"""Tolerance profiles are scoped to a context, not shared across threads."""

import threading

import pytest

from nongauss import config
from nongauss.figures import _parallel_map

DEFAULT, STRICT, LOOSE = (config.PROFILES[k] for k in ("default", "strict", "loose"))


def test_using_scopes_and_restores():
    before = config.tolerances()
    with config.using("strict") as profile:
        assert profile is STRICT and config.tolerances() is STRICT
        with config.using(LOOSE):
            assert config.tolerances() is LOOSE
        assert config.tolerances() is STRICT
    assert config.tolerances() is before
    with pytest.raises(RuntimeError):
        with config.using("loose"):
            raise RuntimeError("body fails")
    assert config.tolerances() is before
    with pytest.raises(ValueError, match="unknown tolerance profile"):
        config.using("bogus").__enter__()
    assert config.tolerances() is before


def test_profile_set_in_one_thread_is_not_seen_by_another():
    seen = {}

    def worker():
        seen["start"] = config.tolerances()
        config.use_profile("strict")
        seen["set"] = config.tolerances()

    with config.using("loose"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert config.tolerances() is LOOSE
    assert seen == {"start": DEFAULT, "set": STRICT}
    assert config.tolerances() is DEFAULT


def test_parallel_map_workers_see_the_callers_profile():
    def job(_):
        profile = config.tolerances()
        config.use_profile("default")   # stays inside the job's own context
        return profile

    with config.using("strict"):
        assert _parallel_map(job, range(6), threads=3) == [STRICT] * 6
        assert config.tolerances() is STRICT
