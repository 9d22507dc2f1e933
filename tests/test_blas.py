"""The one-thread OpenBLAS scope around ng_of_map."""

import threading

import pytest

from nongauss import ChannelSpec, NumericalValidityError, measures
from nongauss import _blas


def _counts() -> list:
    with _blas._lock:
        if _blas._libraries is None:
            _blas._libraries = _blas._find_libraries()
    return [get() for get, _ in _blas._libraries]


@pytest.fixture
def two_threads():
    """Every found library at 2 threads, so the scope visibly goes 2 -> 1 -> 2;
    the counts found are put back afterwards."""
    before = _counts()
    if not before:
        pytest.skip("no OpenBLAS library loaded")
    for _, put in _blas._libraries:
        put(2)
    yield [2] * len(before)
    for (_, put), count in zip(_blas._libraries, before):
        put(count)


def test_scope_sets_one_thread_and_restores(two_threads):
    with _blas.serial_blas():
        assert _counts() == [1] * len(two_threads)
        with _blas.serial_blas():   # nested: the inner exit keeps 1
            pass
        assert _counts() == [1] * len(two_threads)
    assert _counts() == two_threads
    with pytest.raises(RuntimeError):
        with _blas.serial_blas():
            raise RuntimeError("body fails")
    assert _counts() == two_threads
    assert _blas._depth == 0


def test_overlapping_scopes_from_two_threads(two_threads):
    # enter A, enter B, exit A (B still holds 1), exit B (restored)
    entered = {name: threading.Event() for name in "AB"}
    release = {name: threading.Event() for name in "AB"}

    def scope(name):
        with _blas.serial_blas():
            entered[name].set()
            release[name].wait(10)

    threads = {name: threading.Thread(target=scope, args=(name,)) for name in "AB"}
    threads["A"].start()
    assert entered["A"].wait(10)
    threads["B"].start()
    assert entered["B"].wait(10)
    release["A"].set()
    threads["A"].join(10)
    assert _counts() == [1] * len(two_threads)
    release["B"].set()
    threads["B"].join(10)
    assert _counts() == two_threads


def test_scope_without_libraries_is_a_no_op(two_threads, monkeypatch):
    found = list(_blas._libraries)
    monkeypatch.setattr(_blas, "_libraries", [])
    with _blas.serial_blas():
        assert [get() for get, _ in found] == two_threads
    assert [get() for get, _ in found] == two_threads


def test_ng_of_map_runs_on_one_thread(two_threads, monkeypatch):
    # phase diffusion: its probes still go through delta_b (Kerr probes do not)
    seen = []
    original = measures.delta_b

    def recording(rho):
        seen.append(_counts())
        return original(rho)

    monkeypatch.setattr(measures, "delta_b", recording)
    rep = measures.ng_of_map(ChannelSpec.phase_diffusion(0.5), energy_cap=1.0, cutoff=15,
                             budget=4)
    assert rep.diagnostics["evaluations"] == len(seen) == 4
    assert all(c == [1] * len(two_threads) for c in seen)
    assert _counts() == two_threads

    def failing(rho):
        seen.append(_counts())
        raise NumericalValidityError("probe fails")

    monkeypatch.setattr(measures, "delta_b", failing)
    with pytest.raises(NumericalValidityError):
        measures.ng_of_map(ChannelSpec.phase_diffusion(0.5), energy_cap=1.0, cutoff=15,
                           budget=4)
    assert seen[-1] == [1] * len(two_threads)
    assert _counts() == two_threads
