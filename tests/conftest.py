import pytest

from tamperloc import autodiff as ad


@pytest.fixture
def policy(monkeypatch):
    """``policy(n)`` is ``ad.thread_policy()`` on a machine of ``n`` cores."""

    def enter(cores):
        monkeypatch.setattr(ad, "cores", lambda: cores)
        return ad.thread_policy()

    return enter


@pytest.fixture
def blas_threads():
    """The thread-count getter of numpy's OpenBLAS, set to two threads for the
    test (where OpenBLAS allows two) and reset afterwards."""
    blas = ad._openblas()
    if blas is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count symbols")
    get, set_ = blas
    old = get()
    set_(2)
    yield get
    set_(old)


@pytest.fixture
def pool_tasks(monkeypatch):
    """The number of jobs that each ``ad.share`` call hands out to the
    caller and the pool's helpers, in call order; calls that run inline
    hand out none and are not listed."""
    counts = []
    hand_out = ad._pool.hand_out

    def counting(call, helpers):
        counts.append(call.count)
        hand_out(call, helpers)

    monkeypatch.setattr(ad._pool, "hand_out", counting)
    return counts
