"""The one-BLAS-thread pin: set on entry, restored once on the outermost exit."""

import sys
import threading
import time

import pytest

import usctransfer._blas as blas


class FakeSetter:
    """Stands in for one library's ``openblas_set_num_threads_local``."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def __call__(self, threads):
        time.sleep(0)  # a ctypes call releases the interpreter lock
        self.calls.append(threads)
        previous, self.threads = self.threads, threads
        return previous


@pytest.fixture
def fakes(monkeypatch):
    setters = [FakeSetter(2), FakeSetter(4)]
    monkeypatch.setattr(blas, "_setters", lambda: setters)
    return setters


class TestSingleBlasThread:
    def test_sets_one_and_restores_each_previous_count(self, fakes):
        with blas.single_blas_thread():
            assert [f.threads for f in fakes] == [1, 1]
        assert [f.threads for f in fakes] == [2, 4]

    def test_restores_when_the_body_raises(self, fakes):
        with pytest.raises(RuntimeError), blas.single_blas_thread():
            raise RuntimeError("ascent failed")
        assert [f.threads for f in fakes] == [2, 4]
        with blas.single_blas_thread():  # the depth went back to zero
            pass
        assert [f.calls for f in fakes] == [[1, 2, 1, 2], [1, 4, 1, 4]]

    def test_nested_entries_restore_only_at_the_outermost_exit(self, fakes):
        with blas.single_blas_thread():
            with blas.single_blas_thread():
                pass
            assert [f.threads for f in fakes] == [1, 1]
        assert [f.calls for f in fakes] == [[1, 2], [1, 4]]
        assert [f.threads for f in fakes] == [2, 4]

    def test_concurrent_entries_share_one_pin(self, fakes):
        # more threads than cores and a short switch interval, so entries and exits interleave
        inside = []

        def worker():
            for _ in range(200):
                with blas.single_blas_thread():
                    inside.append([f.threads for f in fakes])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(inside) == 8 * 200 and all(counts == [1, 1] for counts in inside)
        assert [f.threads for f in fakes] == [2, 4]
        assert (blas._depth, blas._saved) == (0, [])

    def test_no_library_is_a_no_op(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr(blas, "open", no_proc, raising=False)
        assert blas._setters() == []
        with blas.single_blas_thread():
            pass
        assert (blas._depth, blas._saved) == (0, [])
