"""One BLAS thread per engine worker (:mod:`repro.engine.blas`).

Three contracts:

- **Numerics.**  OpenBLAS splits a GEMM over blocks of the output, never
  over the K sum, so the conv kernels and a whole served stream come
  out byte-identical at one BLAS thread and at two.  perfbench's
  scorecard replay and the serial-vs-``workers=2`` study pins already
  rely on this; here it is stated.
- **Scope.**  Holders are refcounted: BLAS stays at one thread until
  the last holder releases, then the count saved by the first returns.
  The scheduler holds from ``start()`` to ``close()``, the threaded
  backend while its pool exists, a sweep worker for its whole life.
- **Locator.**  On Linux, a numpy built against OpenBLAS must be found
  and controllable: a renamed export fails here instead of silently
  switching the one-thread rule off.

Where no controllable BLAS is loaded (MKL, Accelerate, non-Linux) the
count cannot be set, so the tests that compare counts are skipped.
"""

import queue
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.adapt import BNState
from repro.core.executor import CellSpec, RetryPolicy
from repro.engine import NumpyBackend, ThreadedBackend, blas
from repro.engine.blas import SingleBlasThread, blas_threads
from repro.models import MODEL_NAMES, build_model
from repro.nn import init as nn_init
from repro.parallel.worker import SHUTDOWN, CellTask, worker_main
from repro.resilience.journal import JournalError
from repro.serve.manager import SessionManager, TenantSpec
from repro.serve.scheduler import BatchScheduler
from repro.serve.session import AdaptationSession

from tests.test_engine.test_conv_lowering import model_conv_configs
from tests.test_serve.conftest import make_batches, poison, strip_timing

needs_blas = pytest.mark.skipif(
    blas_threads() is None,
    reason="no controllable OpenBLAS is loaded (MKL, Accelerate or "
           "non-Linux): the BLAS thread count cannot be set")


@pytest.fixture(autouse=True)
def no_live_holder(monkeypatch):
    """Each test starts with no live holder.  A manager abandoned
    elsewhere in the pytest run (the SIGKILL pattern of the kill-resume
    tests) keeps its scheduler's hold for good."""
    monkeypatch.setattr(blas, "_holders", 0)
    monkeypatch.setattr(blas, "_saved", blas._saved)


@contextmanager
def blas_at(count):
    """OpenBLAS at ``count`` threads for the block, restored after."""
    get, put = blas._runtime()
    saved = get()
    put(count)
    try:
        assert get() == count
        yield
    finally:
        put(saved)


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

def conv_kernels(backend, config, seed=0):
    """Forward, input grad and weight grad of one conv config, as bytes."""
    xp_shape, w_shape, stride, groups = config
    rng = np.random.default_rng(seed)
    xp = rng.standard_normal(xp_shape).astype(np.float32)
    weight = rng.standard_normal(w_shape).astype(np.float32)
    out = backend.conv2d_forward(xp, weight, stride, groups)
    grad = rng.standard_normal(out.shape).astype(np.float32)
    dxp, dw = backend.conv2d_backward(grad, xp, weight, stride, groups,
                                      True, True)
    return [array.tobytes() for array in (out, dxp, dw)]


@needs_blas
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_conv_kernels_identical_at_one_and_two_blas_threads(name):
    backend = NumpyBackend()
    for config in model_conv_configs(name):
        with SingleBlasThread():
            assert blas_threads() == 1
            single = conv_kernels(backend, config)
        with blas_at(2):
            double = conv_kernels(backend, config)
        for what, a, b in zip(("forward", "input grad", "weight grad"),
                              single, double):
            assert a == b, f"{what} of {config} moved with the BLAS threads"


def tenant_spec(tenant, seed):
    return TenantSpec(tenant=tenant, method="bn_opt", guard=True,
                      batch_size=8, seed=seed)


@needs_blas
def test_served_tenants_match_sessions_at_default_blas_threads():
    """Two bn_opt+guard tenants served by ``workers=2`` (BLAS held at one
    thread) end exactly as in-process sessions run at two BLAS threads
    outside any scope."""
    specs = [tenant_spec("cam0", 3), tenant_spec("cam1", 4)]
    streams = {spec.tenant: poison(make_batches(5, seed=spec.seed), {2})
               for spec in specs}

    expected = {}
    with blas_at(2):
        for spec in specs:
            nn_init.seed(spec.seed)
            model = build_model(spec.model, profile="tiny")
            model.eval()
            session = AdaptationSession(model, spec.method,
                                        guard=spec.guard, tenant=spec.tenant)
            with session:
                for images, labels in streams[spec.tenant]:
                    session.process_batch(images, labels)
            expected[spec.tenant] = (strip_timing(session.scorecard()),
                                     BNState.capture(model))
    assert expected["cam0"][0].rollbacks >= 1      # the guard fired

    manager = SessionManager(workers=2)
    try:
        assert blas_threads() == 1
        for spec in specs:
            manager.open_tenant(spec)
        for batch in range(5):
            for spec in specs:
                manager.ingest(spec.tenant, *streams[spec.tenant][batch])
        for spec in specs:
            card, state = expected[spec.tenant]
            assert strip_timing(manager.scorecard(spec.tenant)) == card
            assert BNState.capture(manager.session(spec.tenant).model) \
                == state
    finally:
        manager.close()


# ---------------------------------------------------------------------------
# scope semantics
# ---------------------------------------------------------------------------

@needs_blas
def test_overlapping_holders_keep_one_thread_until_the_last_release():
    with blas_at(2):
        first = SingleBlasThread()
        second = SingleBlasThread()
        assert blas_threads() == 1
        first.release()
        assert blas_threads() == 1
        first.release()                 # idempotent: not a second release
        assert blas_threads() == 1
        second.release()
        assert blas_threads() == 2


@needs_blas
def test_racing_holders_lose_no_update():
    """More holders than cores, switching threads every microsecond: a
    lost refcount update would leave a holder behind or restore early."""
    seen = []

    def churn():
        for _ in range(200):
            with SingleBlasThread():
                seen.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas_at(2):
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert blas._holders == 0
            assert blas_threads() == 2
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8 * 200 and set(seen) == {1}


@needs_blas
def test_scheduler_holds_from_start_to_close():
    with blas_at(2):
        scheduler = BatchScheduler(workers=2, start=False)
        assert blas_threads() == 2
        scheduler.start()
        assert blas_threads() == 1
        scheduler.start()               # idempotent: no second hold
        assert blas._holders == 1
        ran = []
        assert scheduler.submit("t", lambda: ran.append(
            blas_threads())).wait(timeout=10.0)
        assert ran == [1]
        scheduler.close()
        assert blas_threads() == 2


@needs_blas
def test_second_scheduler_close_releases_nothing():
    with blas_at(2):
        scheduler = BatchScheduler(workers=2)
        other = SingleBlasThread()
        scheduler.close()
        scheduler.close()
        assert blas._holders == 1
        assert blas_threads() == 1
        other.release()
        assert blas_threads() == 2


@needs_blas
def test_unstarted_scheduler_close_releases_nothing():
    with blas_at(2), SingleBlasThread():
        BatchScheduler(workers=2, start=False).close()
        assert blas._holders == 1


@needs_blas
def test_threaded_backend_holds_while_its_pool_exists():
    a = np.ones((4, 3), np.float32)
    b = np.ones((3, 2), np.float32)
    with blas_at(2):
        backend = ThreadedBackend(threads=2, min_shard=1)
        assert blas_threads() == 2      # no pool yet
        backend.matmul(a, b)
        assert blas_threads() == 1
        backend.close()
        assert blas_threads() == 2
        single = ThreadedBackend(threads=1, min_shard=1)
        single.matmul(a, b)             # never shards: never pools
        assert blas_threads() == 2
        single.close()


def test_manager_failing_to_open_its_journal_holds_nothing(tmp_path):
    journal = tmp_path / "serve.jsonl"
    journal.write_text('{"event": "serve_start"}\nnot json\n'
                       '{"event": "serve_start"}\n')
    with pytest.raises(JournalError):
        SessionManager(journal=str(journal), resume=True)
    assert blas._holders == 0


def record_blas_threads(payload, spec):
    payload.append(blas_threads())
    return []


@needs_blas
def test_sweep_worker_holds_for_its_whole_life():
    tasks, events = queue.Queue(), queue.Queue()
    seen = []
    tasks.put(CellTask(0, CellSpec("cell", "m", "no_adapt", 8),
                       record_blas_threads))
    tasks.put(SHUTDOWN)
    with blas_at(2):
        worker_main(0, tasks, events, RetryPolicy(), seen)
        assert blas_threads() == 2
    assert seen == [1]


def test_no_controllable_blas_makes_every_entry_point_a_no_op(monkeypatch):
    runtime = blas._runtime()
    real = blas_threads()
    monkeypatch.setattr(blas, "_runtime", lambda: None)
    assert blas_threads() is None
    with SingleBlasThread():
        assert blas._holders == 0
    scheduler = BatchScheduler(workers=2)
    assert blas._holders == 0
    if runtime is not None:
        assert runtime[0]() == real     # the real count was left alone
    scheduler.close()
    backend = ThreadedBackend(threads=2, min_shard=1)
    backend.matmul(np.ones((4, 3)), np.ones((3, 2)))
    backend.close()
    manager = SessionManager(workers=2)
    try:
        assert manager.status()["scheduler"]["blas_threads"] is None
    finally:
        manager.close()
    assert blas._holders == 0
    monkeypatch.undo()
    assert blas_threads() == real


# ---------------------------------------------------------------------------
# locator canary
# ---------------------------------------------------------------------------

def numpy_blas_name():
    """The BLAS numpy reports it was built against ('' if it cannot)."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"] or ""
    except (TypeError, KeyError):
        return ""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the locator reads /proc/self/maps (Linux only)")
def test_locator_finds_and_controls_numpys_openblas():
    name = numpy_blas_name()
    if "openblas" not in name.lower():
        pytest.skip(f"numpy reports no OpenBLAS build ({name or 'unknown'})")
    saved = blas_threads()
    assert saved is not None, (
        f"numpy is built against {name}, but none of the OpenBLAS thread "
        "exports the locator tries was found")
    with SingleBlasThread():
        assert blas_threads() == 1
    assert blas_threads() == saved
