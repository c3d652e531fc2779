"""One BLAS thread per engine worker process (:mod:`repro.engine.blas`).

Three contracts:

- **Numerics.**  OpenBLAS splits a GEMM over blocks of the output, never
  over the K sum, so the conv kernels and a whole served stream come
  out byte-identical at one BLAS thread and at two.  perfbench's
  scorecard replay and the serial-vs-``workers=2`` study pins already
  rely on this; here it is stated.
- **Setter.**  ``set_one_blas_thread`` is one-way and idempotent: a serve
  manager calls it before it forks its hosts (the hosts inherit the
  count), a sweep worker when it starts, and nothing restores the old
  count.
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
from repro.engine import NumpyBackend, blas
from repro.engine.blas import blas_threads, set_one_blas_thread
from repro.models import MODEL_NAMES, build_model
from repro.nn import init as nn_init
from repro.parallel.worker import SHUTDOWN, CellTask, worker_main
from repro.resilience.journal import JournalError
from repro.serve.manager import SessionManager, TenantSpec
from repro.serve.session import AdaptationSession

from tests.test_engine.test_conv_lowering import model_conv_configs
from tests.test_serve.conftest import (child_pids, make_batches, poison,
                                      strip_timing)

needs_blas = pytest.mark.skipif(
    blas_threads() is None,
    reason="no controllable OpenBLAS is loaded (MKL, Accelerate or "
           "non-Linux): the BLAS thread count cannot be set")


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
        with blas_at(1):
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
    """Two bn_opt+guard tenants served by ``workers=2`` hosts (each on
    one BLAS thread) end exactly as in-process sessions run at two BLAS
    threads."""
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
# the setter
# ---------------------------------------------------------------------------

@needs_blas
def test_hosts_inherit_one_blas_thread_from_their_manager():
    with blas_at(2):
        manager = SessionManager(workers=2)
        try:
            # set before the fork: the hosts inherit it and set nothing
            assert blas_threads() == 1
            hosts = manager.status()["hosts"]
            assert [host["blas_threads"] for host in hosts] == [1, 1]
        finally:
            manager.close()


@needs_blas
def test_one_blas_thread_outlives_the_manager_that_set_it():
    """Nothing restores the old count: the process keeps one thread
    after its manager closes, and a second manager's hosts, forked
    from a process already at one, still run on one."""
    with blas_at(2):
        first = SessionManager(workers=1)
        first.close()
        assert blas_threads() == 1
        second = SessionManager(workers=2)
        try:
            assert blas_threads() == 1
            hosts = second.status()["hosts"]
            assert [host["blas_threads"] for host in hosts] == [1, 1]
        finally:
            second.close()
        assert blas_threads() == 1


@needs_blas
def test_a_count_already_at_one_is_left_alone(monkeypatch):
    """Setting the count re-creates OpenBLAS's pool after a fork, so the
    setter sets nothing where it finds one thread already."""
    get, put = blas._runtime()
    calls = []

    def recording():
        return get, lambda count: calls.append(count) or put(count)

    for count, expected in ((1, []), (2, [1])):
        with blas_at(count):
            with monkeypatch.context() as patch:
                patch.setattr(blas, "_runtime", recording)
                set_one_blas_thread()
                set_one_blas_thread()   # idempotent: no second call
                assert blas_threads() == 1
            assert calls == expected
        calls.clear()


def test_manager_failing_to_open_its_journal_holds_nothing(tmp_path):
    journal = tmp_path / "serve.jsonl"
    journal.write_text('{"event": "serve_start"}\nnot json\n'
                       '{"event": "serve_start"}\n')
    threads, children = threading.active_count(), child_pids()
    with pytest.raises(JournalError):
        SessionManager(journal=str(journal), resume=True)
    assert threading.active_count() == threads
    assert child_pids() <= children     # both hosts reaped


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
        assert blas_threads() == 1      # set at start, never restored
    assert seen == [1]


def test_no_controllable_blas_makes_every_entry_point_a_no_op(monkeypatch):
    runtime = blas._runtime()
    real = blas_threads()
    monkeypatch.setattr(blas, "_runtime", lambda: None)
    assert blas_threads() is None
    set_one_blas_thread()
    if runtime is not None:
        assert runtime[0]() == real     # the real count was left alone
    manager = SessionManager(workers=2)
    try:
        assert manager.status()["scheduler"]["blas_threads"] is None
    finally:
        manager.close()
    if runtime is not None:
        assert runtime[0]() == real
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
    assert blas_threads() is not None, (
        f"numpy is built against {name}, but none of the OpenBLAS thread "
        "exports the locator tries was found")
    with blas_at(2):
        set_one_blas_thread()
        assert blas_threads() == 1
