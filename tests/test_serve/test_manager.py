"""SessionManager: coalescing, admission, and journal kill-resume.

The kill-resume test is the PR's acceptance contract at the manager
layer: abandon a journaled manager mid-stream without any goodbye (the
journal is fsync'd per entry, so this is what SIGKILL leaves behind),
resume a fresh manager from the same journal, finish the stream, and
the per-tenant scorecard and model bytes must equal an uninterrupted
twin's exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.resilience.journal import scan_journal
from repro.serve.manager import AdmissionError, SessionManager, TenantSpec
from repro.serve.session import AdaptationSession

from tests.test_serve.conftest import (
    assert_states_identical,
    make_batches,
    poison,
    strip_timing,
)


def spec_for(tenant, **overrides):
    base = dict(tenant=tenant, model="wrn40_2", method="bn_norm",
                batch_size=8, guard=False, queue_capacity=2,
                image_size=16, seed=3)
    base.update(overrides)
    return TenantSpec(**base)


@pytest.fixture
def manager():
    instance = SessionManager()
    yield instance
    instance.close()


class TestSpec:
    def test_fingerprint_is_stable_and_spec_sensitive(self):
        assert spec_for("a").fingerprint() == spec_for("a").fingerprint()
        assert spec_for("a").fingerprint() != \
            spec_for("a", seed=4).fingerprint()

    @pytest.mark.parametrize("tenant,overrides", [
        ("", {}), ("t", {"batch_size": 0}), ("t", {"queue_capacity": -1}),
    ])
    def test_invalid_specs_rejected(self, tenant, overrides):
        with pytest.raises(ValueError):
            spec_for(tenant, **overrides)


class TestLifecycle:
    def test_open_ingest_close(self, manager):
        manager.open_tenant(spec_for("cam0"))
        images, labels = make_batches(1, batch_size=8)[0]
        ack = manager.ingest("cam0", images, labels)
        assert ack["accepted"] == 8 and ack["batches_done"] == 1
        card = manager.close_tenant("cam0")
        assert card.tenant == "cam0" and card.frames_processed == 8
        assert manager.tenants() == []

    def test_partial_chunks_coalesce_into_batches(self, manager):
        manager.open_tenant(spec_for("cam0"))
        images, labels = make_batches(1, batch_size=20)[0]
        # 20 frames, batch_size 8: two batches run, 4 frames stay queued
        ack = manager.ingest("cam0", images, labels)
        assert ack == dict(accepted=20, dropped=0, batches_done=2,
                           rollbacks=0, degraded_batches=0,
                           fallback_frames=0, duplicate=False)
        ack = manager.ingest("cam0", images[:4], labels[:4])
        assert ack["batches_done"] == 3

    def test_admission_drops_past_capacity(self, manager):
        manager.open_tenant(spec_for("cam0", queue_capacity=0))
        # capacity = (0 + 1) * 8 = 8 buffered frames
        images, labels = make_batches(1, batch_size=20)[0]
        ack = manager.ingest("cam0", images, labels)
        assert ack["accepted"] == 8 and ack["dropped"] == 12
        card = manager.scorecard("cam0")
        assert card.frames_dropped == 12
        assert card.frames_total == card.frames_processed + 12

    def test_max_tenants_enforced(self):
        manager = SessionManager(max_tenants=1)
        try:
            manager.open_tenant(spec_for("cam0"))
            with pytest.raises(AdmissionError, match="limit"):
                manager.open_tenant(spec_for("cam1"))
        finally:
            manager.close()

    def test_reopen_live_tenant_reattaches(self, manager):
        manager.open_tenant(spec_for("cam0"))
        images, labels = make_batches(1, batch_size=8)[0]
        manager.ingest("cam0", images, labels)
        opened = manager.open_tenant(spec_for("cam0"))
        assert opened == {"resumed": True, "batches_done": 1,
                          "chunk": -1}

    def test_reopen_live_tenant_with_other_spec_refused(self, manager):
        manager.open_tenant(spec_for("cam0"))
        with pytest.raises(AdmissionError, match="different"):
            manager.open_tenant(spec_for("cam0", seed=9))

    def test_unknown_tenant_refused(self, manager):
        with pytest.raises(AdmissionError, match="unknown"):
            manager.ingest("ghost", np.zeros((1, 3, 16, 16)), np.zeros(1))

    def test_faults_tally_onto_scorecard(self, manager):
        manager.open_tenant(spec_for("cam0"))
        images, labels = make_batches(1, batch_size=8)[0]
        manager.ingest("cam0", images, labels, faults=3)
        assert manager.scorecard("cam0").faults_injected == 3


class TestJournalResume:
    def _chunks(self):
        # guarded bn_opt with a fault before and after the kill point
        return poison(make_batches(10, batch_size=8, seed=11), {2, 7})

    def _feed(self, manager, tenant, chunks, faults_at=(2, 7)):
        for index, (images, labels) in enumerate(chunks):
            manager.ingest(tenant, images, labels,
                           faults=1 if index in faults_at else 0)

    def _spec(self):
        return spec_for("cam0", method="bn_opt", guard=True)

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        chunks = self._chunks()

        twin = SessionManager()
        twin.open_tenant(self._spec())
        self._feed(twin, "cam0", chunks)
        twin_state = twin.session("cam0").model.state_dict()
        twin_card = twin.scorecard("cam0")
        assert twin_card.rollbacks >= 1      # the faults actually bit

        journal = str(tmp_path / "serve.jsonl")
        first = SessionManager(journal=journal)
        first.open_tenant(self._spec())
        self._feed(first, "cam0", chunks[:5])
        # SIGKILL: no close_tenant, no close — the journal already has
        # every per-batch checkpoint fsync'd
        del first

        second = SessionManager(journal=journal, resume=True)
        try:
            opened = second.open_tenant(self._spec())
            assert opened == {"resumed": True, "batches_done": 5,
                              "chunk": -1}
            self._feed(second, "cam0", chunks[5:],
                       faults_at={2})        # chunk index 7 is now 2
            assert strip_timing(second.scorecard("cam0")) == \
                strip_timing(twin_card)
            assert_states_identical(twin_state,
                                    second.session("cam0").model.state_dict())
        finally:
            second.close()
        twin.close()

    def test_resume_under_changed_spec_refused(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        first = SessionManager(journal=journal)
        first.open_tenant(self._spec())
        self._feed(first, "cam0", self._chunks()[:2], faults_at=())
        del first

        second = SessionManager(journal=journal, resume=True)
        try:
            with pytest.raises(AdmissionError, match="different spec"):
                second.open_tenant(spec_for("cam0", method="bn_opt",
                                            guard=True, seed=99))
        finally:
            second.close()

    def _journal_three_batches(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        first = SessionManager(journal=journal)
        first.open_tenant(self._spec())
        self._feed(first, "cam0", self._chunks()[:3], faults_at=())
        del first                            # SIGKILL: no close
        return journal

    def test_refused_resume_keeps_the_checkpoint(self, tmp_path):
        second = SessionManager(journal=self._journal_three_batches(tmp_path),
                                resume=True)
        try:
            with pytest.raises(AdmissionError, match="different spec"):
                second.open_tenant(spec_for("cam0", method="bn_opt",
                                            guard=True, seed=99))
            assert second.status()["suspended"] == ["cam0"]
            opened = second.open_tenant(self._spec())
            assert opened == {"resumed": True, "batches_done": 3,
                              "chunk": -1}
            assert second.status()["suspended"] == []
        finally:
            second.close()

    def test_resume_onto_other_weights_refused_and_kept(self, tmp_path,
                                                        monkeypatch):
        second = SessionManager(journal=self._journal_three_batches(tmp_path),
                                resume=True)
        build = SessionManager._build_session
        # same spec, but the model comes up with other frozen weights
        # (say, a retrained cache between daemon lives)
        monkeypatch.setattr(
            SessionManager, "_build_session",
            lambda manager, spec: build(manager, replace(spec, seed=99)))
        try:
            with pytest.raises(ValueError, match="frozen weights"):
                second.open_tenant(self._spec())
            assert second.status()["suspended"] == ["cam0"]
            monkeypatch.undo()
            opened = second.open_tenant(self._spec())
            assert opened["resumed"] and opened["batches_done"] == 3
        finally:
            second.close()

    def test_closed_tenant_does_not_resume(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        first = SessionManager(journal=journal)
        first.open_tenant(self._spec())
        self._feed(first, "cam0", self._chunks()[:2], faults_at=())
        first.close_tenant("cam0")
        del first

        second = SessionManager(journal=journal, resume=True)
        try:
            opened = second.open_tenant(self._spec())
            assert opened == {"resumed": False, "batches_done": 0,
                              "chunk": -1}
        finally:
            second.close()

    def test_journal_records_serve_events(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        manager = SessionManager(journal=journal)
        manager.open_tenant(self._spec())
        self._feed(manager, "cam0", self._chunks()[:2], faults_at=())
        manager.close_tenant("cam0")
        manager.close()

        events = [entry["event"] for entry in scan_journal(journal).entries]
        assert events[0] == "serve_start"
        assert events.count("tenant_open") == 1
        assert events.count("tenant_checkpoint") == 2
        assert events[-1] == "tenant_close"

    def test_checkpoint_every_thins_journal(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        manager = SessionManager(journal=journal, checkpoint_every=3)
        manager.open_tenant(self._spec())
        self._feed(manager, "cam0", self._chunks()[:6], faults_at=())
        manager.close()

        events = [entry["event"] for entry in scan_journal(journal).entries]
        assert events.count("tenant_checkpoint") == 2    # batches 3 and 6


class TestCheckpointCost:
    """A checkpoint is built only when a journal takes it."""

    @pytest.fixture
    def checkpoints(self, monkeypatch):
        """``batches_total`` at every ``AdaptationSession.checkpoint``."""
        calls = []
        original = AdaptationSession.checkpoint

        def counting(session):
            calls.append(session.batches_total)
            return original(session)

        monkeypatch.setattr(AdaptationSession, "checkpoint", counting)
        return calls

    def _stream(self, manager, batches):
        manager.open_tenant(spec_for("cam0"))
        for images, labels in make_batches(batches, batch_size=8):
            manager.ingest("cam0", images, labels)
        return manager.drain()

    def test_no_journal_never_builds_a_checkpoint(self, checkpoints):
        manager = SessionManager()
        try:
            reply = self._stream(manager, 4)
        finally:
            manager.close()
        assert checkpoints == []
        assert reply == {"checkpointed": ["cam0"], "skipped": [],
                         "compacted_entries": 0}

    def test_journal_checkpoints_every_nth_batch(self, tmp_path,
                                                 checkpoints):
        manager = SessionManager(journal=str(tmp_path / "serve.jsonl"),
                                 checkpoint_every=2)
        try:
            reply = self._stream(manager, 5)
        finally:
            manager.close()
        assert checkpoints == [2, 4, 5]     # batches 2 and 4, then drain
        assert reply["checkpointed"] == ["cam0"]

    def test_journal_grows_at_most_32kb_per_batch(self, tmp_path):
        """A checkpoint carries BN state, not model copies: for the
        default tenant (wrn40_2 tiny, bn_opt + guard) each batch's
        journal entry stays small."""
        journal = tmp_path / "serve.jsonl"
        manager = SessionManager(journal=str(journal))
        sizes = []
        try:
            manager.open_tenant(TenantSpec("cam0"))
            for images, labels in make_batches(3, batch_size=16):
                manager.ingest("cam0", images, labels)
                sizes.append(journal.stat().st_size)
        finally:
            manager.close()
        per_batch = (sizes[-1] - sizes[0]) / (len(sizes) - 1)
        assert 0 < per_batch <= 32 * 1024
