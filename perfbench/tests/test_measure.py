"""The percentile rule and failure accounting."""

import numpy as np
import pytest

from measure import Tally, min_samples, percentile, steal_pct
from serve_workload import Tenant


class TestPercentileRule:
    def test_ten_samples_lie_beyond_the_reported_percentile(self):
        samples = list(range(1, 201))
        value = percentile(samples, 95)
        assert value == 190
        assert sum(sample > value for sample in samples) == 10

    def test_one_sample_short_is_refused(self):
        with pytest.raises(ValueError, match="200 samples are needed"):
            percentile(list(range(199)), 95)

    def test_minimum_counts(self):
        assert min_samples(95) == 200
        assert min_samples(90) == 100
        assert min_samples(50) == 20

    def test_order_of_input_does_not_matter(self):
        rng = np.random.default_rng(0)
        samples = list(rng.normal(size=400))
        assert percentile(samples, 95) == percentile(sorted(samples), 95)


def test_steal_is_the_share_of_host_cpu_time_taken_by_other_guests():
    before = [100, 0, 20, 500, 0, 0, 0, 30]
    after = [160, 0, 30, 520, 0, 0, 0, 40]
    assert steal_pct(before, after) == pytest.approx(10.0)
    assert steal_pct(before, before) == 0.0


class FakeClient:
    """A ServeClient stand-in that answers from a script."""

    def __init__(self, script):
        self.script = list(script)

    def send_frames(self, images, labels, *, chunk):
        outcome = self.script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return {"accepted": outcome, "dropped": len(labels) - outcome,
                "batches_done": 0, "rollbacks": 0}

    def scorecard(self):
        return None


class TestFailedPct:
    def _tenant(self, script):
        from repro.serve import TenantSpec

        batch = (np.zeros((16, 3, 2, 2), np.float32), np.zeros(16, np.int64))
        return Tenant(FakeClient(script), TenantSpec(tenant="t0"), [batch],
                      score_at=-1)

    def test_error_reply_timeout_and_partial_drop_fail_once_each(self):
        from repro.serve import ServeError, ServeTimeoutError

        tenant = self._tenant([16, ServeError("refused"),
                               ServeTimeoutError("no ack"), 10, 16])
        for _ in range(5):
            tenant.send(due=0)
        assert tenant.tally.attempted == 5
        assert tenant.tally.failed == 3
        assert tenant.tally.failed_pct == pytest.approx(60.0)
        assert tenant.dropped == 6

    def test_tally_counts_each_operation_once(self):
        tally = Tally()
        assert not tally.record(sent=16, accepted=16)
        assert tally.record(error="refused", sent=16, accepted=0, dropped=16)
        assert tally.record(sent=16, accepted=15, dropped=1)
        assert (tally.attempted, tally.failed) == (3, 2)
