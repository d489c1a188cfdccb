"""Chaos layer, pool level: retries, kills, OOM, and torn stores.

Worker processes are crashed, hung, starved of memory, and SIGKILLed
mid-write; the campaign layer must finish every time with a complete,
canonical record set — and when retries eventually succeed, with the
*same* result table a fault-free campaign produces.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core import Manthan3, Manthan3Config
from repro.core.result import Status, SynthesisResult
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.portfolio import parallel
from repro.portfolio.parallel import run_campaign
from repro.portfolio.runner import RunRecord
from repro.portfolio.store import CampaignStore
from repro.sat.faults import PLAN_ENV


def tiny_instance(name):
    cnf = CNF([[-2, 1], [2, -1]])
    return DQBFInstance([1], {2: [1]}, cnf, name=name)


def _good_result():
    return SynthesisResult(Status.SYNTHESIZED, functions={2: bf.var(1)},
                           stats={"wall_time": 0.01})


class FlakyOnceEngine:
    """Dies without reporting on the first attempt per instance (the
    marker file records the attempt across the worker fork), succeeds
    on every later one."""

    name = "flaky"

    def __init__(self, marker_dir):
        self.marker_dir = marker_dir

    def _first_attempt(self, instance):
        marker = os.path.join(self.marker_dir,
                              "%s-%s" % (self.name, instance.name))
        if os.path.exists(marker):
            return False
        with open(marker, "w"):
            pass
        return True

    def run(self, instance, timeout=None):
        if self._first_attempt(instance):
            os._exit(11)
        return _good_result()


class HangOnceEngine(FlakyOnceEngine):
    """Hangs past any deadline on the first attempt per instance."""

    name = "hangonce"

    def run(self, instance, timeout=None):
        if self._first_attempt(instance):
            time.sleep(3600)
        return _good_result()


class AlwaysCrashingEngine:
    name = "alwayscrash"

    def run(self, instance, timeout=None):
        os._exit(3)


class _ExitOnAccess(dict):
    """A function vector that kills the worker the moment the
    certifier reads it — after the engine already reported done."""

    def __getitem__(self, key):
        os._exit(7)


class CertCrashEngine:
    name = "certcrash"

    def run(self, instance, timeout=None):
        return SynthesisResult(Status.SYNTHESIZED,
                               functions=_ExitOnAccess({2: bf.var(1)}))


class MemoryErrorEngine:
    name = "memerr"

    def run(self, instance, timeout=None):
        raise MemoryError("synthetic allocation failure")


class RlimitProbeEngine:
    """Reports the worker's actual address-space ceiling."""

    name = "probe"

    def run(self, instance, timeout=None):
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        return SynthesisResult(Status.UNKNOWN, stats={"rlimit_as": soft})


class AllocatingEngine:
    """Genuinely allocates far past any sane ceiling."""

    name = "alloc"

    def run(self, instance, timeout=None):
        buf = bytearray(1 << 42)
        return SynthesisResult(Status.UNKNOWN, stats={"len": len(buf)})


class TestRetries:
    def test_retried_crashes_match_the_fault_free_table(self, tmp_path):
        instances = [tiny_instance("a"), tiny_instance("b")]
        engine = FlakyOnceEngine(str(tmp_path))
        table = run_campaign(instances, [engine], timeout=10, jobs=2,
                             max_retries=2, retry_backoff=0.01)
        for record in table.records:
            assert record.status == Status.SYNTHESIZED
            assert record.certified is True
            assert record.attempts == 2
            assert "retry_lost_time" in record.stats
        # The markers now exist, so the same engine runs fault-free;
        # eventual success must equal undisturbed success.
        clean = run_campaign(instances, [engine], timeout=10, jobs=2,
                             max_retries=2, retry_backoff=0.01)
        assert [(r.engine, r.instance, r.status, r.certified)
                for r in table.records] \
            == [(r.engine, r.instance, r.status, r.certified)
                for r in clean.records]
        assert all(r.attempts == 1 for r in clean.records)

    def test_hung_worker_killed_then_retried(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(parallel, "KILL_GRACE", 0.2)
        engine = HangOnceEngine(str(tmp_path))
        table = run_campaign([tiny_instance("a")], [engine], timeout=0.2,
                             jobs=2, max_retries=1, retry_backoff=0.01)
        record = table.record_for("hangonce", "a")
        assert record.status == Status.SYNTHESIZED
        assert record.attempts == 2
        assert record.stats["retry_lost_time"] > 0

    def test_exhausted_retries_keep_the_final_crash_record(self):
        table = run_campaign([tiny_instance("a")],
                             [AlwaysCrashingEngine()], timeout=10,
                             jobs=2, max_retries=2, retry_backoff=0.01)
        record = table.record_for("alwayscrash", "a")
        assert record.status == Status.UNKNOWN
        assert record.attempts == 3
        assert "exited" in record.reason
        assert record.stats.get("crashed") is True

    def test_no_retries_without_opt_in(self):
        table = run_campaign([tiny_instance("a")],
                             [AlwaysCrashingEngine()], timeout=10,
                             jobs=2)
        assert table.record_for("alwayscrash", "a").attempts == 1


class TestCrashDuringCertification:
    def test_detected_promptly_with_the_phase_recorded(self):
        start = time.monotonic()
        table = run_campaign([tiny_instance("a")], [CertCrashEngine()],
                             timeout=30, jobs=2)
        elapsed = time.monotonic() - start
        record = table.record_for("certcrash", "a")
        assert record.status == Status.UNKNOWN
        assert record.stats.get("crashed") is True
        assert record.stats.get("crash_phase") == "certification"
        assert "certification" in record.reason
        # The death is noticed by liveness/EOF, never by waiting out
        # the 30 s run budget (certifying slots are kill-exempt).
        assert elapsed < 15


class TestMemoryCeilings:
    def test_memory_error_is_a_clean_unretried_unknown(self):
        table = run_campaign([tiny_instance("a")], [MemoryErrorEngine()],
                             timeout=10, jobs=2, max_retries=3,
                             retry_backoff=0.01)
        record = table.record_for("memerr", "a")
        assert record.status == Status.UNKNOWN
        assert record.stats.get("oom") is True
        assert "out of memory" in record.reason
        assert record.attempts == 1

    def test_rss_ceiling_is_applied_inside_workers(self):
        pytest.importorskip("resource")
        table = run_campaign([tiny_instance("a")], [RlimitProbeEngine()],
                             timeout=10, jobs=2, memory_limit_mb=512)
        record = table.record_for("probe", "a")
        assert record.stats["rlimit_as"] == 512 << 20

    def test_real_allocation_failure_is_contained(self):
        pytest.importorskip("resource")
        table = run_campaign([tiny_instance("a")], [AllocatingEngine()],
                             timeout=10, jobs=2, memory_limit_mb=256,
                             max_retries=2, retry_backoff=0.01)
        record = table.record_for("alloc", "a")
        assert record.status == Status.UNKNOWN
        assert record.stats.get("oom") is True
        assert "address-space ceiling" in record.reason
        assert record.attempts == 1


def _spam_records(path):
    store = CampaignStore(path)
    store.open(meta={"timeout": 1.0})
    i = 0
    while True:
        store.append(RunRecord("e", "i%06d" % i, Status.SYNTHESIZED,
                               0.01, certified=True,
                               stats={"pad": "x" * 200}))
        i += 1


class TestSigkillMidAppend:
    def test_store_survives_a_kill_at_an_arbitrary_write(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(target=_spam_records, args=(path,))
        writer.start()
        time.sleep(0.3)
        os.kill(writer.pid, signal.SIGKILL)
        writer.join()

        store = CampaignStore(path)
        records = list(store.iter_records())   # must not raise
        assert records, "writer had time to land at least one record"
        names = [r.instance for r in records]
        assert names == ["i%06d" % k for k in range(len(names))], \
            "surviving records must be a clean prefix"
        # Resume-append over the (possibly torn) tail, then reload.
        store.open(resume=True)
        store.append(RunRecord("e", "extra", Status.FALSE, 0.0))
        store.close()
        final = list(store.iter_records())
        assert [r.instance for r in final] == names + ["extra"]
        assert store.read_meta()["timeout"] == 1.0


class TestCampaignThroughFaultyOracle:
    """End-to-end: a campaign whose every oracle dies once recovers to
    the exact fault-free table, twice over (determinism)."""

    def _signature(self, table):
        return [(r.instance, str(r.status), r.certified,
                 {y: f.to_infix()
                  for y, f in (r.result.functions or {}).items()}
                 if r.result is not None else None)
                for r in table.records]

    def test_deterministic_and_equal_to_fault_free(self, monkeypatch):
        instances = [tiny_instance("a"), tiny_instance("b")]

        def engine(**overrides):
            return Manthan3(Manthan3Config(seed=9, **overrides))

        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        faulty = {"sat_backend": "faulty:python",
                  "sat_backend_fallbacks": ["python"]}
        first = run_campaign(instances, [engine(**faulty)], timeout=30,
                             jobs=2)
        second = run_campaign(instances, [engine(**faulty)], timeout=30,
                              jobs=2)
        monkeypatch.delenv(PLAN_ENV)
        clean = run_campaign(instances, [engine()], timeout=30, jobs=2)

        assert self._signature(first) == self._signature(second) \
            == self._signature(clean)
        for record in first.records:
            assert record.stats["oracle"]["failovers"] >= 1
        for record in clean.records:
            assert record.stats["oracle"]["failovers"] == 0
