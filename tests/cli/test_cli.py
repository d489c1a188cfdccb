"""Tests for the command-line interface."""

import os

import pytest

from repro.cli.main import main
from repro.parsing import write_dqdimacs

EXAMPLE = """p cnf 3 2
a 1 0
d 2 1 0
d 3 1 0
1 2 0
-2 3 0
"""

FALSE_EXAMPLE = """p cnf 2 2
a 1 0
d 2 0
2 -1 0
-2 1 0
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.dqdimacs"
    path.write_text(EXAMPLE)
    return str(path)


class TestSynth:
    @pytest.mark.parametrize("engine", ["manthan3", "expansion",
                                        "pedant"])
    def test_engines_synthesize(self, instance_file, engine, capsys):
        code = main(["synth", instance_file, "--engine", engine,
                     "--timeout", "30"])
        assert code == 10
        out = capsys.readouterr()
        assert "y2 =" in out.out
        assert "VALID" in out.err

    def test_false_instance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "false.dqdimacs"
        path.write_text(FALSE_EXAMPLE)
        code = main(["synth", str(path), "--engine", "expansion"])
        assert code == 20

    def test_unknown_exit_code(self, tmp_path):
        from repro.benchgen import generate_planted_instance

        inst = generate_planted_instance(seed=1)
        path = tmp_path / "wide.dqdimacs"
        path.write_text(write_dqdimacs(inst))
        code = main(["synth", str(path), "--engine", "expansion"])
        assert code == 30

    def test_aiger_output(self, instance_file, capsys):
        code = main(["synth", instance_file, "--engine", "expansion",
                     "--output-format", "aiger"])
        assert code == 10
        out = capsys.readouterr().out
        assert out.startswith("aag ")

    def test_verilog_to_file(self, instance_file, tmp_path):
        target = str(tmp_path / "patch.v")
        code = main(["synth", instance_file, "--engine", "expansion",
                     "--output-format", "verilog", "-o", target])
        assert code == 10
        with open(target) as handle:
            assert "module henkin_patch" in handle.read()

    def test_unknown_engine_rejected(self, instance_file):
        with pytest.raises(SystemExit):
            main(["synth", instance_file, "--engine", "magic"])

    def test_sat_backend_flag(self, instance_file, capsys):
        code = main(["synth", instance_file, "--timeout", "30",
                     "--sat-backend", "python-emulated"])
        assert code == 10
        assert "VALID" in capsys.readouterr().err

    def test_unavailable_backend_fails_cleanly(self, instance_file,
                                               monkeypatch):
        monkeypatch.setattr("repro.sat.backend.backend_available",
                            lambda name: False)
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", instance_file,
                  "--sat-backend", "python-emulated"])
        assert "not installed" in str(excinfo.value)

    def test_unknown_backend_rejected(self, instance_file):
        with pytest.raises(SystemExit):
            main(["synth", instance_file, "--sat-backend", "magic"])


class TestInfo:
    def test_info_output(self, instance_file, capsys):
        assert main(["info", instance_file]) == 0
        out = capsys.readouterr().out
        assert "universals     1" in out
        assert "existentials   2" in out


class TestGen:
    @pytest.mark.parametrize("family", ["pec", "controller",
                                        "succinct-sat", "planted",
                                        "xor-chain", "defined-pec"])
    def test_families_generate_parseable_files(self, family, tmp_path,
                                               capsys):
        target = str(tmp_path / "gen.dqdimacs")
        assert main(["gen", family, "--seed", "2", "-o", target]) == 0
        code = main(["info", target])
        assert code == 0

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["gen", "nonsense"])


class TestBench:
    def test_smoke_campaign_report(self, tmp_path):
        target = str(tmp_path / "report.txt")
        code = main(["bench", "--suite", "smoke", "--timeout", "3",
                     "--seed", "1", "-o", target])
        assert code == 0
        with open(target) as handle:
            text = handle.read()
        assert "solved counts" in text
        assert "virtual best synthesizer" in text


class TestRunSuite:
    ARGS = ["run-suite", "--suite", "smoke", "--limit", "2",
            "--engines", "expansion,manthan3", "--timeout", "20",
            "--seed", "0", "--jobs", "2"]

    def test_parallel_campaign_with_store(self, tmp_path, capsys):
        from repro.portfolio import CampaignStore

        out = str(tmp_path / "campaign.jsonl")
        report = str(tmp_path / "report.txt")
        code = main(self.ARGS + ["--out", out, "--report", report])
        assert code == 0
        err = capsys.readouterr().err
        assert "4 runs executed, 0 resumed" in err

        table = CampaignStore(out).load()
        assert len(table.records) == 4
        assert sorted(table.engines()) == ["expansion", "manthan3"]
        with open(report) as handle:
            assert "solved counts" in handle.read()

    def test_resume_executes_nothing(self, tmp_path, capsys):
        out = str(tmp_path / "campaign.jsonl")
        assert main(self.ARGS + ["--out", out]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--out", out, "--resume"]) == 0
        captured = capsys.readouterr()
        assert "0 runs executed, 4 resumed" in captured.err
        assert "solved counts" in captured.out

    def test_matches_sequential_run(self, tmp_path, capsys):
        from repro.portfolio import CampaignStore

        parallel_out = str(tmp_path / "p.jsonl")
        serial_out = str(tmp_path / "s.jsonl")
        assert main(self.ARGS + ["--out", parallel_out]) == 0
        serial_args = list(self.ARGS)
        serial_args[serial_args.index("--jobs") + 1] = "1"
        assert main(serial_args + ["--out", serial_out]) == 0
        capsys.readouterr()

        parallel = CampaignStore(parallel_out).load()
        serial = CampaignStore(serial_out).load()
        assert {(r.engine, r.instance, r.status)
                for r in parallel.records} \
            == {(r.engine, r.instance, r.status)
                for r in serial.records}
        for engine in ("expansion", "manthan3"):
            assert parallel.solved_instances(engine) \
                == serial.solved_instances(engine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["run-suite", "--engines", "expansion,magic"])

    def test_empty_engine_selection_rejected(self):
        with pytest.raises(SystemExit):
            main(["run-suite", "--engines", ","])


class TestElasticDrain:
    """The line a worker drained by SIGTERM prints about the campaign
    it leaves unfinished."""

    ARGS = ["run-suite", "--suite", "smoke", "--limit", "1",
            "--engines", "expansion", "--timeout", "20", "--seed", "0",
            "--elastic", "--worker-id", "w1"]

    @pytest.fixture
    def sigterm_before_first_claim(self, monkeypatch):
        import signal

        from repro.portfolio.elastic import ElasticWorker

        real_run = ElasticWorker.run

        def run(worker):
            os.kill(os.getpid(), signal.SIGTERM)  # the CLI's handler drains
            return real_run(worker)

        monkeypatch.setattr(ElasticWorker, "run", run)
        handler = signal.getsignal(signal.SIGTERM)
        yield
        signal.signal(signal.SIGTERM, handler)

    def test_no_lease_held(self, tmp_path, capsys,
                           sigterm_before_first_claim):
        out = str(tmp_path / "e.jsonl")
        assert main(self.ARGS + ["--out", out]) == 0
        err = capsys.readouterr().err
        assert "0 executed" in err and "(drained)" in err
        assert "campaign unfinished: no worker holds a lease" in err
        assert "other workers hold leases" not in err

    def test_another_worker_holds_a_lease(self, tmp_path, capsys,
                                          sigterm_before_first_claim):
        from repro.benchgen import build_suite
        from repro.portfolio.leases import LeaseLog, lease_log_path

        out = str(tmp_path / "e.jsonl")
        instance = build_suite("smoke", seed=0)[0]
        assert LeaseLog(lease_log_path(out)).claim(
            ("expansion", instance.name), "w2", duration=3600)
        assert main(self.ARGS + ["--out", out]) == 0
        err = capsys.readouterr().err
        assert "(drained)" in err
        assert "campaign still in progress: other workers hold leases" \
            in err
        assert "no worker holds a lease" not in err
