"""Shared campaign fixture for the figure/table benchmarks.

Running three engines over the whole suite is the expensive part, so it
happens once per pytest session — through the parallel campaign
subsystem (`repro.portfolio.parallel`), fanned over worker processes
and streamed to ``benchmarks/results/campaign.jsonl`` so an
interrupted benchmark session resumes instead of restarting.  Each
``bench_*`` module derives its figure/table from the shared
:class:`ResultTable` and writes the rows it regenerates to
``benchmarks/results/``.

Engines are specified by *name*, so every job gets a deterministic
per-(engine, instance) seed and the campaign reproduces identically
for any worker count.

Knobs (environment variables):

* ``REPRO_BENCH_SUITE``   — suite size (smoke/small/medium; default small)
* ``REPRO_BENCH_TIMEOUT`` — per-run timeout in seconds (default 10)
* ``REPRO_BENCH_SEED``    — suite seed (default 0)
* ``REPRO_BENCH_JOBS``    — worker processes (default: up to 8 cores)
* ``REPRO_BENCH_RESUME``  — set to 1 to resume from the campaign store
"""

import os

import pytest

from repro.benchgen import build_suite
from repro.portfolio import CampaignStore, run_campaign

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

ENGINES = ["manthan3", "expansion", "pedant"]

# Engine display names: the stand-ins keep the paper's tool names in the
# figure outputs so rows read like the original evaluation.
PAPER_NAMES = {
    "manthan3": "Manthan3",
    "expansion": "HQS2*",
    "pedant": "Pedant*",
}


def bench_timeout():
    return float(os.environ.get("REPRO_BENCH_TIMEOUT", "10"))


def bench_jobs():
    configured = int(os.environ.get("REPRO_BENCH_JOBS", "0"))
    return configured or min(os.cpu_count() or 1, 8)


@pytest.fixture(scope="session")
def campaign_config():
    """The knobs the session campaign ran with (for report headers)."""
    return {
        "suite": os.environ.get("REPRO_BENCH_SUITE", "small"),
        "seed": int(os.environ.get("REPRO_BENCH_SEED", "0")),
        "timeout": bench_timeout(),
        "jobs": bench_jobs(),
        "resume": os.environ.get("REPRO_BENCH_RESUME") == "1",
    }


@pytest.fixture(scope="session")
def campaign(campaign_config):
    """Run the evaluation campaign once: suite × {Manthan3, HQS2*, Pedant*}."""
    suite = build_suite(campaign_config["suite"],
                        seed=campaign_config["seed"])
    os.makedirs(RESULTS_DIR, exist_ok=True)
    store = CampaignStore(os.path.join(RESULTS_DIR, "campaign.jsonl"))
    return run_campaign(suite, ENGINES,
                        timeout=campaign_config["timeout"],
                        jobs=campaign_config["jobs"],
                        seed=campaign_config["seed"],
                        store=store,
                        resume=campaign_config["resume"])


def write_result(filename, lines):
    """Persist regenerated figure/table rows under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    text = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    print("\n" + text)
    return path
