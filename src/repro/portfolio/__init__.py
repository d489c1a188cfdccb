"""Multi-engine execution and Virtual-Best-Synthesizer analytics.

The paper's evaluation (§6) centres on the VBS: an instance counts as
solved by a portfolio if at least one member synthesizes functions for
it, at the minimum member time.  This package runs engine suites over
instance lists (certificate-checking every claimed vector) and computes
the quantities behind Figure 6 (cactus), Figures 7–10 (scatters) and the
solved/unique/fastest counts quoted in the text.

Campaigns scale out through :mod:`repro.portfolio.parallel` (a
process pool with hard per-run deadlines and deterministic per-job
seeding) and persist through :mod:`repro.portfolio.store` (a resumable
JSONL record stream that round-trips back into a
:class:`~repro.portfolio.runner.ResultTable`).
"""

from repro.portfolio.elastic import ElasticWorker, merge_shards
from repro.portfolio.leases import LeaseLog, lease_log_path
from repro.portfolio.parallel import (
    ENGINE_SPECS,
    RACE_PREFIX,
    BaselineEngineSpec,
    PipelineEngineSpec,
    RaceEngineSpec,
    derive_job_seed,
    engine_names,
    resolve_engine_spec,
    run_campaign,
)
from repro.portfolio.racing import RacingEngine
from repro.portfolio.runner import ResultTable, RunRecord, evaluate_run
from repro.portfolio.store import CampaignStore
from repro.portfolio.vbs import (
    vbs_times,
    cactus_series,
    scatter_pairs,
    solved_counts,
    unique_solves,
    fastest_counts,
    within_slack_of_vbs,
    unsolved_breakdown,
)

__all__ = [
    "RunRecord",
    "ResultTable",
    "run_campaign",
    "evaluate_run",
    "CampaignStore",
    "ENGINE_SPECS",
    "RACE_PREFIX",
    "BaselineEngineSpec",
    "PipelineEngineSpec",
    "RaceEngineSpec",
    "RacingEngine",
    "engine_names",
    "resolve_engine_spec",
    "derive_job_seed",
    "ElasticWorker",
    "merge_shards",
    "LeaseLog",
    "lease_log_path",
    "vbs_times",
    "cactus_series",
    "scatter_pairs",
    "solved_counts",
    "unique_solves",
    "fastest_counts",
    "within_slack_of_vbs",
    "unsolved_breakdown",
]
