"""Textual evaluation reports: the whole §6 analysis from one table.

:func:`render_report` turns a :class:`~repro.portfolio.runner.ResultTable`
into the complete set of quantities the paper's evaluation section
discusses — per-engine solved counts, the VBS comparison of Figure 6,
per-pair scatter summaries (Figures 7–10), fastest-tool counts, unique
solves, and the unsolved breakdown.  The benchmark harness and the CLI
both render through this module so their outputs stay consistent.
"""

from repro.core.pipeline import REPAIR_CAP, REPAIR_CYCLED, REPAIR_STAGNATED
from repro.portfolio.vbs import (
    cactus_series,
    fastest_counts,
    scatter_pairs,
    solved_counts,
    unique_solves,
    unsolved_breakdown,
    vbs_times,
    within_slack_of_vbs,
)


def phase_breakdown(table):
    """Per-engine seconds per pipeline phase, summed over records.

    Reads the ``stats["phases"]`` timings the staged pipeline attaches
    to every run (stored campaigns round-trip them through the JSONL
    store, and pool workers ship them over IPC).  Engines that report
    no phase timings — the baselines — are simply absent.
    """
    out = {}
    for record in table.records:
        phases = record.stats.get("phases")
        if not phases:
            continue
        agg = out.setdefault(record.engine, {})
        for name, seconds in phases.items():
            agg[name] = agg.get(name, 0.0) + seconds
    return out


def resilience_summary(table):
    """Aggregate fault/retry accounting over the table's records.

    Reads the resilience bookkeeping the pool and the oracle layer
    attach: per-record ``attempts`` (retried jobs carry > 1 plus
    ``stats["retry_lost_time"]``), the ``killed``/``crashed``/``oom``
    stat markers, and the ``stats["oracle"]["failovers"]`` counter of
    mid-run backend swaps.  All-zero on an untroubled campaign — the
    report omits the section entirely then.
    """
    out = {"retried_runs": 0, "extra_attempts": 0, "retry_lost_time": 0.0,
           "killed": 0, "crashed": 0, "oom": 0, "failovers": 0}
    for record in table.records:
        attempts = getattr(record, "attempts", 1)
        if attempts > 1:
            out["retried_runs"] += 1
            out["extra_attempts"] += attempts - 1
        out["retry_lost_time"] += record.stats.get("retry_lost_time", 0.0)
        for key in ("killed", "crashed", "oom"):
            if record.stats.get(key):
                out[key] += 1
        oracle = record.stats.get("oracle")
        if isinstance(oracle, dict):
            out["failovers"] += oracle.get("failovers", 0)
    return out


def race_summary(table):
    """Aggregate racing outcomes, or ``None`` when nothing raced.

    Reads the ``stats["race"]`` block
    :class:`~repro.portfolio.racing.RacingEngine` attaches to every
    race record: wins per member spec, and the wall clock saved versus
    the slowest member that ran to a natural finish (cancelled losers
    never reveal their full solo time, so this is a lower bound).
    """
    races = 0
    wins = {}
    saved = 0.0
    for record in table.records:
        race = record.stats.get("race")
        if not isinstance(race, dict):
            continue
        races += 1
        winner = race.get("winner")
        if winner:
            wins[winner] = wins.get(winner, 0) + 1
        saved += race.get("saved", 0.0)
    if not races:
        return None
    return {"races": races, "wins": wins, "saved": saved}


def elastic_summary(table):
    """Aggregate elastic-campaign accounting, or ``None``.

    Only merged elastic campaigns carry ``stats["lease"]`` (stamped by
    :func:`~repro.portfolio.elastic.merge_shards`); per-record
    ``stats["worker"]`` attributes each run to the worker that
    executed it.
    """
    leased = 0
    claims = 0
    reclaims = 0
    workers = {}
    for record in table.records:
        lease = record.stats.get("lease")
        if not isinstance(lease, dict):
            continue
        leased += 1
        claims += lease.get("claims", 0)
        reclaims += lease.get("reclaims", 0)
        worker = (record.stats.get("worker") or {}).get("id") \
            or lease.get("worker") or "?"
        workers[worker] = workers.get(worker, 0) + 1
    if not leased:
        return None
    return {"runs": leased, "claims": claims, "reclaims": reclaims,
            "workers": workers}


def cache_summary(table):
    """Aggregate solution-cache accounting, or ``None``.

    Reads the ``stats["cache"]`` block every cache-consulting entry
    point stamps (``{"fingerprint", "hit", "proof"?, "certify_s"?,
    "evicted"?}``); ``proved`` counts hits by how they were proven
    (``"sat"`` or ``"renaming"``).  Campaigns run without a cache carry
    no such blocks and the report omits the section entirely.
    """
    consulted = 0
    hits = 0
    proved = {"sat": 0, "renaming": 0}
    evictions = 0
    certify_s = 0.0
    for record in table.records:
        info = record.stats.get("cache")
        if not isinstance(info, dict):
            continue
        consulted += 1
        if info.get("hit"):
            hits += 1
            proof = info.get("proof", "sat")
            proved[proof] = proved.get(proof, 0) + 1
            certify_s += info.get("certify_s", 0.0)
        if info.get("evicted"):
            evictions += 1
    if not consulted:
        return None
    return {"consulted": consulted, "hits": hits,
            "misses": consulted - hits, "proved": proved,
            "evictions": evictions, "certify_s": certify_s}


#: Report label of each verify–repair ``UNKNOWN`` exit, by its reason.
UNKNOWN_STOP_LABELS = {REPAIR_CYCLED: "cycled",
                       REPAIR_STAGNATED: "stagnated",
                       REPAIR_CAP: "iteration cap"}


def unknown_stop_reasons(table, engine, instances):
    """Count ``engine``'s records on ``instances`` by why the run
    stopped, reading the persisted ``record.reason``; a reason that is
    not a verify–repair exit counts as ``"other"``."""
    counts = dict.fromkeys(UNKNOWN_STOP_LABELS.values(), 0)
    counts["other"] = 0
    for instance in instances:
        reason = table.record_for(engine, instance).reason
        counts[UNKNOWN_STOP_LABELS.get(reason, "other")] += 1
    return counts


def render_report(table, main_engine="manthan3", display_names=None,
                  slack=10.0):
    """Render the full evaluation report; returns a list of lines."""
    engines = table.engines()
    names = display_names or {e: e for e in engines}
    others = [e for e in engines if e != main_engine]
    total = len(table.instances())
    lines = []

    lines.append("=" * 64)
    lines.append("Evaluation report: %d instances x %d engines"
                 % (total, len(engines)))
    lines.append("=" * 64)

    lines.append("")
    lines.append("-- solved counts --")
    for engine, count in sorted(solved_counts(table).items()):
        lines.append("  %-12s %4d / %d" % (names.get(engine, engine),
                                           count, total))

    if main_engine in engines and others:
        without = cactus_series(table, others)
        with_main = cactus_series(table, engines)
        lines.append("")
        lines.append("-- virtual best synthesizer (Figure 6) --")
        lines.append("  VBS(%s): %d solved"
                     % (", ".join(names.get(e, e) for e in others),
                        len(without)))
        lines.append("  VBS(all): %d solved (+%d from %s)"
                     % (len(with_main), len(with_main) - len(without),
                        names.get(main_engine, main_engine)))
        hits = within_slack_of_vbs(table, main_engine, others,
                                   slack=slack)
        lines.append("  %s within +%.0f s of VBS(others) on %d instances"
                     % (names.get(main_engine, main_engine), slack,
                        len(hits)))

    breakdown = phase_breakdown(table)
    if breakdown:
        lines.append("")
        lines.append("-- per-phase time breakdown --")
        for engine in sorted(breakdown):
            phases = breakdown[engine]
            total = sum(phases.values())
            lines.append("  %s" % names.get(engine, engine))
            for phase, seconds in phases.items():
                share = 100.0 * seconds / total if total > 0 else 0.0
                lines.append("    %-14s %9.3f s  (%5.1f%%)"
                             % (phase, seconds, share))

    resilience = resilience_summary(table)
    if any(resilience.values()):
        lines.append("")
        lines.append("-- fault resilience --")
        lines.append("  retried runs:      %d (%d extra attempts, "
                     "%.3f s lost to failed attempts)"
                     % (resilience["retried_runs"],
                        resilience["extra_attempts"],
                        resilience["retry_lost_time"]))
        lines.append("  hung-worker kills: %d" % resilience["killed"])
        lines.append("  worker crashes:    %d" % resilience["crashed"])
        lines.append("  worker OOMs:       %d" % resilience["oom"])
        lines.append("  oracle failovers:  %d" % resilience["failovers"])

    race = race_summary(table)
    if race:
        lines.append("")
        lines.append("-- engine racing --")
        lines.append("  raced runs:        %d" % race["races"])
        for member, count in sorted(race["wins"].items()):
            lines.append("  wins %-14s %d" % (member, count))
        lines.append("  wall-clock saved vs slowest finisher: %.3f s"
                     % race["saved"])

    elastic = elastic_summary(table)
    if elastic:
        lines.append("")
        lines.append("-- elastic campaign --")
        for worker, count in sorted(elastic["workers"].items()):
            lines.append("  worker %-16s %d jobs" % (worker, count))
        lines.append("  reclaimed leases:  %d (of %d claims)"
                     % (elastic["reclaims"], elastic["claims"]))

    cache = cache_summary(table)
    if cache:
        lines.append("")
        lines.append("-- solution cache --")
        lines.append("  hits / misses:     %d / %d"
                     % (cache["hits"], cache["misses"]))
        lines.append("  hits proved by:    SAT %d / renaming %d"
                     % (cache["proved"]["sat"],
                        cache["proved"]["renaming"]))
        lines.append("  poisoned evicted:  %d" % cache["evictions"])
        lines.append("  hit proofs:        %.3f s total"
                     % cache["certify_s"])

    lines.append("")
    lines.append("-- pairwise comparisons (Figures 7-10) --")
    for i, a in enumerate(engines):
        for b in engines[i + 1:]:
            pairs = scatter_pairs(table, a, b)
            timeout = table.timeout or float("inf")
            a_only = sum(1 for _, ta, tb in pairs
                         if ta < timeout <= tb)
            b_only = sum(1 for _, ta, tb in pairs
                         if tb < timeout <= ta)
            lines.append("  %s vs %s: %d only-%s, %d only-%s"
                         % (names.get(a, a), names.get(b, b),
                            a_only, names.get(a, a),
                            b_only, names.get(b, b)))

    lines.append("")
    lines.append("-- fastest engine per instance --")
    for engine, count in sorted(fastest_counts(table).items()):
        lines.append("  %-12s fastest on %d" % (names.get(engine, engine),
                                                count))

    lines.append("")
    lines.append("-- unique solves --")
    for engine in engines:
        uniques = unique_solves(table, engine,
                                [e for e in engines if e != engine])
        lines.append("  only %-12s %d" % (names.get(engine, engine),
                                          len(uniques)))
        for name in uniques:
            lines.append("      %s" % name)

    if main_engine in engines:
        solvable = set(vbs_times(table, engines))
        breakdown = unsolved_breakdown(table, main_engine)
        missed_unknown = [i for i in breakdown.get("UNKNOWN", ())
                          if i in solvable]
        missed_timeout = [i for i in breakdown.get("TIMEOUT", ())
                          if i in solvable]
        lines.append("")
        lines.append("-- %s unsolved-but-solvable breakdown --"
                     % names.get(main_engine, main_engine))
        lines.append("  incompleteness (UNKNOWN): %d"
                     % len(missed_unknown))
        stops = unknown_stop_reasons(table, main_engine, missed_unknown)
        for label, count in stops.items():
            lines.append("    %-22s %d" % (label + ":", count))
        lines.append("  timeout:                  %d"
                     % len(missed_timeout))
    return lines
