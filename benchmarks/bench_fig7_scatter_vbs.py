"""FIG7 — scatter: Manthan3 vs VBS(HQS2, Pedant).

Paper: performance is orthogonal to the existing tools, and on 47
instances Manthan3 is within 10 extra seconds of the baselines' VBS.  We
regenerate the per-instance (VBS time, Manthan3 time) pairs plus the
slack-band count.
"""

from benchmarks.conftest import bench_timeout, write_result
from repro.portfolio import scatter_pairs, within_slack_of_vbs


def test_fig7_scatter_vbs(campaign):
    baselines = ["expansion", "pedant"]
    pairs = scatter_pairs(campaign, baselines, "manthan3")
    slack_hits = within_slack_of_vbs(campaign, "manthan3", baselines,
                                     slack=10.0)
    timeout = bench_timeout()

    lines = ["FIG7 (scatter): VBS(HQS2*, Pedant*) vs Manthan3",
             "paper: 47 instances within +10 s of the VBS",
             "ours:  %d of %d instances within +10 s" % (len(slack_hits),
                                                         len(pairs)),
             "", "%-40s %12s %12s" % ("instance", "VBS(s)",
                                      "Manthan3(s)")]
    for name, t_vbs, t_m3 in pairs:
        lines.append("%-40s %12.3f %12.3f" % (name, t_vbs, t_m3))
    write_result("fig7_scatter_vbs.txt", lines)

    # Shape: the scatter is two-sided — neither axis dominates.
    m3_better = sum(1 for _, tv, tm in pairs
                    if tm < tv and tm < timeout)
    vbs_better = sum(1 for _, tv, tm in pairs
                     if tv < tm and tv < timeout)
    assert m3_better > 0, "Manthan3 should win somewhere"
    assert vbs_better > 0, "the baselines should win somewhere"
