"""FIG10 — scatter: Pedant vs HQS2.

Paper: even between the existing tools there is no best — both solve
(almost) the same count but on different instance classes.  We
regenerate the pairs between the two baseline stand-ins.
"""

from benchmarks.conftest import bench_timeout, write_result
from repro.portfolio import scatter_pairs, solved_counts


def test_fig10_scatter_baselines(campaign):
    pairs = scatter_pairs(campaign, "expansion", "pedant")
    timeout = bench_timeout()
    counts = solved_counts(campaign, ["expansion", "pedant"])

    pedant_only = [n for n, th, tp in pairs if tp < timeout <= th]
    hqs_only = [n for n, th, tp in pairs if th < timeout <= tp]

    lines = ["FIG10 (scatter): HQS2* vs Pedant*",
             "paper: no best tool among the baselines",
             "ours:  HQS2* solves %d, Pedant* solves %d; "
             "%d only HQS2*, %d only Pedant*" % (
                 counts["expansion"], counts["pedant"],
                 len(hqs_only), len(pedant_only)),
             "", "%-40s %12s %12s" % ("instance", "HQS2*(s)",
                                      "Pedant*(s)")]
    for name, th, tp in pairs:
        lines.append("%-40s %12.3f %12.3f" % (name, th, tp))
    write_result("fig10_scatter_baselines.txt", lines)

    # Shape: the baselines are incomparable on this suite too.
    assert pedant_only or hqs_only
