"""FIG9 — scatter: Manthan3 vs HQS2.

Paper: 40 instances are solved by Manthan3 but not HQS2.  We regenerate
the per-instance pairs against the expansion engine.
"""

from benchmarks.conftest import bench_timeout, write_result
from repro.portfolio import scatter_pairs


def test_fig9_scatter_hqs(campaign):
    pairs = scatter_pairs(campaign, "expansion", "manthan3")
    timeout = bench_timeout()

    m3_only = [n for n, th, tm in pairs if tm < timeout <= th]
    hqs_only = [n for n, th, tm in pairs if th < timeout <= tm]

    lines = ["FIG9 (scatter): HQS2* vs Manthan3",
             "paper: 40 instances only Manthan3; incomparable overall",
             "ours:  %d only Manthan3, %d only HQS2*" % (
                 len(m3_only), len(hqs_only)),
             "", "%-40s %12s %12s" % ("instance", "HQS2*(s)",
                                      "Manthan3(s)")]
    for name, th, tm in pairs:
        lines.append("%-40s %12.3f %12.3f" % (name, th, tm))
    write_result("fig9_scatter_hqs.txt", lines)

    assert m3_only, "Manthan3 must solve something HQS2* cannot"
    assert hqs_only, "HQS2* must solve something Manthan3 cannot"
