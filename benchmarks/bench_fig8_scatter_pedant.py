"""FIG8 — scatter: Manthan3 vs Pedant.

Paper: 37 instances are solved by Manthan3 but not Pedant; the tools are
incomparable.  We regenerate the per-instance pairs and the one-sided
solve counts.
"""

from benchmarks.conftest import bench_timeout, write_result
from repro.portfolio import scatter_pairs


def test_fig8_scatter_pedant(campaign):
    pairs = scatter_pairs(campaign, "pedant", "manthan3")
    timeout = bench_timeout()

    m3_only = [n for n, tp, tm in pairs if tm < timeout <= tp]
    pedant_only = [n for n, tp, tm in pairs if tp < timeout <= tm]

    lines = ["FIG8 (scatter): Pedant* vs Manthan3",
             "paper: 37 instances only Manthan3; incomparable overall",
             "ours:  %d only Manthan3, %d only Pedant*" % (
                 len(m3_only), len(pedant_only)),
             "", "%-40s %12s %12s" % ("instance", "Pedant*(s)",
                                      "Manthan3(s)")]
    for name, tp, tm in pairs:
        lines.append("%-40s %12.3f %12.3f" % (name, tp, tm))
    write_result("fig8_scatter_pedant.txt", lines)

    assert m3_only, "Manthan3 must solve something Pedant* cannot"
    assert pedant_only, "Pedant* must solve something Manthan3 cannot"
