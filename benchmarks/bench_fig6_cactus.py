"""FIG6 — the cactus plot of Figure 6.

Paper: VBS(HQS2, Pedant) solves 178 of 563; adding Manthan3 lifts the
portfolio to 204 (+26).  We regenerate both cactus series on the
synthetic suite and assert the *shape*: the VBS that includes Manthan3
solves at least as many instances, with a strict improvement expected on
the default suite (the planted wide-dependency slice).
"""

from benchmarks.conftest import write_result
from repro.portfolio import cactus_series, vbs_times


def _series_lines(label, series):
    lines = ["%s: %d instances solved" % (label, len(series))]
    for k, t in enumerate(series, start=1):
        lines.append("  %3d solved within %8.3f s" % (k, t))
    return lines


def test_fig6_cactus(campaign):
    baselines = ["expansion", "pedant"]
    full = ["manthan3", "expansion", "pedant"]
    without_m3 = cactus_series(campaign, baselines)
    with_m3 = cactus_series(campaign, full)

    lines = ["FIG6 (cactus): VBS vs VBS+Manthan3",
             "paper: 178 -> 204 solved (+26 from Manthan3)",
             "ours:  %d -> %d solved (+%d)" % (
                 len(without_m3), len(with_m3),
                 len(with_m3) - len(without_m3)),
             ""]
    lines += _series_lines("VBS(HQS2*, Pedant*)", without_m3)
    lines += [""]
    lines += _series_lines("VBS(+Manthan3)", with_m3)
    write_result("fig6_cactus.txt", lines)

    # Shape assertions (Figure 6's claim).
    assert len(with_m3) >= len(without_m3)
    assert set(vbs_times(campaign, baselines)) <= \
        set(vbs_times(campaign, full))
