"""The chart bytes, pinned: the charts use only Python floats, so a sha256 of
each fixed input's SVG holds across numpy versions."""

import hashlib

import pytest

from contagion_control import svg

CHARTS = {
    "box with both theory overlays": (
        lambda: svg.boxplot_svg(
            "box", ["625", "10000"],
            [(0.1, 0.2, 0.25, 0.3, 0.45), (0.18, 0.22, 0.24, 0.26, 0.3)], [0.26, 0.245], 0.24),
        "3bb30ea2539d9f70b7f1ad135dbfbf56e14176565d6b64c12c738876fa68b23e"),
    "box on a flat range": (
        lambda: svg.boxplot_svg("flat", ["a", "b"], [(0.5,) * 5, (0.5,) * 5]),
        "1fcb19a7aa95dc74a2987c43815a0d21c8c2499ddab0d8a7eece7fe8791074b6"),
    "loglog with one fit": (
        lambda: svg.loglog_svg(
            "dispersion", [625, 2401, 10000],
            {"sd": [0.02, 0.01, 0.005], "iqr": [0.03, 0.012, 0.007]}, {"sd": (-0.5, -0.3)}),
        "df4442abf89df59c3edd56e44698c8de9137b626086e399b302580cbf14f372d"),
    "loglog of an all-zero series": (
        lambda: svg.loglog_svg("zero", [625, 10000], {"sd": [0.0, 0.0]}),
        "9ac6bc018cdd1c9e0d3b2b5da4ab08fc0e841e0c667cd53610b694ca7eb43b17"),
    "loglog on a flat range": (
        lambda: svg.loglog_svg("flat", [625, 10000], {"sd": [0.01, 0.01]}),
        "86d899bcd83cb3f54aae0edc5bbff09997ebb8e87ed19d6e54c95b3d8b19d5db"),
    "bars with a negative bar": (
        lambda: svg.bars_svg(
            "bars", ["none", "optimal"], {"defaults": [0.4, 0.1], "prevented": [0.0, -0.05]}),
        "987ad92d2c02068e53396f32bc04a8b39e202b52c554bb43d1659ba6261237aa"),
    "bars all zero": (
        lambda: svg.bars_svg("zero", ["none"], {"defaults": [0.0]}),
        "bebeacf6a15e7fe633d9f2fdd5ff6e4b0b3f53b5b1518396346c7a63d9ef7ed8"),
    # pinned after the flat x-range began to widen: a single size used to
    # divide by a zero span; its one point sits mid-plot at x = 340
    "loglog of a single size": (
        lambda: svg.loglog_svg("one", [625], {"sd": [0.02], "iqr": [0.03]}),
        "21b6b5c0e44ed73b52fa62a5e9da4cdb25b9accf264ba655ebb6742c4857c930"),
}


@pytest.mark.parametrize("case", list(CHARTS))
def test_chart_bytes(case):
    make, digest = CHARTS[case]
    assert hashlib.sha256(make().encode()).hexdigest() == digest, case


def test_single_size_point_is_centred():
    chart = svg.loglog_svg("one", [625], {"sd": [0.02]})
    assert '<circle cx="340.000"' in chart
