import xml.etree.ElementTree as ET

import numpy as np
import pytest

from eigenkit.bench import run_comparison
from eigenkit.engine import TraceRecord
from eigenkit.ensemble import EnsembleSpec, generate_ensemble
from eigenkit.svgplot import LOG_FLOOR, emit_convergence_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def _rec(i, norm, dim=3, deflated=False):
    return TraceRecord(
        iteration=i, dimension=dim, subdiag_norm=norm,
        shift=0j, deflated=deflated,
    )


def test_svg_is_parseable_with_one_polyline_per_solver(tmp_path):
    traces = {
        "enhanced": [_rec(1, 0.5), _rec(2, 1e-3), _rec(3, 1e-9)],
        "plain": [_rec(1, 0.9), _rec(2, 0.5), _rec(3, 0.3)],
    }
    path = tmp_path / "plot.svg"
    emit_convergence_svg(traces, path)
    root = ET.parse(path).getroot()
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2
    labels = sorted(p.get("data-solver") for p in polylines)
    assert labels == ["enhanced", "plain"]
    legend = {t.text for t in root.findall(f".//{SVG_NS}text") if t.get("class") == "legend"}
    assert legend == {"enhanced", "plain"}


def test_svg_bar_chart_labeled(tmp_path):
    traces = {"enhanced": [_rec(1, 0.5), _rec(2, 1e-4)]}
    path = tmp_path / "bars.svg"
    emit_convergence_svg(traces, path)
    root = ET.parse(path).getroot()
    bars = [r for r in root.findall(f".//{SVG_NS}rect") if r.get("class") == "bar"]
    assert len(bars) == 1
    assert bars[0].get("data-solver") == "enhanced"
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "2" in texts  # the iteration count annotation


def test_label_with_markup_round_trips(tmp_path):
    label = 'say "hi" <&>'
    path = tmp_path / "quoted.svg"
    emit_convergence_svg({label: [_rec(1, 0.5), _rec(2, 1e-4)]}, path)
    root = ET.parse(path).getroot()
    tagged = root.findall(f".//{SVG_NS}*[@data-solver]")
    assert {e.tag for e in tagged} == {f"{SVG_NS}rect", f"{SVG_NS}polyline"}
    assert {e.get("data-solver") for e in tagged} == {label}
    assert label in {t.text for t in root.findall(f".//{SVG_NS}text")}


def test_zero_norm_clamped_to_floor(tmp_path):
    # A zero norm must land at the same y as the floor value, not at -inf.
    traces = {"a": [_rec(1, 1.0), _rec(2, 0.0)], "b": [_rec(1, 1.0), _rec(2, LOG_FLOOR)]}
    path = tmp_path / "clamp.svg"
    emit_convergence_svg(traces, path)
    root = ET.parse(path).getroot()
    points = {
        p.get("data-solver"): p.get("points")
        for p in root.findall(f".//{SVG_NS}polyline")
    }
    a_last = points["a"].split()[-1]
    b_last = points["b"].split()[-1]
    assert a_last.split(",")[1] == b_last.split(",")[1]


def test_deterministic_output(tmp_path):
    spec = EnsembleSpec(dimension=3, count=1, seed=4)
    report = run_comparison(generate_ensemble(spec), ["enhanced", "plain"])
    traces = {row.solver: row.trace for row in report.rows}
    p1, p2 = tmp_path / "x.svg", tmp_path / "y.svg"
    emit_convergence_svg(traces, p1)
    emit_convergence_svg(traces, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_input_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_convergence_svg({}, tmp_path / "no.svg")
