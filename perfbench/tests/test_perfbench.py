"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They sit outside the package's testpaths, so the tier-1 suite does not run
them.  The traced-count tests each run one full experiment (about 10 s).
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from microloc import dno, waterwave  # noqa: E402
from microloc.quantize import ProbeResult, WavefrontReport  # noqa: E402


def _traced_layers(name):
    inputs = workloads.prepare(name, 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        reports = inputs.call()
    finally:
        tracer.uninstall()
    assert run.gate(reports) is None
    return spans.per_layer_metrics(tracer.spans, spans.chi_cache_mb())


@pytest.mark.parametrize("name, rhs_calls, dn_calls",
                         [("ww_flat", 504, 505), ("ww_ramp", 48, 49)])
def test_traced_counts(name, rhs_calls, dn_calls):
    layers = _traced_layers(name)
    assert layers["waterwave.zcs_rhs.calls"] == rhs_calls
    assert layers["dno.dn_elliptic.calls"] == dn_calls


def test_uninstall_restores_originals():
    orig = dno.dn_elliptic
    tracer = spans.Tracer()
    tracer.install()
    assert waterwave.dn_elliptic is not orig and dno.dn_elliptic is not orig
    tracer.uninstall()
    assert waterwave.dn_elliptic is orig and dno.dn_elliptic is orig


def _report(*probes):
    return WavefrontReport([ProbeResult(1.0, 1.0, 0.5, 1.0, mu, 1.0, label)
                            for label, mu in probes], [0.5, 0.25, 0.125])


def test_gate_passes_and_separation():
    rep = _report(("predicted", 1.0), ("control_a", 4.0), ("control_b", 3.5))
    assert run.gate([rep]) is None
    assert run.separation([rep]) == pytest.approx(2.5)


@pytest.mark.parametrize("probes, reason", [
    ((("predicted", 1.0),), "no control probe"),
    ((("predicted", 1.0), ("control_a", math.nan)), "NaN decay order"),
    ((("predicted", math.nan), ("control_a", 3.0)), "NaN decay order"),
    ((("control_a", 3.0),), "no predicted probe"),
])
def test_gate_fails_doctored_reports(probes, reason):
    good = _report(("predicted", 1.0), ("control_a", 4.0))
    assert run.gate([good, _report(*probes)]) == reason


def test_scaled_time_cancels_machine_speed():
    # the same calls on a machine half as fast, reference passes included
    fast = [(1.0, 0.2), (1.1, 0.2), (0.9, 0.2)]
    slow = [(2.0 * s, 2.0 * r) for s, r in fast]
    assert run.scaled(slow) == pytest.approx(run.scaled(fast))
    assert run.scaled(fast) == pytest.approx(5.0 * run.REF_S)


def test_reference_helper_times_passes_and_ends():
    with run.Reference() as ref:
        assert ref() > 0.0
    assert ref.proc.returncode == 0


def test_self_time_subtracts_children():
    # call, id, parent, name, start, end: a(0..10) holds b(1..3) and b(4..8),
    # and the second b holds a nested a(5..6), whose time is not counted twice
    sp = [(0, 2, 1, "b", 1.0, 3.0), (0, 4, 3, "a", 5.0, 6.0),
          (0, 3, 1, "b", 4.0, 8.0), (0, 1, 0, "a", 0.0, 10.0)]
    st = spans.layer_stats(sp)
    assert st["a"]["calls"] == 2 and st["a"]["s"] == pytest.approx(10.0)
    assert st["a"]["self_s"] == pytest.approx(4.0 + 1.0)
    assert st["b"]["s"] == pytest.approx(6.0)
    assert st["b"]["self_s"] == pytest.approx(2.0 + 3.0)


def test_seed_keeps_h_grid_and_probes():
    a, b = workloads.prepare("ww_linear", 0), workloads.prepare("ww_linear", 7)
    assert a.args["h_used"] == b.args["h_used"] and a.args["probes"] == b.args["probes"]
    assert a.args["amplitude"] == 1e-2 != b.args["amplitude"]
    assert abs(b.args["amplitude"] / 1e-2 - 1.0) <= 0.01
    assert workloads.prepare("ww_linear", 7).args == b.args


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ww_flat", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
