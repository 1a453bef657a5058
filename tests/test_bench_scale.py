import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_scale.py"


@pytest.fixture(scope="module")
def bench_scale():
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["mas", "quartets"])
def test_row_carries_every_layer_and_the_solve_outcome(bench_scale, kind):
    row = bench_scale.measure(kind, 12, 60, "abc")
    assert row["sha"] == "abc" and (row["kind"], row["n"], row["m"]) == (kind, 12, 60)
    assert set(row["ms"]) == {"gen", "build", "ascent", "rounding", "decode", "score",
                             "serialize"}
    assert all(v >= 0.0 for v in row["ms"].values())
    assert row["converged"] and row["ascent_iterations"] > 0
    assert row["sdp_objective"] >= row["cut_weight"] > 0
    assert 0.0 <= row["satisfied_fraction"] <= 1.0
