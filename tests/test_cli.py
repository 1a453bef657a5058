import csv
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ordagg.analysis import theoretical_bound
from ordagg.cli import CSV_COLUMNS, main
from ordagg.model import CONSTRAINT_SPECS, KIND_CONSTRAINTS, KINDS, validate
from ordagg.serialize import obj_to_instance, obj_to_solution

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report.schema.json").read_text())


@pytest.fixture
def runner():
    return CliRunner()


def _gen(runner, path, *extra):
    args = ["gen", "--kind", "btw", "--n", "9", "--m", "30", "--eps", "0.1",
            "--seed", "5", "--out", str(path), *extra]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    return path


def test_gen_is_deterministic(runner, tmp_path):
    a = _gen(runner, tmp_path / "a.json")
    b = _gen(runner, tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_gen_writes_valid_instance(runner, tmp_path):
    p = _gen(runner, tmp_path / "inst.json")
    inst, meta = obj_to_instance(json.loads(p.read_text()))
    assert validate(inst) == []
    assert len(inst.constraints) == 30
    assert meta["eps"] == 0.1 and meta["seed"] == 5
    assert inst.ground_truth is not None


def test_gen_hide_truth(runner, tmp_path):
    p = _gen(runner, tmp_path / "blind.json", "--hide-truth")
    assert "ground_truth" not in json.loads(p.read_text())


def test_gen_rejects_m_for_tree_kinds(runner, tmp_path):
    res = runner.invoke(main, ["gen", "--kind", "triplets", "--n", "8", "--m", "10",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    assert "--m1/--m2" in res.output


def test_gen_rejects_bad_rate(runner, tmp_path):
    res = runner.invoke(main, ["gen", "--kind", "mas", "--n", "5", "--m", "4",
                               "--eps", "1.5", "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2


def test_solve_writes_solution_and_report(runner, tmp_path):
    inst_path = _gen(runner, tmp_path / "inst.json")
    out = tmp_path / "sol.json"
    res = runner.invoke(main, ["solve", "--in", str(inst_path), "--out", str(out),
                               "--seed", "1", "--restarts", "2", "--hyperplanes", "40"])
    assert res.exit_code == 0, res.output

    sol_obj = json.loads(out.read_text())
    assert sol_obj["kind"] == "btw" and sol_obj["n"] == 9
    ranking = obj_to_solution(sol_obj["solution"])
    assert sorted(ranking.order) == list(range(9))

    report = json.loads((tmp_path / "sol.report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["total"] == 30
    assert report["fraction"] == pytest.approx(report["satisfied"] / 30)
    assert report["sdp_objective"] >= report["cut_weight"] - 1e-9
    assert report["theoretical_bound"] == pytest.approx(theoretical_bound("btw", 0.1, 30))


def test_solve_respects_report_path(runner, tmp_path):
    inst_path = _gen(runner, tmp_path / "inst.json")
    out = tmp_path / "sol.json"
    rep = tmp_path / "deep" / "r.json"
    rep.parent.mkdir()
    res = runner.invoke(main, ["solve", "--in", str(inst_path), "--out", str(out),
                               "--report", str(rep), "--restarts", "1",
                               "--hyperplanes", "20"])
    assert res.exit_code == 0, res.output
    jsonschema.validate(json.loads(rep.read_text()), SCHEMA)


def test_solve_empty_instance_omits_fraction(runner, tmp_path):
    inst_path = tmp_path / "empty.json"
    res = runner.invoke(main, ["gen", "--kind", "mas", "--n", "6", "--m", "0",
                               "--out", str(inst_path)])
    assert res.exit_code == 0, res.output
    out = tmp_path / "sol.json"
    res = runner.invoke(main, ["solve", "--in", str(inst_path), "--out", str(out),
                               "--restarts", "1", "--hyperplanes", "10"])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "sol.report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert "fraction" not in report
    assert report["total"] == 0


def test_solve_rejects_broken_instance(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1, "kind": "mas", "n": 3,
        "constraints": [{"t": "prec", "a": 0, "b": 9}],
    }))
    res = runner.invoke(main, ["solve", "--in", str(bad), "--out", str(tmp_path / "s.json")])
    assert res.exit_code == 2
    assert "out of range" in res.output


def test_solve_rejects_wrong_version(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 9, "kind": "mas", "n": 3, "constraints": []}))
    res = runner.invoke(main, ["solve", "--in", str(bad), "--out", str(tmp_path / "s.json")])
    assert res.exit_code == 2


_PREC = {"version": 1, "kind": "mas", "n": 3, "constraints": [{"t": "prec", "a": 0, "b": 1}]}
_CC = {"version": 1, "kind": "cc", "n": 3,
       "constraints": [{"t": "ml", "a": 0, "b": 1}, {"t": "cl", "a": 1, "b": 2}]}

_MALFORMED_FILES = [
    {**_PREC, "constraints": [{"t": "prec", "a": 1.7, "b": 0}]},
    {**_PREC, "constraints": [{"t": "prec", "a": "1", "b": 0}]},
    {**_PREC, "constraints": [{"t": "prec", "a": True, "b": 0}]},
    {**_PREC, "ground_truth": {"ranking": [0, 1.0, 2]}},
    {**_PREC, "ground_truth": {"ranking": [0, True, 2]}},
    {**_PREC, "kind": "triplets", "constraints": [],
     "ground_truth": {"rooted_tree": [[0, True], 2]}},
    {**_PREC, "kind": "quartets", "n": 4, "constraints": [],
     "ground_truth": {"unrooted_tree": {"adjacency": [[4], [4], [5], [5], [0, 1, 5], [2, 3, 4]],
                                        "items": [0, 1, 2, 3.0, None, None]}}},
    {**_PREC, "n": -2, "constraints": []},
    {**_PREC, "n": 3.0},
    [_PREC],
    {**_PREC, "kind": "triplets", "n": 0, "constraints": []},
    {**_PREC, "kind": "quartets", "n": 1, "constraints": [],
     "ground_truth": {"unrooted_tree": {"adjacency": [[]], "items": []}}},
]
# two must-links: a weight near the float limit overflows their sum
_CC_TWO_LINKS = {**_CC, "constraints": [{"t": "ml", "a": 0, "b": 1}, {"t": "ml", "a": 1, "b": 2},
                                        {"t": "cl", "a": 0, "b": 2}]}
_MALFORMED_FLAGS = [
    (_PREC, ["--restarts", "0"]),
    (_PREC, ["--hyperplanes", "0"]),
    (_PREC, ["--seed", "-1"]),
    (_CC, ["--cc-weight", "nan"]),
    (_CC, ["--cc-weight", "inf"]),
    (_CC, ["--cc-weight", "-inf"]),
    (_CC_TWO_LINKS, ["--cc-weight", "1e308"]),
    (_CC_TWO_LINKS, ["--cc-weight", "-1e308"]),
    # one must-link: the total stays finite, twice it does not
    (_CC, ["--cc-weight", "1e308"]),
]


@pytest.mark.parametrize(
    "obj, flags", [(obj, []) for obj in _MALFORMED_FILES] + _MALFORMED_FLAGS,
    ids=["float-item", "string-item", "bool-item", "float-truth", "bool-truth",
         "bool-leaf", "float-leaf", "negative-n", "float-n", "top-level-list",
         "empty-tree", "items-shorter-than-adjacency",
         "restarts-0", "hyperplanes-0", "negative-seed", "cc-weight-nan", "cc-weight-inf",
         "cc-weight-minus-inf", "cc-weight-overflows", "cc-weight-overflows-negative",
         "cc-weight-overflows-local-search"])
def test_solve_rejects_malformed_input(runner, tmp_path, obj, flags):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = runner.invoke(main, ["solve", "--in", str(bad), "--out", str(tmp_path / "s.json"),
                               *flags])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("weight", ["1e307", "-1e307"])
def test_solve_accepts_a_large_finite_cc_weight(runner, tmp_path, weight):
    inst = tmp_path / "cc.json"
    inst.write_text(json.dumps(_CC_TWO_LINKS))
    res = runner.invoke(main, ["solve", "--in", str(inst), "--out", str(tmp_path / "s.json"),
                               "--cc-weight", weight])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "s.json").exists()


def test_solve_reports_a_converged_ascent(runner, tmp_path):
    inst = tmp_path / "mas.json"
    res = runner.invoke(main, ["gen", "--kind", "mas", "--n", "150", "--m", "5000",
                               "--eps", "0.1", "--seed", "1", "--out", str(inst)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["solve", "--in", str(inst), "--out", str(tmp_path / "s.json")])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "s.report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["converged"] is True
    assert 0 < report["ascent_iterations"] < 2000


def test_solve_recursive_splits_clustering_sides(runner, tmp_path):
    inst = tmp_path / "cc.json"
    res = runner.invoke(main, ["gen", "--kind", "cc", "--n", "45", "--m", "600", "--eps", "0.1",
                               "--seed", "2", "--balanced", "--out", str(inst)])
    assert res.exit_code == 0, res.output
    satisfied = []
    for flags in ([], ["--recursive"]):
        res = runner.invoke(main, ["solve", "--in", str(inst), "--out", str(tmp_path / "s.json"),
                                   *flags])
        assert res.exit_code == 0, res.output
        satisfied.append(json.loads((tmp_path / "s.report.json").read_text())["satisfied"])
    flat, recursive = satisfied
    assert recursive > flat, satisfied


def test_solve_rejects_deeply_nested_json(runner, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    res = runner.invoke(main, ["solve", "--in", str(bad), "--out", str(tmp_path / "s.json")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert not (tmp_path / "s.json").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _or_junk(strategy, odds=12):
    """strategy, or in about one draw in odds an arbitrary JSON value."""
    return st.integers(1, odds).flatmap(lambda i: _JSON if i == 1 else strategy)


_TAGGED = [cls for cls, spec in CONSTRAINT_SPECS.items() if spec.tag is not None]
_FIELD_NAMES = sorted({f.name for cls in _TAGGED for f in fields(cls)})
_ITEM = _or_junk(st.integers(-1, 7))


def _constraint(tags):
    """A constraint of one of tags on distinct items, with a junk tag or field
    now and then; unused fields are ignored by the parser."""
    items = st.lists(st.integers(0, 6), min_size=len(_FIELD_NAMES), max_size=len(_FIELD_NAMES),
                     unique=True)
    return _or_junk(items.flatmap(lambda xs: st.fixed_dictionaries({
        "t": _or_junk(st.sampled_from(tags)),
        **{name: _or_junk(st.just(x), odds=40) for name, x in zip(_FIELD_NAMES, xs)},
    })))


_TRUTH = _or_junk(st.one_of(
    st.fixed_dictionaries({"ranking": st.lists(_ITEM, max_size=7)}),
    st.fixed_dictionaries({"partition": st.lists(_ITEM, max_size=7)}),
    st.fixed_dictionaries({"rooted_tree": st.recursive(_ITEM, lambda t: st.tuples(t, t).map(list),
                                                       max_leaves=7)}),
    st.fixed_dictionaries({"unrooted_tree": st.fixed_dictionaries({
        "adjacency": st.lists(st.lists(_ITEM, max_size=3), max_size=10),
        "items": st.lists(_ITEM | st.none(), max_size=10),
    })}),
))


def _instance(kind):
    tags = [CONSTRAINT_SPECS[cls].tag for cls in KIND_CONSTRAINTS[kind]
            if CONSTRAINT_SPECS[cls].tag is not None]
    return st.fixed_dictionaries(
        {
            "version": _or_junk(st.just(1)),
            "kind": _or_junk(st.just(kind)),
            "n": _or_junk(st.integers(-1, 8)),
            "constraints": _or_junk(st.lists(_constraint(tags), max_size=6)),
        },
        optional={
            "ground_truth": _TRUTH,
            "meta": _or_junk(st.fixed_dictionaries({}, optional={"eps": _or_junk(st.floats(0, 1))})),
        },
    )


# near-valid instance objects of every kind, each part sometimes replaced by junk
_INSTANCE = _or_junk(st.sampled_from(KINDS).flatmap(_instance))


@settings(max_examples=300, deadline=None)
@given(_INSTANCE)
def test_obj_to_instance_fails_only_with_parse_errors(obj):
    # the errors solve's parse handler maps to exit 2
    try:
        obj_to_instance(obj)
    except (ValueError, KeyError, TypeError):
        pass


@settings(max_examples=60, deadline=None)
@given(_INSTANCE, st.booleans())
def test_solve_exits_0_or_2_on_any_json(obj, recursive):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(obj))
        args = ["solve", "--in", str(path), "--out", str(Path(tmp) / "s.json"),
                "--restarts", "1", "--hyperplanes", "8"]
        res = CliRunner().invoke(main, args + ["--recursive"] * recursive)
    assert res.exit_code in (0, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)


@pytest.mark.parametrize("args", [
    ["meta", {"eps": 2}],
    ["meta", {"eps": "x"}],
    ["meta", {"eps": float("nan")}],
    ["meta", {"eps": True}],
    ["meta", "eps"],
    ["bench", "nan"],
    ["bench", "0.1,1.5"],
    ["bench", "-inf"],
], ids=["meta-2", "meta-string", "meta-nan", "meta-bool", "meta-not-object",
        "grid-nan", "grid-above-1", "grid-minus-inf"])
def test_rates_must_lie_in_unit_interval(runner, tmp_path, args):
    where, value = args
    if where == "meta":
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**_PREC, "meta": value}))
        cmd = ["solve", "--in", str(path), "--out", str(tmp_path / "s.json")]
    else:
        cmd = ["bench", "--kinds", "mas", "--n", "5", "--m", "4", "--seeds", "1",
               "--eps-grid", value, "--out", str(tmp_path / "b.csv")]
    res = runner.invoke(main, cmd)
    assert res.exit_code == 2, res.output


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_bench_csv_layout(runner, tmp_path):
    out = tmp_path / "bench.csv"
    res = runner.invoke(main, ["bench", "--kinds", "mas,btw", "--n", "8", "--m", "14",
                               "--eps-grid", "0.0,0.4", "--seeds", "2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == CSV_COLUMNS
    rows = _read_csv(out)
    # per (kind, eps): seeds data rows then one aggregate
    assert len(rows) == 2 * 2 * (2 + 1)
    for i in range(0, len(rows), 3):
        block = rows[i:i + 3]
        assert [r["row_type"] for r in block] == ["data", "data", "aggregate"]
        assert [r["seed"] for r in block] == ["0", "1", ""]
        assert block[2]["satisfied_fraction_std"] != ""
        fracs = [float(r["satisfied_fraction"]) for r in block[:2]]
        assert float(block[2]["satisfied_fraction"]) == pytest.approx(sum(fracs) / 2)


def test_bench_tree_rows_carry_class_fractions(runner, tmp_path):
    out = tmp_path / "bench.csv"
    res = runner.invoke(main, ["bench", "--kinds", "triplets", "--n", "7", "--m", "8",
                               "--seeds", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = _read_csv(out)
    data = [r for r in rows if r["row_type"] == "data"]
    assert data and all(r["forbidden_fraction"] != "" for r in data)
    assert all(r["desired_fraction"] != "" for r in data)


def test_bench_thread_pool_matches_serial(runner, tmp_path, monkeypatch):
    args = ["bench", "--kinds", "mas,cc", "--n", "8", "--m", "12",
            "--eps-grid", "0.0,0.3", "--seeds", "2"]
    serial = tmp_path / "serial.csv"
    res = runner.invoke(main, args + ["--out", str(serial)])
    assert res.exit_code == 0, res.output
    monkeypatch.setenv("ORDAGG_THREADS", "4")
    pooled = tmp_path / "pooled.csv"
    res = runner.invoke(main, args + ["--out", str(pooled)])
    assert res.exit_code == 0, res.output

    def strip_timing(path):
        return [{k: v for k, v in row.items() if k != "wall_ms"} for row in _read_csv(path)]

    assert strip_timing(serial) == strip_timing(pooled)


@pytest.mark.parametrize("threads", ["abc", "-3"])
def test_bench_rejects_bad_thread_count(runner, tmp_path, monkeypatch, threads):
    monkeypatch.setenv("ORDAGG_THREADS", threads)
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["bench", "--kinds", "mas", "--n", "5", "--m", "4",
                               "--seeds", "1", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "ORDAGG_THREADS" in res.output
    assert not out.exists()


def test_bench_empty_thread_count_runs_serially(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("ORDAGG_THREADS", "")
    res = runner.invoke(main, ["bench", "--kinds", "mas", "--n", "5", "--m", "4",
                               "--seeds", "1", "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 0, res.output


def test_bench_rejects_unknown_kind(runner, tmp_path):
    res = runner.invoke(main, ["bench", "--kinds", "mas,ranked", "--n", "6", "--m", "5",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["bench", "--kinds", "mas", "--n", "0", "--m", "4"],
    ["bench", "--kinds", "mas", "--n", "-2", "--m", "4"],
    ["bench", "--kinds", "mas", "--n", "5", "--m", "-1"],
    ["bench", "--kinds", "triplets", "--n", "5", "--m", "-1"],
    ["bench", "--kinds", "btw", "--n", "2", "--m", "4"],
    ["oracle", "--kind", "mas", "--n", "4", "--m", "5", "--seed", "-1"],
    ["oracle", "--kind", "mas", "--n", "4", "--m", "5", "--count", "-1"],
    ["oracle", "--kind", "mas", "--n", "0", "--m", "5"],
    ["oracle", "--kind", "btw", "--n", "2", "--m", "5"],
], ids=["bench-n-0", "bench-negative-n", "bench-negative-m", "bench-tree-negative-m",
        "bench-arity", "oracle-negative-seed", "oracle-negative-count", "oracle-n-0",
        "oracle-arity"])
def test_bench_and_oracle_reject_invalid_config(runner, tmp_path, args):
    out = tmp_path / "out"
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert not out.exists()


def test_oracle_report(runner, tmp_path):
    out = tmp_path / "oracle.json"
    res = runner.invoke(main, ["oracle", "--kind", "mas", "--n", "5", "--m", "8",
                               "--count", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert report["count"] == 3 and len(report["cells"]) == 3
    for cell in report["cells"]:
        assert cell["solver_satisfied"] <= cell["oracle_satisfied"]
        assert cell["total"] == 8
        assert "flagged" in cell


def test_oracle_cap_exit_code(runner):
    res = runner.invoke(main, ["oracle", "--kind", "triplets", "--n", "9",
                               "--m1", "3", "--m2", "3"])
    assert res.exit_code == 3
    assert "n <= 6" in res.output


def test_oracle_stdout_default(runner):
    res = runner.invoke(main, ["oracle", "--kind", "cc", "--n", "4", "--m", "5",
                               "--count", "2"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["kind"] == "cc" and report["count"] == 2
