"""Command line front end: gen, solve, bench, oracle."""

from __future__ import annotations

import csv
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import decoder, evaluator, generator, graph, serialize, solver
from .analysis import theoretical_bound
from .evaluator import ORACLE_CAPS, oracle_best, random_solution, score
from .model import CONSTRAINT_SPECS, KINDS, TREE_KINDS, forbidden_desired_counts, is_rate, validate


@click.group()
def main():
    """Aggregate noisy ordinal constraints into rankings, partitions, and trees."""


def _generator_config(kind, n, m, m1, m2, eps, eps1, eps2, balanced, seed):
    try:
        return generator.GeneratorConfig(kind=kind, n=n, m=m, m1=m1, m2=m2, eps=eps, eps1=eps1,
                                         eps2=eps2, balanced=balanced, seed=seed)
    except ValueError as e:
        raise click.UsageError(str(e))


def _make_instance(cfg: generator.GeneratorConfig):
    try:
        return generator.make_instance(cfg)
    except (ValueError, RuntimeError) as e:
        raise click.UsageError(str(e))


def _meta_for(cfg: generator.GeneratorConfig) -> dict:
    meta = {"kind": cfg.kind, "n": cfg.n, "balanced": cfg.balanced, "seed": cfg.seed}
    if cfg.kind in TREE_KINDS:
        meta.update(m1=cfg.m1, m2=cfg.m2, eps1=cfg.eps1, eps2=cfg.eps2)
    else:
        meta.update(m=cfg.m, eps=cfg.eps)
    return meta


@main.command("gen")
@click.option("--kind", required=True, type=click.Choice(KINDS))
@click.option("--n", required=True, type=int)
@click.option("--m", default=0, type=int)
@click.option("--m1", default=0, type=int)
@click.option("--m2", default=0, type=int)
@click.option("--eps", default=0.0, type=float)
@click.option("--eps1", default=0.0, type=float)
@click.option("--eps2", default=0.0, type=float)
@click.option("--balanced", is_flag=True)
@click.option("--seed", default=0, type=int)
@click.option("--hide-truth", is_flag=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_gen(kind, n, m, m1, m2, eps, eps1, eps2, balanced, seed, hide_truth, out):
    """Write one planted instance as JSON."""
    cfg = _generator_config(kind, n, m, m1, m2, eps, eps1, eps2, balanced, seed)
    inst = _make_instance(cfg)
    obj = serialize.instance_to_obj(inst, meta=_meta_for(cfg), include_truth=not hide_truth)
    serialize.write_json(out, obj)


def _bound_from_meta(kind: str, meta: dict, instance) -> float | None:
    if kind in TREE_KINDS:
        if "eps1" not in meta or "eps2" not in meta:
            return None
        m1, m2 = forbidden_desired_counts(instance)
        return theoretical_bound(kind, (meta["eps1"], meta["eps2"]), (m1, m2))
    if "eps" not in meta:
        return None
    return theoretical_bound(kind, meta["eps"], len(instance.constraints))


def _solve_instance(instance, scfg: solver.SolverConfig, dcfg: decoder.DecodeConfig):
    """(cut, solution, per-layer milliseconds: build, ascent, rounding, decode)."""
    t0 = time.perf_counter()
    g = graph.build(instance, cc_mustlink_weight=dcfg.cc_mustlink_weight)
    # twice the total absolute weight bounds every sum the relaxation, rounding
    # and local search take: each is bounded by the total, and a local search
    # gain is a difference of two of them
    with np.errstate(over="ignore"):
        if not math.isfinite(2.0 * float(np.abs(g.weights).sum())):
            w = dcfg.cc_mustlink_weight
            raise click.UsageError(f"--cc-weight {w:g} makes the graph's total weight overflow")
    t1 = time.perf_counter()
    cut = solver.solve(g, scfg)
    t2 = time.perf_counter()
    rng = np.random.default_rng((dcfg.seed, 1))
    sol = decoder.decode(instance, cut, dcfg, rng)
    t3 = time.perf_counter()
    ms = {"build_ms": (t1 - t0) * 1000.0, "ascent_ms": cut.ascent_ms,
          "rounding_ms": cut.rounding_ms, "decode_ms": (t3 - t2) * 1000.0}
    return cut, sol, {k: round(v, 3) for k, v in ms.items()}


def _finite(ctx, param, value):
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@main.command("solve")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False))
@click.option("--seed", default=0, type=click.IntRange(min=0))
@click.option("--restarts", default=8, type=click.IntRange(min=1),
              help="rounding rounds over the one relaxation ascent, best cut kept")
@click.option("--hyperplanes", default=200, type=click.IntRange(min=1),
              help="random hyperplanes per rounding round")
@click.option("--recursive", is_flag=True)
@click.option("--cc-weight", default=-1.0, type=float, callback=_finite)
def cmd_solve(in_path, out, report_path, seed, restarts, hyperplanes, recursive, cc_weight):
    """Solve an instance file; write the solution and a JSON report."""
    try:
        instance, meta = serialize.obj_to_instance(serialize.read_json(in_path))
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise click.UsageError(f"cannot parse {in_path}: {e}")
    problems = validate(instance)
    if problems:
        raise click.UsageError("; ".join(problems[:5]))
    t0 = time.perf_counter()
    scfg = solver.SolverConfig(restarts=restarts, hyperplanes=hyperplanes, seed=seed)
    dcfg = decoder.DecodeConfig(recursive=recursive, cc_mustlink_weight=cc_weight, seed=seed)
    cut, sol, layer_ms = _solve_instance(instance, scfg, dcfg)
    sc = score(instance, sol)
    wall_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    report = {
        "cut_weight": cut.weight,
        "sdp_objective": cut.sdp_objective,
        "ascent_iterations": cut.ascent_iterations,
        "converged": cut.converged,
        "satisfied": sc.satisfied,
        "total": sc.total,
    }
    if sc.fraction is not None:
        report["fraction"] = sc.fraction
    bound = _bound_from_meta(instance.kind, meta, instance)
    if bound is not None:
        report["theoretical_bound"] = bound
    report.update(layer_ms)
    report["wall_ms"] = wall_ms
    serialize.write_json(out, {"kind": instance.kind, "n": instance.n,
                               "solution": serialize.solution_to_obj(sol)})
    if report_path is None:
        report_path = str(Path(out).with_suffix("")) + ".report.json"
    serialize.write_json(report_path, report)


CSV_COLUMNS = [
    "kind", "n", "m", "eps", "seed", "row_type",
    "satisfied_fraction", "satisfied_fraction_std", "bound_fraction",
    "random_baseline_fraction", "forbidden_fraction", "desired_fraction",
    "wall_ms",
]

_BENCH_SOLVER = solver.SolverConfig(restarts=4, hyperplanes=100, max_iterations=800)


def _bench_config(kind: str, n: int, m: int, eps: float, seed: int, balanced: bool):
    """A bench cell's generator config; tree kinds split m in half per class."""
    if kind in TREE_KINDS:
        return _generator_config(kind, n, 0, m // 2, m - m // 2, 0.0, eps, eps, balanced, seed)
    return _generator_config(kind, n, m, 0, 0, eps, 0.0, 0.0, balanced, seed)


def _bench_cell(cfg: generator.GeneratorConfig) -> dict:
    kind, n, seed = cfg.kind, cfg.n, cfg.seed
    t0 = time.perf_counter()
    inst = _make_instance(cfg)
    _, sol, _ = _solve_instance(inst, replace(_BENCH_SOLVER, seed=seed),
                                decoder.DecodeConfig(seed=seed))
    sc = score(inst, sol)
    wall_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    rng = np.random.default_rng((seed, 2))
    baseline = score(inst, random_solution(kind, n, rng))
    bound = _bound_from_meta(kind, _meta_for(cfg), inst)
    row = {
        "kind": kind, "n": n, "m": cfg.m + cfg.m1 + cfg.m2,
        "eps": cfg.eps1 if kind in TREE_KINDS else cfg.eps, "seed": seed, "row_type": "data",
        "satisfied_fraction": sc.fraction, "satisfied_fraction_std": "",
        "bound_fraction": "" if bound is None or sc.total == 0 else bound / sc.total,
        "random_baseline_fraction": baseline.fraction,
        "forbidden_fraction": "", "desired_fraction": "",
        "wall_ms": wall_ms,
    }
    if kind in TREE_KINDS:
        forb = [c for c in inst.constraints if CONSTRAINT_SPECS[type(c)].desired is False]
        des = [c for c in inst.constraints if CONSTRAINT_SPECS[type(c)].desired]
        if forb:
            fs = evaluator.count_satisfied(forb, sol)
            row["forbidden_fraction"] = fs / len(forb)
        if des:
            ds = evaluator.count_satisfied(des, sol)
            row["desired_fraction"] = ds / len(des)
    return row


def _aggregate(rows: list[dict]) -> dict:
    vals = [r["satisfied_fraction"] for r in rows if r["satisfied_fraction"] != ""]
    r0 = rows[0]
    agg = dict(r0)
    agg.update(seed="", row_type="aggregate")
    if vals:
        agg["satisfied_fraction"] = float(np.mean(vals))
        agg["satisfied_fraction_std"] = float(np.std(vals))
    for col in ("random_baseline_fraction", "forbidden_fraction", "desired_fraction", "wall_ms"):
        xs = [r[col] for r in rows if r[col] != ""]
        agg[col] = float(np.mean(xs)) if xs else ""
    return agg


def _threads() -> int:
    """Bench worker threads from ORDAGG_THREADS: unset or empty means 1."""
    raw = os.environ.get("ORDAGG_THREADS") or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise click.UsageError(f"ORDAGG_THREADS must be a positive integer, not {raw!r}")
    return workers


@main.command("bench")
@click.option("--kinds", required=True, help="comma separated, e.g. mas,btw")
@click.option("--n", required=True, type=int)
@click.option("--m", required=True, type=int,
              help="constraints per instance; tree kinds split it in half per class")
@click.option("--eps-grid", default="0.0", help="comma separated error rates")
@click.option("--seeds", default=3, type=int)
@click.option("--balanced", is_flag=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_bench(kinds, n, m, eps_grid, seeds, balanced, out):
    """Sweep kinds x error rates x seeds; write one CSV with aggregate rows."""
    kind_list = [k.strip() for k in kinds.split(",") if k.strip()]
    for k in kind_list:
        if k not in KINDS:
            raise click.UsageError(f"unknown kind {k}")
    try:
        eps_list = [float(e) for e in eps_grid.split(",") if e.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse --eps-grid {eps_grid!r}")
    if not all(is_rate(e) for e in eps_list):
        raise click.UsageError(f"--eps-grid rates must lie in [0, 1]: {eps_grid!r}")
    if seeds < 1:
        raise click.UsageError("--seeds must be positive")
    cells = [_bench_config(k, n, m, e, s, balanced)
             for k in kind_list for e in eps_list for s in range(seeds)]
    workers = _threads()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            data = list(pool.map(_bench_cell, cells))
    else:
        data = [_bench_cell(cfg) for cfg in cells]
    rows: list[dict] = []
    for k in kind_list:
        for e in eps_list:
            group = [r for r in data if r["kind"] == k and r["eps"] == e]
            group.sort(key=lambda r: r["seed"])
            rows.extend(group)
            rows.append(_aggregate(group))
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


_ORACLE_RHO = {"mas": 0.5, "btw": 1.0 / 3.0, "nonbtw": 2.0 / 3.0, "cc": None}

_ORACLE_SOLVER = solver.SolverConfig(restarts=2, hyperplanes=40, max_iterations=300)


@main.command("oracle")
@click.option("--kind", required=True, type=click.Choice(KINDS))
@click.option("--n", required=True, type=int)
@click.option("--m", default=0, type=int)
@click.option("--m1", default=0, type=int)
@click.option("--m2", default=0, type=int)
@click.option("--eps", default=0.0, type=float)
@click.option("--eps1", default=0.0, type=float)
@click.option("--eps2", default=0.0, type=float)
@click.option("--count", default=20, type=click.IntRange(min=0))
@click.option("--seed", default=0, type=int)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def cmd_oracle(kind, n, m, m1, m2, eps, eps1, eps2, count, seed, out):
    """Compare decoded solutions against the enumerated optimum at desk scale."""
    cap = ORACLE_CAPS[kind]
    if n > cap:
        click.echo(f"oracle enumeration needs n <= {cap} for kind {kind}", err=True)
        sys.exit(3)
    rho = _ORACLE_RHO.get(kind)
    if kind in TREE_KINDS and (m1 + m2) > 0:
        rho = (2.0 / 3.0 * m1 + 1.0 / 3.0 * m2) / (m1 + m2)
    configs = [_generator_config(kind, n, m, m1, m2, eps, eps1, eps2, False, seed + i)
               for i in range(count)]
    cells = []
    flagged = 0
    for cfg in configs:
        inst = _make_instance(cfg)
        _, best_score = oracle_best(inst)
        _, sol, _ = _solve_instance(inst, replace(_ORACLE_SOLVER, seed=cfg.seed),
                                    decoder.DecodeConfig(seed=cfg.seed))
        sc = score(inst, sol)
        rng = np.random.default_rng((cfg.seed, 2))
        base = score(inst, random_solution(kind, n, rng))
        cell = {
            "seed": cfg.seed,
            "oracle_satisfied": best_score.satisfied,
            "solver_satisfied": sc.satisfied,
            "random_satisfied": base.satisfied,
            "total": sc.total,
        }
        if rho is not None and best_score.satisfied > 0:
            cell["flagged"] = sc.satisfied < rho * best_score.satisfied
            flagged += cell["flagged"]
        cells.append(cell)
    report = {"kind": kind, "n": n, "count": count, "flagged": flagged, "cells": cells}
    if out:
        serialize.write_json(out, report)
    else:
        click.echo(serialize.dumps(report), nl=False)


if __name__ == "__main__":
    main()
