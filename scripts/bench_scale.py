"""Time each pipeline layer at sizes past the benchmark's and append the rows
to BENCH_scale.json.

    PYTHONPATH=src python scripts/bench_scale.py

Each row generates one instance, solves and decodes it with the `solve`
command's pipeline (`cli._solve_instance`, default configs, seed 0, eps 0.1),
scores it and serializes it (`instance_to_obj` plus `dumps`, no file write).
It records the milliseconds of gen, score and serialize, timed here, and of
build, ascent, rounding and decode, as the `solve` report names them, with the
cut weight, the relaxation objective, the ascent's steps and whether it
converged. A row names the git commit of the `ordagg` package it imported, so
pointing PYTHONPATH at another checkout's `src` records that commit, and the
machine's CPU count; that checkout's `_solve_instance` must return the layer
times. Rows are appended, never rewritten; the rows of 4b60776 and 95c71c0
have one `solve` layer (the `solver.solve` call, which the ascent and rounding
layers now split) and no overflow check in build. One run per row: treat the
times as rough.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import ordagg
from ordagg import cli, decoder, evaluator, generator, serialize, solver
from ordagg.model import TREE_KINDS

# (kind, n, m); tree kinds split m into m // 2 forbidden and the rest desired
ROWS = [
    ("mas", 300, 20_000),
    ("mas", 2000, 100_000),
    ("nonbtw", 1000, 100_000),
    ("nonbtw", 2000, 100_000),
    ("nonbtw", 4000, 100_000),
    ("cc", 1000, 100_000),
    ("triplets", 1000, 20_000),
    ("quartets", 1000, 20_000),
]
SEED = 0
EPS = 0.1
OUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"


def _git_sha() -> str:
    src = Path(ordagg.__file__).resolve().parent
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def _config(kind: str, n: int, m: int) -> generator.GeneratorConfig:
    if kind in TREE_KINDS:
        return generator.GeneratorConfig(kind=kind, n=n, m1=m // 2, m2=m - m // 2,
                                         eps1=EPS, eps2=EPS, seed=SEED)
    return generator.GeneratorConfig(kind=kind, n=n, m=m, eps=EPS, seed=SEED)


def measure(kind: str, n: int, m: int, sha: str) -> dict:
    ms = {}

    def timed(layer, f, *args):
        t = time.perf_counter()
        out = f(*args)
        ms[layer] = round((time.perf_counter() - t) * 1000.0, 1)
        return out

    inst = timed("gen", generator.make_instance, _config(kind, n, m))
    cut, sol, layer_ms = cli._solve_instance(inst, solver.SolverConfig(seed=SEED),
                                             decoder.DecodeConfig(seed=SEED))
    ms.update((k.removesuffix("_ms"), round(v, 1)) for k, v in layer_ms.items())
    sc = timed("score", evaluator.score, inst, sol)
    timed("serialize", lambda: serialize.dumps(serialize.instance_to_obj(inst)))
    return {
        "sha": sha, "cpus": os.cpu_count(), "kind": kind, "n": n, "m": m, "seed": SEED,
        "eps": EPS, "ms": ms,
        "cut_weight": cut.weight,
        "sdp_objective": cut.sdp_objective,
        "ascent_iterations": cut.ascent_iterations,
        "converged": cut.converged,
        "satisfied_fraction": sc.fraction,
    }


def main() -> None:
    sha = _git_sha()
    rows = json.loads(OUT.read_text()) if OUT.exists() else []
    for kind, n, m in ROWS:
        row = measure(kind, n, m, sha)
        print(json.dumps(row), flush=True)
        rows.append(row)
        # written after every row, so an interrupted run keeps what it measured
        OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    main()
