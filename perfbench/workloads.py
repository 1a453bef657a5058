"""Workload definitions: which instance files exist and which CLI jobs run.

A workload is a list of instances plus the `solve` flags used on them. Each
instance is produced by `ordagg gen` and solved by `ordagg solve`, both driven
through the real command line. Generation runs in set-up unless the workload
times it; then each cycle of the closed loop is `gen` then `solve` per
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

EPS = "0.1"
TREE_KINDS = ("triplets", "quartets")
KINDS = ("mas", "btw", "nonbtw", "cc", "triplets", "quartets")


@dataclass(frozen=True)
class Spec:
    kind: str
    n: int
    m: int  # total constraints; tree kinds split it evenly into m1 and m2

    @property
    def label(self) -> str:
        return f"{self.kind} n={self.n} m={self.m}"


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and perfbench/README.md."""

    instances: tuple[Spec, ...]
    smoke: tuple[Spec, ...]
    gen_timed: bool = False
    solve_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Job:
    op: str  # "gen" or "solve"
    args: tuple[str, ...]
    spec: Spec
    instance: Path  # the instance file this job writes (gen) or reads (solve)
    out: Path  # the file this job writes: instance (gen) or solution (solve)
    report: Path | None = None

    @property
    def label(self) -> str:
        return f"{self.instance.name.split('.')[0]} {self.spec.label}"


# Sizes keep every job under about a second, so that a 30 s run measures each
# job 6-14 times. `mas` always runs its ascent to the iteration cap, so its
# work does not depend on the seed, while the undirected kinds stop after a
# seed-dependent number of iterations: dense-solve is mostly `mas`, and its
# median job is a `mas` solve.
WORKLOADS = {
    "dense-solve": Workload(
        instances=(Spec("mas", 150, 5_000), Spec("nonbtw", 150, 5_000), Spec("mas", 150, 5_000),
                   Spec("quartets", 150, 3_000), Spec("mas", 150, 5_000)),
        smoke=(Spec("mas", 20, 200), Spec("nonbtw", 30, 300), Spec("quartets", 20, 200)),
    ),
    "many-constraints": Workload(
        instances=tuple(Spec(k, 80, 10_000) for k in KINDS),
        smoke=tuple(Spec(k, 12, 100) for k in KINDS),
        gen_timed=True,
        # One restart keeps the solver a small part of this workload; with
        # eight, the seed-dependent undirected ascents decided the median job.
        solve_flags=("--restarts", "1"),
    ),
    "recursive-decode": Workload(
        instances=(Spec("nonbtw", 80, 8_000), Spec("btw", 80, 8_000),
                   Spec("triplets", 64, 6_000)) * 3,
        smoke=(Spec("nonbtw", 20, 400), Spec("btw", 20, 400), Spec("triplets", 16, 300)),
        solve_flags=("--recursive",),
    ),
}

# Warm-up instances: one tiny file per kind, solved with the workload's flags,
# so first-call costs land in set-up and not in the timed loop. Their seed is
# fixed: the solver's iteration count varies with the instance, and warm-up
# is most of the set-up time of a workload that generates in its timed loop.
WARMUP_N = 12
WARMUP_M = 60
WARMUP_SEED = 0


def _gen_args(spec: Spec, seed: int, path: Path) -> tuple[str, ...]:
    args = ["gen", "--kind", spec.kind, "--n", str(spec.n), "--seed", str(seed),
            "--out", str(path)]
    if spec.kind in TREE_KINDS:
        m1 = spec.m // 2
        args += ["--m1", str(m1), "--m2", str(spec.m - m1), "--eps1", EPS, "--eps2", EPS]
    else:
        args += ["--m", str(spec.m), "--eps", EPS]
    return tuple(args)


def _pair(spec: Spec, gen_seed: int, solve_seed: int, solve_flags: tuple[str, ...],
          stem: Path) -> tuple[Job, Job]:
    inst = stem.with_name(stem.name + ".instance.json")
    sol = stem.with_name(stem.name + ".solution.json")
    rep = stem.with_name(stem.name + ".report.json")
    gen = Job("gen", _gen_args(spec, gen_seed, inst), spec, inst, inst)
    args = ["solve", "--in", str(inst), "--out", str(sol), "--report", str(rep),
            "--seed", str(solve_seed), *solve_flags]
    return gen, Job("solve", tuple(args), spec, inst, sol, rep)


def plan(name: str, seed: int, smoke: bool, workdir: Path) -> tuple[list[Job], list[Job]]:
    """Set-up jobs and the jobs of one cycle of the timed loop.

    Instance i is generated with seed `seed * 1000 + i` and solved with `seed`,
    so the workload seed fixes every input and every output.
    """
    w = WORKLOADS[name]
    specs = w.smoke if smoke else w.instances
    setup: list[Job] = []
    cycle: list[Job] = []
    for kind in dict.fromkeys(s.kind for s in specs):
        warm = Spec(kind, WARMUP_N, WARMUP_M)
        setup.extend(_pair(warm, WARMUP_SEED, WARMUP_SEED, w.solve_flags, workdir / f"warmup-{kind}"))
    for i, spec in enumerate(specs):
        gen, solve = _pair(spec, seed * 1000 + i, seed, w.solve_flags, workdir / f"{i:02d}-{spec.kind}")
        if w.gen_timed:
            cycle.append(gen)
        else:
            setup.append(gen)
        cycle.append(solve)
    return setup, cycle
