"""Benchmark of the ordagg command line, one workload per process.

    python3 perfbench/run.py --workload dense-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of an ordagg checkout; the program is imported from its
`src/`. A workload is a closed loop with one client: the next CLI job starts
when the previous one has returned. Jobs are `ordagg gen` and `ordagg solve`
on files the benchmark generates, called in-process through
`ordagg.cli.main(args, standalone_mode=False)`. The loop runs whole cycles
of the workload's job list and starts no cycle it expects to end after
`--seconds` of job time. Each job run is scaled by how fast a fixed
reference loop ran just before and just after it (see `reference_s`), and a
job's time is the lower quartile of its scaled runs.

Every job's output is checked outside the timed region: instances must
validate, solutions must pass their kind's validator and re-score to the
report's satisfied/total, and a rerun of a job must write the same bytes.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced cycles and prints the per-layer metrics (per cycle), the tracing
overhead, and the ROADMAP baseline columns per instance. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# Pinned before numpy loads, so that the numbers measure the program and not
# the thread scheduler. ORDAGG_THREADS stays unset: `bench` then uses one
# worker, and gen and solve do not read it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("ORDAGG_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Job, plan  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
# Seconds `reference_s` takes on the reference machine when no other tenant
# slows it.
REF_S = 0.03

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "satisfied_fraction": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "generator.busy_s": "s", "generator.calls": "count", "generator.constraints": "count",
    "serialize.busy_s": "s", "serialize.bytes_read": "bytes", "serialize.bytes_written": "bytes",
    "model.validate_s": "s",
    "graph.busy_s": "s", "graph.calls": "count", "graph.edges": "count",
    "solver.busy_s": "s", "solver.calls": "count", "solver.nodes": "count",
    "solver.cut_over_relax": "ratio",
    "decoder.busy_s": "s", "decoder.self_s": "s", "decoder.inner_solves": "count",
    "decoder.inner_solve_s": "s", "decoder.inner_score_calls": "count",
    "evaluator.busy_s": "s", "evaluator.calls": "count", "evaluator.constraints_scored": "count",
    "cli.self_s": "s", "trace.overhead": "ratio",
}


def load_program():
    """Import ordagg from this checkout's src/, never from an installed copy."""
    if not (SRC / "ordagg" / "cli.py").is_file():
        sys.exit(f"perfbench: no ordagg source at {SRC / 'ordagg'}; run from a checkout's root")
    sys.path.insert(0, str(SRC))
    from ordagg import cli, decoder, evaluator, model, serialize

    if Path(cli.__file__).resolve().parent != SRC / "ordagg":
        sys.exit(f"perfbench: imported ordagg from {cli.__file__}, not from {SRC}")
    return cli, decoder, evaluator, model, serialize


def _libc_malloc_trim():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _libc_malloc_trim()


def release_free_memory() -> None:
    """Hand freed heap pages back to the OS after each job.

    A user runs one CLI job per process. Without this, pages one job freed but
    the allocator kept would lift the next job's resident size, so
    `peak_rss_mb` would depend on the order of the jobs.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class Checker:
    """Checks each job's output; a rerun of a job must write the same bytes,
    so after a job's first full check a digest compare suffices."""

    def __init__(self, evaluator, model, serialize):
        self.evaluator, self.model, self.serialize = evaluator, model, serialize
        self.validators = {
            model.Ranking: model.validate_ranking,
            model.Partition: model.validate_partition,
            model.RootedBinaryTree: model.validate_rooted_tree,
            model.UnrootedTree: model.validate_unrooted_tree,
        }
        # instance path -> parsed Instance, held until its first solve is
        # checked, so that the checker's state stays out of peak_rss_mb
        self.instances = {}
        self.first = {}  # output path -> (sha256, (satisfied, total) or None)

    def __call__(self, job) -> tuple[list[str], float | None]:
        try:
            if job.op == "gen":
                return self._gen(job), None
            return self._solve(job)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"], None

    def _rerun(self, job, digest: str) -> list[str]:
        if digest != self.first[job.out][0]:
            return [f"{job.out.name} differs from this job's first run"]
        return []

    def _gen(self, job) -> list[str]:
        data = job.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if job.out in self.first:
            return self._rerun(job, digest)
        inst, _ = self.serialize.obj_to_instance(json.loads(data))
        problems = self.model.validate(inst)
        shape = (inst.kind, inst.n, len(inst.constraints))
        if shape != (job.spec.kind, job.spec.n, job.spec.m):
            problems.append(f"instance is {shape}, asked for {job.spec.label}")
        if not problems:
            self.instances[job.instance] = inst
            self.first[job.out] = (digest, None)
        return problems

    def _solve(self, job) -> tuple[list[str], float | None]:
        data = job.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        report = json.loads(job.report.read_bytes())
        claimed = (report["satisfied"], report["total"])
        if job.out in self.first:
            problems = self._rerun(job, digest)
            expected = self.first[job.out][1]
        else:
            inst = self.instances[job.instance]
            obj = json.loads(data)
            sol = self.serialize.obj_to_solution(obj["solution"])
            problems = []
            if (obj["kind"], obj["n"]) != (inst.kind, inst.n):
                problems.append("solution file names another kind or n")
            if not isinstance(sol, self.model.SOLUTION_TYPE[inst.kind]):
                problems.append(f"{type(sol).__name__} does not fit kind {inst.kind}")
            else:
                problems += self.validators[type(sol)](sol, inst.n)
            if problems:
                return problems, None
            sc = self.evaluator.score(inst, sol)
            expected = (sc.satisfied, sc.total)
            self.first[job.out] = (digest, expected)
            del self.instances[job.instance]
        if claimed != expected:
            problems.append(f"report says {claimed} satisfied/total, re-score gives {expected}")
        return problems, (expected[0] / expected[1] if expected[1] else None)

    def digest(self, jobs) -> str:
        """sha256 over the solution files' digests, in job order."""
        h = hashlib.sha256()
        for job in jobs:
            if job.op == "solve" and job.out in self.first:
                h.update(self.first[job.out][0].encode())
        return h.hexdigest()


def reference_s() -> float:
    """Seconds for a fixed loop that is not the program's code: small dense
    products with row normalisation, as in the ascent, and building and
    dumping small dicts, as in gen and serialize. Light on memory, so that
    it leaves `peak_rss_mb` alone."""
    t0 = perf_counter()
    rng = np.random.default_rng(0)
    M = rng.standard_normal((150, 150))
    V = rng.standard_normal((150, 22))
    for _ in range(450):
        V = M @ V
        V /= np.linalg.norm(V, axis=1, keepdims=True)
    counts: dict[tuple[int, int], float] = {}
    for i in range(22_000):
        key = (i % 31, i % 37)
        counts[key] = counts.get(key, 0.0) + 1.0
    json.dumps([{"t": "x", "a": i, "b": i + 1} for i in range(6000)])
    return perf_counter() - t0


class Record(NamedTuple):
    job: Job
    phase: str  # "setup" or "timed"
    cycle: int
    traced: bool
    seconds: float
    ref_s: float  # mean of the reference loop's times just before and after
    problems: list[str]
    fraction: float | None  # satisfied/total of a checked solution

    @property
    def scaled_s(self) -> float:
        return self.seconds * REF_S / self.ref_s


def job_s(records, scaled: bool = True) -> dict[Job, float]:
    """Each job's time: the lower quartile of its runs, scaled to the
    reference machine or not.

    Other tenants of a small shared machine slow everything down, never
    speed it up, in phases of a few seconds to minutes. The reference loop
    next to a run measures the phase it ran in. A slow phase that starts or
    ends within a job fools the scaling both ways, so the fastest scaled run
    would pick the errors that favour the job; the lower quartile drops the
    slowest runs and not only the errors.
    """
    runs: dict[Job, list[float]] = {}
    for r in records:
        runs.setdefault(r.job, []).append(r.scaled_s if scaled else r.seconds)
    return {job: statistics.quantiles(v, n=4, method="inclusive")[0] if len(v) > 1 else v[0]
            for job, v in runs.items()}


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.cli, self.decoder, evaluator, model, serialize = load_program()
        self.check = Checker(evaluator, model, serialize)
        self.tracer = tracing.Tracer()
        self.workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        self.setup, self.cycle = plan(name, seed, smoke, self.workdir)
        self.records: list[Record] = []
        self.refs: list[float] = []  # every reference loop time, in order

    def _reference(self) -> float:
        self.refs.append(reference_s())
        return self.refs[-1]

    def _run(self, job: Job, phase: str, cycle: int, traced: bool) -> float:
        self.tracer.job = len(self.records)
        t0 = perf_counter()
        try:
            rv = self.cli.main(list(job.args), standalone_mode=False)
            problems = [] if rv in (None, 0) else [f"exit code {rv}"]
        except SystemExit as e:
            problems = [] if e.code in (None, 0) else [f"exit code {e.code}"]
        except Exception as e:  # a failed job is counted; the loop goes on
            problems = [f"{type(e).__name__}: {e}"]
        dt = perf_counter() - t0
        release_free_memory()
        ref_s = (self.refs[-1] + self._reference()) / 2
        fraction = None
        if not problems:
            problems, fraction = self.check(job)
        for p in problems:
            print(f"FAILED {job.op} {job.spec.label} ({phase} {cycle}): {p}")
        self.records.append(Record(job, phase, cycle, traced, dt, ref_s, problems, fraction))
        return dt

    def run(self) -> dict:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        try:
            return self._measure()
        finally:
            self.tracer.uninstall()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _measure(self) -> dict:
        # Set-up: write the instance files the timed loop reads, plus warm-up
        # jobs. Repeated, so that each set-up job is timed as the timed jobs
        # are; traced once instead.
        self._reference()
        for rep in range(1 if self.trace else SETUP_REPEATS):
            if self.trace:
                self.tracer.install(self.cli, self.decoder)
            for job in self.setup:
                self._run(job, "setup", rep, self.trace)
            self.tracer.uninstall()
        # Timed loop; with tracing, odd cycles are traced and even ones not.
        elapsed, cycle = 0.0, 0
        while True:
            traced = self.trace and cycle % 2 == 1
            if traced:
                self.tracer.install(self.cli, self.decoder)
            cycle_s = 0.0
            for job in self.cycle:
                cycle_s += self._run(job, "timed", cycle, traced)
            self.tracer.uninstall()
            elapsed += cycle_s
            cycle += 1
            if cycle >= (2 if self.trace else 1) and elapsed + cycle_s > self.seconds:
                break
        return self._results(cycle)

    def _results(self, cycles: int) -> dict:
        setup = [r for r in self.records if r.phase == "setup"]
        timed = [r for r in self.records if r.phase == "timed" and not r.traced]
        times = job_s(timed)
        raw = {"setup_s": sum(job_s(setup, scaled=False).values())}
        raw_job = job_s(timed, scaled=False)
        raw["jobs_per_s"] = len(raw_job) / sum(raw_job.values())
        raw["job_s_p50"] = statistics.median(raw_job.values())
        fractions = [r.fraction for r in timed if r.fraction is not None]
        failed = sum(1 for r in self.records if r.problems)
        out = {
            "workload": self.name, "seed": self.seed, "trace": int(self.trace),
            "cycles": cycles, "jobs_per_cycle": len(self.cycle), "samples": len(timed),
            "attempted": len(self.records), "failed": failed,
            "setup_repeats": 1 if self.trace else SETUP_REPEATS,
            "ref_s": (min(self.refs), statistics.median(self.refs), len(self.refs)),
            "raw": raw,
            "job_s": {f"{j.op} {j.label}": t for j, t in times.items()},
            "solution_sha256": self.check.digest(self.cycle),
            "end_to_end": {
                "setup_s": sum(job_s(setup).values()),
                "jobs_per_s": len(times) / sum(times.values()),
                "job_s_p50": statistics.median(times.values()),
                "satisfied_fraction": statistics.fmean(fractions) if fractions else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "error_rate": failed / len(self.records),
            },
        }
        if self.trace:
            out["per_layer"], out["baseline_ms"] = self._layers(times)
        return out

    def _layers(self, untraced: dict[Job, float]) -> tuple[dict, list]:
        traced = [r for r in self.records if r.phase == "timed" and r.traced]
        ids = {i for i, r in enumerate(self.records) if r.phase == "timed" and r.traced}
        wall = {i: r.seconds for i, r in enumerate(self.records)}
        cycles = len({r.cycle for r in traced})
        layers = tracing.layer_metrics(self.tracer.spans, wall, ids, cycles)
        layers["trace.overhead"] = (sum(job_s(traced).values())
                                    / sum(untraced.values()) - 1.0)
        per_layer = {k: float(layers.get(k, 0.0)) for k in PER_LAYER}
        job_info = {
            i: (r.job.label, r.job.op, r.cycle)
            for i, r in enumerate(self.records)
            if r.traced and not r.job.instance.name.startswith("warmup")
        }
        rows = tracing.baseline_rows(self.tracer.spans, job_info)
        self._write_trace(per_layer)
        return per_layer, rows

    def _write_trace(self, per_layer: dict) -> None:
        jobs = [{"id": i, "op": r.job.op, "instance": r.job.instance.name, "phase": r.phase,
                 "cycle": r.cycle, "traced": r.traced, "wall_s": r.seconds}
                for i, r in enumerate(self.records)]
        path = WORK / f"trace-{self.name}-seed{self.seed}.json"
        path.write_text(json.dumps({"workload": self.name, "seed": self.seed, "jobs": jobs,
                                    "per_layer": per_layer, "spans": self.tracer.spans}))
        print(f"spans written to {path.relative_to(ROOT)}")


def environment() -> dict:
    env = {k: os.environ.get(k) for k in THREAD_ENV}
    env["ORDAGG_THREADS"] = os.environ.get("ORDAGG_THREADS", "unset")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "threads": env}


def report(res: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"closed loop, 1 client: {res['cycles']} cycles x {res['jobs_per_cycle']} jobs")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    e2e = res["end_to_end"]
    units = dict(END_TO_END, error_rate="ratio")
    notes = {"setup_s": f"sum over set-up jobs of each one's time in "
                        f"{res['setup_repeats']} set-ups",
             "jobs_per_s": "jobs per cycle / sum of their times",
             "job_s_p50": f"median over {res['jobs_per_cycle']} jobs, each timed over "
                          f"{res['samples'] // res['jobs_per_cycle']} cycles",
             "error_rate": f"{res['failed']} failed of {res['attempted']} jobs"}
    for k, unit in units.items():
        print(f"  {k:<20} {e2e[k]:>14.6g} {unit:<6} {notes.get(k, '')}")
    print(f"  solution_sha256      {res['solution_sha256']}")
    fastest, median, count = res["ref_s"]
    print(f"  reference loop, run after every job: fastest {fastest:.6g} s, median {median:.6g} s "
          f"of {count}, against {REF_S} s on the reference machine")
    print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    print("  job time: lower quartile of a job's runs, each scaled by the reference loop next to it")
    for k, v in res["job_s"].items():
        print(f"    {k:<44} {v:10.4f}")
    if "per_layer" in res:
        for k, v in res["per_layer"].items():
            print(f"  {k:<30} {v:>14.6g} {PER_LAYER[k]}")
        cols = tracing.TABLE_COLUMNS
        print("  baseline ms (median over traced cycles)")
        print("  " + f"{'instance':<32}" + "".join(f"{c:>10}" for c in cols))
        for label, row in res["baseline_ms"]:
            print("  " + f"{label:<32}" + "".join(
                f"{row[c]:>10.1f}" if c in row else f"{'-':>10}" for c in cols))


def result_line(res: dict) -> str:
    chosen = res["per_layer"] if res["trace"] else res["end_to_end"]
    units = PER_LAYER if res["trace"] else END_TO_END
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": chosen[k], "unit": u} for k, u in units.items()},
    })


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    worst = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})")
            worst = 1
            continue
        if proc.returncode or not res["correct"]:
            worst = 1
        rows.append((name, res))
    for name, res in rows:
        cells = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: correct={res['correct']} failed={res['failed']}/{res['attempted']}  {cells}")
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, for the benchmark's own tests")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    res = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke).run()
    report(res)
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
