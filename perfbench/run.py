#!/usr/bin/env python3
"""Benchmark of polyextremal: set-up, batch and point evaluation, and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload setup-tangent --seed 1 --seconds 20 --trace 0

It builds the workload's inputs from the seed (``inputs.py``), drives the
library in ``src/`` and its CLI, checks every output against the numpy
oracles of ``checks.py``, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken with spans around the calls between layers
(``tracing.py``).  Exit status 0 means every operation ran and passed its
check.  Inputs, outputs, raw samples and spans go to ``.perfbench/``.

A run is a sequence of whole rounds, at least ``MIN_ROUNDS`` and as many
as fit in ``--seconds``.  Each round sets up every polytope of the workload,
evaluates each one's batch ``BATCH_PER_ROUND`` times (the very first call
is the cold one), times the next ``POINTS_PER_ROUND`` single points and runs the CLI command once, with ``gc.collect()`` before every
timed sample, so every metric samples the whole run.  Times are CPU seconds
scaled to a reference speed (``speed.py``); every reported time is a median
over samples.
"""

from __future__ import annotations

import os

# One BLAS thread here and in every CLI child, so that no timing depends on
# how a thread pool is scheduled on a small machine.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({name: "1" for name in THREAD_VARIABLES})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs as gen  # noqa: E402
from speed import Calibrator, Monitor, clock, pin_to_one_cpu  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 150.0

MIN_ROUNDS = 5
BATCH_PER_ROUND = 3     # warm eval_extremal_many calls per polytope and round
# Single points timed per round; with MIN_ROUNDS, at least 100 samples.
POINTS_PER_ROUND = {"setup-tangent": 30, "grid-ngon": 20, "eval-cli": 60}


class Run:
    """State of one benchmark run: the library, inputs, samples, tallies."""

    def __init__(self, lib, inputs, seconds: float, tracer, directory: str):
        self.lib = lib
        self.inputs = inputs
        self.seconds = seconds
        self.tracer = tracer
        self.directory = directory
        self.calibrator = Calibrator()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        count = len(inputs.members)
        # The first round's support sets are evaluated in every round, so
        # that the frame cache behind eval_extremal_many stays warm.
        self.supports = [None] * count
        self.keys = [None] * count
        self.batch = [None] * count                    # (values, argmax) per member
        self.setup = [[] for _ in range(count)]        # scaled seconds, untraced
        self.traced_setup = [[] for _ in range(count)]
        self.traced_factors: list[float] = []
        self.traced_rounds = 0
        self.cold = [0.0] * count
        self.warm = [[] for _ in range(count)]
        self.points: list[tuple] = []                  # (member, z, value, argmax)
        self.next_point = 0
        self.latencies: list[float] = []
        self.cli_cpu: list[float] = []
        self.cli_rss: list[float] = []
        self.metrics: dict[str, float] = {}

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {problems[0]}")
        return not problems

    def fail(self, label: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.record(label, [f"raised {sys.exc_info()[1]!r}"])

    def span(self, name: str, on: bool = True):
        """A span when tracing (and ``on``), else nothing."""
        if self.tracer is None or not on:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def ready(self) -> bool:
        return all(s is not None for s in self.supports) and all(
            b is not None for b in self.batch)


def support_key(support_set) -> tuple:
    """Facet tuples and apex bytes: equal keys mean identical supports."""
    parts = []
    for s in support_set:
        apexes = s.apexes if s.kind == "simplex" else s.cross_simplex.apexes
        parts.append((s.facet_indices, apexes.tobytes()))
    return tuple(parts)


def check_support_set(member, support_set) -> list[str]:
    simplices = [(s.facet_indices, s.apexes) for s in support_set if s.kind == "simplex"]
    strips = [s.facet_indices for s in support_set if s.kind == "strip"]
    order = [s.facet_indices for s in support_set]
    return (checks.check_vertices(member.normals, member.offsets, support_set.polytope.vertices)
            + checks.check_supports(member.normals, member.offsets, simplices, strips, order))


def check_batch_values(member, points, kinds, values) -> list[str]:
    problems = checks.check_values(values, kinds)
    if member.symmetric:
        problems += checks.check_lundin(member.normals, member.offsets, points, values, kinds)
    else:
        problems += checks.check_ball_bounds(member.normals, member.offsets, points, values, kinds)
    return problems


# --- one operation of each kind -------------------------------------------------

def measure_setup(run: Run, i: int, tracing: bool) -> None:
    """validate + enumerate_supports of member i; the first result is checked
    against numpy, later ones must be identical to it."""
    member = run.inputs.members[i]
    label = f"setup {member.name}"
    halfspaces = member.halfspaces()
    gc.collect()
    try:
        start = clock()
        with run.span("bench.setup", tracing):
            with run.span("polytope.validate", tracing):
                polytope = run.lib.validate(halfspaces, member.dim)
            with run.span("supports.enumerate_supports", tracing):
                support_set = run.lib.enumerate_supports(polytope)
        elapsed = clock() - start
    except Exception:
        run.fail(label)
        run.calibrator.factor()
        return
    factor = run.calibrator.factor()
    (run.traced_setup if tracing else run.setup)[i].append(elapsed * factor)
    if tracing:
        run.traced_factors.append(factor)
    key = support_key(support_set)
    if run.keys[i] is None:
        run.record(label, check_support_set(member, support_set))
        run.keys[i] = key
        run.supports[i] = support_set
    else:
        run.record(label, [] if key == run.keys[i] else ["supports differ between rounds"])


def measure_batch(run: Run, i: int) -> None:
    """eval_extremal_many over member i's points.  The first call builds the
    frames (cold) and is checked against the oracles; later calls must
    return identical arrays."""
    member = run.inputs.members[i]
    if run.supports[i] is None:
        return
    label = f"batch {member.name}"
    gc.collect()
    try:
        start = clock()
        with run.span("extremal.eval_extremal_many"):
            values, argmax = run.lib.eval_extremal_many(run.supports[i], member.batch_points)
        elapsed = clock() - start
    except Exception:
        run.fail(label)
        run.calibrator.factor()
        return
    factor = run.calibrator.factor()
    if run.batch[i] is None:
        run.cold[i] = elapsed * factor
        if run.record(label, check_batch_values(
                member, member.batch_points, member.batch_kinds, values)):
            run.batch[i] = (values, argmax)
            run.points += [(i, member.batch_points[k], float(values[k]), int(argmax[k]))
                           for k in member.sample_index]
        return
    run.warm[i].append(elapsed * factor)
    same = np.array_equal(values, run.batch[i][0]) and np.array_equal(argmax, run.batch[i][1])
    run.record(label, [] if same else ["values differ between calls"])


def measure_points(run: Run) -> None:
    """eval_extremal at the workload's next POINTS_PER_ROUND sample points;
    each value must equal the batch value bitwise, as the extremal module's
    docstring promises."""
    if not run.points:
        return
    for _ in range(POINTS_PER_ROUND[run.inputs.workload]):
        i, z, value, argmax = run.points[run.next_point % len(run.points)]
        run.next_point += 1
        label = f"point {run.inputs.members[i].name}"
        gc.collect()
        try:
            start = clock()
            with run.span("extremal.eval_extremal"):
                result = run.lib.eval_extremal(run.supports[i], z)
            elapsed = clock() - start
        except Exception:
            run.fail(label)
            run.calibrator.factor()
            continue
        run.latencies.append(elapsed * run.calibrator.factor())
        same = result.value == value and result.argmax == argmax
        run.record(label, [] if same else ["scalar value differs from batch value"])


def measure_cli(run: Run, command: "CliCommand") -> None:
    """One run of the CLI command, its CPU time scaled by the reference
    loops run beside it."""
    gc.collect()
    with Monitor() as monitor:
        result = command.execute()
    if result is not None:
        run.cli_cpu.append(result[1] * monitor.factor())
        run.cli_rss.append(result[2])
        run.metrics["cli.output_bytes"] = result[3]


def run_rounds(run: Run, paths: dict[str, str]) -> None:
    """Whole rounds until MIN_ROUNDS are done and another would overrun
    ``--seconds``.  In a traced run every second round's set-ups are traced."""
    count = len(run.inputs.members)
    command = None
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or (
            time.perf_counter() + (time.perf_counter() - started) / rounds
            <= started + run.seconds):
        tracing = run.tracer is not None and rounds % 2 == 1
        if tracing:
            run.tracer.install(run.lib)
        try:
            for i in range(count):
                measure_setup(run, i, tracing)
        finally:
            if tracing:
                run.tracer.restore()
                run.traced_rounds += 1
        for _ in range(BATCH_PER_ROUND):
            for i in range(count):
                measure_batch(run, i)
        measure_points(run)
        if command is None and run.ready():
            command = CliCommand(run, paths)
        if command is not None:
            measure_cli(run, command)
            run.calibrator.factor()
        rounds += 1


def end_to_end_metrics(run: Run) -> None:
    members = run.inputs.members
    if all(run.setup):
        run.metrics["setup_s"] = sum(statistics.median(t) for t in run.setup)
    if all(run.warm):
        medians = [statistics.median(t) for t in run.warm]
        points = sum(len(m.batch_points) for m in members)
        work = sum(len(m.batch_points) * len(s) for m, s in zip(members, run.supports))
        run.metrics.update({
            "eval_points_per_s": points / sum(medians),
            "extremal.eval_many_s": sum(medians),
            "extremal.ns_per_point_support": 1e9 * sum(medians) / work,
            "extremal.supports_per_point": work / points,
            "extremal.frame_build_s": sum(run.cold) - sum(medians),
            "extremal.winning_supports": sum(len(np.unique(b[1])) for b in run.batch),
            "extremal.zero_points": sum(int(np.sum(b[0] == 0.0)) for b in run.batch),
        })
    if len(run.latencies) >= MIN_ROUNDS * POINTS_PER_ROUND[run.inputs.workload]:
        run.metrics["point_eval_us_p50"] = 1e6 * statistics.median(run.latencies)
        run.metrics["point_eval_us_p90"] = 1e6 * statistics.quantiles(run.latencies, n=10)[8]
        run.metrics["extremal.scalar_call_us"] = 1e6 * statistics.fmean(run.latencies)
    if run.cli_cpu:
        run.metrics["cli_s"] = statistics.median(run.cli_cpu)
        run.metrics["peak_rss_mb"] = statistics.median(run.cli_rss)
    if run.traced_factors and all(run.setup) and all(run.traced_setup):
        run.metrics["trace.overhead_pct"] = 100.0 * (
            sum(statistics.median(t) for t in run.traced_setup)
            / sum(statistics.median(t) for t in run.setup) - 1.0)


# --- the CLI ------------------------------------------------------------------

def run_child(argv: list[str], stdout_path: str) -> tuple[float, float, float, int]:
    """Run a child to completion: (wall seconds, CPU seconds, peak RSS in MB,
    exit code).  CPU time includes the child's own waited-for children."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("EXTREMAL_TOL", None)
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > CHILD_TIMEOUT_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


class CliCommand:
    """A CLI command of the workload, its expected output, and its check."""

    def __init__(self, run: Run, paths: dict[str, str], grid=None, jobs: int = 1):
        self.run = run
        self.kind = "grid" if grid is not None else run.inputs.cli_kind
        self.grid = grid if grid is not None else run.inputs.grid
        index = self.grid.member if self.kind == "grid" else run.inputs.cli_member
        self.member = run.inputs.members[index]
        self.supports = run.supports[index]
        path = paths[self.member.name]
        tag = f"{self.kind}-jobs{jobs}"
        self.stdout_path = os.path.join(run.directory, f"{tag}.out")
        self.out_path = os.path.join(run.directory, f"{tag}.csv")
        if self.kind == "supports":
            self.args = ["supports", path]
        elif self.kind == "eval":
            self.args = ["eval", path, "--points-file", paths["points"]]
            values, argmax = run.batch[index]
            self.expected = (values[self.member.sample_index], argmax[self.member.sample_index])
        else:
            self.args = ["grid", path, *gen.grid_args(self.grid), "--out", self.out_path,
                         "--jobs", str(jobs), "--reproducible"]
            self.us = np.linspace(self.grid.bounds[0], self.grid.bounds[1], self.grid.resolution)
            self.vs = np.linspace(self.grid.bounds[2], self.grid.bounds[3], self.grid.resolution)
            points = gen.slice_points(self.grid, self.member.dim)
            self.expected = run.lib.eval_extremal_many(self.supports, points)
            kinds = np.full(len(points), gen.KIND_COMPLEX)
            run.record(f"grid values {self.member.name}", check_batch_values(
                self.member, points, kinds, self.expected[0]))

    def output(self) -> bytes:
        path = self.out_path if self.kind == "grid" else self.stdout_path
        with open(path, "rb") as handle:
            return handle.read()

    def check(self, text: str) -> list[str]:
        """CLI output must parse back to exactly the library's values."""
        if self.kind == "supports":
            got = tuple((tuple(r["facets"]), np.array(r["apexes"], dtype=float).tobytes())
                        for r in json.loads(text))
            return [] if got == support_key(self.supports) else [
                "CLI supports differ from the library's"]
        if self.kind == "eval":
            rows = [line.split() for line in text.splitlines() if line.strip()]
            values = np.array([float(r[0]) for r in rows])
            argmax = np.array([int(r[1]) for r in rows])
            same = (np.array_equal(values, self.expected[0])
                    and np.array_equal(argmax, self.expected[1]))
            return [] if same else ["CLI eval lines differ from the batch values"]
        lines = text.splitlines()
        if not lines or lines[0] != "u,v,value,argmax":
            return ["CSV header missing"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(self.us) * len(self.vs):
            return [f"{len(rows)} CSV rows for a {len(self.us)}x{len(self.vs)} grid"]
        table = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in rows])
        argmax = np.array([int(r[3]) for r in rows])
        same = (np.array_equal(table[:, 0], np.tile(self.us, len(self.vs)))
                and np.array_equal(table[:, 1], np.repeat(self.vs, len(self.us)))
                and np.array_equal(table[:, 2], self.expected[0])
                and np.array_equal(argmax, self.expected[1]))
        return [] if same else ["CSV rows differ from the batch values"]

    def execute(self) -> tuple[float, float, float, int] | None:
        """One checked run: (wall s, CPU s, peak RSS MB, output bytes), or
        None when it failed."""
        label = f"cli {self.kind} {self.member.name}"
        try:
            wall, cpu, rss, code = run_child(
                [sys.executable, "-m", "polyextremal", *self.args], self.stdout_path)
            output = self.output() if code == 0 else b""
            problems = [f"exit code {code}"] if code else self.check(output.decode())
        except Exception:
            self.run.fail(label)
            return None
        return (wall, cpu, rss, len(output)) if self.run.record(label, problems) else None


def cli_layers(run: Run, paths: dict[str, str], cpus: set[int]) -> None:
    """Traced run only: cli.main in-process, the import floor, and the grid
    with two worker processes on all ``cpus``."""
    if not run.ready():
        return
    command = CliCommand(run, paths)
    stdout = io.StringIO()
    run.calibrator.factor()
    run.tracer.install(run.lib)
    try:
        with contextlib.redirect_stdout(stdout), run.tracer.span("cli.main"):
            code = run.lib.cli.main(command.args)
    except Exception:
        run.fail("cli.main")
        code = None
    finally:
        run.tracer.restore()
    factor = run.calibrator.factor()
    if code is not None:
        text = command.output().decode() if command.kind == "grid" else stdout.getvalue()
        run.record("cli.main", [f"exit code {code}"] if code else command.check(text))
        run.metrics["cli.self_s"] = run.tracer.totals("cli.main")["cli.main"]["self_s"] * factor

    probe = ("import time; t = time.process_time(); import polyextremal.cli; "
             "print(time.process_time() - t)")
    path = os.path.join(run.directory, "import.out")
    imports = []
    for _ in range(3):
        code = run_child([sys.executable, "-c", probe], path)[-1]
        factor = run.calibrator.factor()
        with open(path, encoding="utf-8") as handle:
            text = handle.read().strip()
        if run.record("cli import", [f"exit code {code}"] if code else []):
            imports.append(float(text) * factor)
    if imports:
        run.metrics["cli.import_s"] = statistics.median(imports)

    # Wall time on every CPU: what a user of --jobs 2 waits for.
    jobs2 = CliCommand(run, paths, grid=run.inputs.jobs2_grid, jobs=2)
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        result = jobs2.execute()
    finally:
        os.sched_setaffinity(0, pinned)
    if result is not None:
        run.metrics["cli.grid_jobs2_s"] = result[0]


def layer_metrics(run: Run) -> None:
    """Per-layer figures per traced set-up round, from the spans, scaled
    like the set-up times."""
    if not run.traced_factors or not all(run.supports):
        return
    totals = run.tracer.totals("bench.setup")
    rounds = run.traced_rounds
    scale = statistics.median(run.traced_factors)

    def get(name: str, field: str = "total_s") -> float:
        value = totals.get(name, {}).get(field, 0.0)
        return value if field == "calls" else value * scale

    def per_call_us(name: str) -> float:
        calls = get(name, "calls")
        return 1e6 * get(name) / calls if calls else 0.0

    visited = (get("supports.try_simplex", "calls") + get("supports.try_strip", "calls")) / rounds
    simplices = sum(sum(1 for s in ss if s.kind == "simplex") for ss in run.supports)
    strips = sum(sum(1 for s in ss if s.kind == "strip") for ss in run.supports)
    run.metrics.update({
        "polytope.validate_s": get("polytope.validate") / rounds,
        "polytope.enumerate_vertices_s": get("polytope.enumerate_vertices") / rounds,
        "polytope.vertices": sum(len(ss.polytope.vertices) for ss in run.supports),
        "linalg.interior_point_s": get("linalg.interior_point") / rounds,
        "linalg.recession_direction_s": get("linalg.recession_direction") / rounds,
        "linalg.solve_real_calls": get("linalg.solve_real", "calls") / rounds,
        "linalg.solve_real_us": per_call_us("linalg.solve_real"),
        "linalg.rank_calls": get("linalg.rank", "calls") / rounds,
        "supports.enumerate_s": get("supports.enumerate_supports") / rounds,
        "supports.try_simplex_us": per_call_us("supports.try_simplex"),
        "supports.try_strip_us": per_call_us("supports.try_strip"),
        "supports.subsets_visited": visited,
        "supports.simplices": simplices,
        "supports.strips": strips,
        "supports.accept_ratio": (simplices + strips) / visited,
    })


# --- entry point --------------------------------------------------------------

def load_library():
    """polyextremal from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "polyextremal", "__init__.py")):
        raise SystemExit(f"error: {SRC}/polyextremal not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import polyextremal
    import polyextremal.cli
    if os.path.dirname(os.path.abspath(polyextremal.__file__)) != os.path.join(SRC, "polyextremal"):
        raise SystemExit(f"error: polyextremal imported from {polyextremal.__file__}, not {SRC}")
    return polyextremal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="polyextremal benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lib = load_library()
    cpus = pin_to_one_cpu()
    directory = os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    generated = gen.make_inputs(args.workload, args.seed)
    paths = gen.write_files(generated, directory)
    run = Run(lib, generated, args.seconds, Tracer() if args.trace else None, directory)

    run_rounds(run, paths)
    end_to_end_metrics(run)
    if run.tracer is not None:
        cli_layers(run, paths, cpus)
        layer_metrics(run)
        run.tracer.write(os.path.join(directory, "spans.jsonl"))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in wanted if name not in run.metrics]
    run.problems += [f"metric {name} not measured" for name in missing]
    correct = run.failed == 0 and not missing
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(run.metrics[name]), "unit": unit}
                    for name, unit in wanted.items() if name in run.metrics},
    }
    samples = {"setup": run.setup, "batch": run.warm, "point": run.latencies,
               "cli": run.cli_cpu, "speed_factors": run.calibrator.factors}
    with open(os.path.join(directory, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(result, problems=run.problems, samples=samples), handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
