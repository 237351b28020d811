"""hodgetrack benchmark: three generated workloads, checked outputs, end-to-end
metrics from untraced runs and per-layer spans from a traced pass.

Run from the repository root:

    python3 bench/run.py --workload cli-walkthrough --seed 11 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 1     # each workload in its own process

Workloads (inputs come from hodgetrack.synthetic.four_disks during set-up):

  track-ref        library `track` on n=400, k=1, budget 40, 30 thresholds
                   linspace(0, max, 30) with t[0]=1e-9; the filtered complex is
                   built in set-up. Exercises eigensolve, rank validation and
                   repeated slices; bypasses geometry and I/O.
  cli-walkthrough  README CLI steps 2-6 on n=400: triangulate, spectrum,
                   track, cluster (the frozen criterion-6 slice), hgc. Distinct
                   slices, file output and k-means; the path users take.
  scale-2000       triangulate, full-complex spectrum, cluster and hgc on
                   n=2000. Quadratic Delaunay, the iterative eigensolver and a
                   dense rank check; cluster and hgc fail there today and are
                   counted as failed ops.

Each flow is repeated for its share (--seconds / number of flows) of the
run, at least twice unless one run takes over half of --seconds, and the
repeats are interleaved across the run. Every repeat must write byte-identical data files (manifests
excluded); the first one is checked against references computed by
bench/checks.py. A failed flow reports its exit code and error class and no
time. The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics. A run record (environment, samples,
checks, spans) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"

CLUSTER_T = 0.3055902534568629  # frozen clustering slice of acceptance criterion 6
BUDGET = 40  # eigenpairs per spectrum, as in the README walkthrough
STEPS = 30  # grid thresholds for track
CLUSTERS = 4  # one per disk
SETUP_REPS = 5
MAX_REPS = 30


@dataclass
class Flow:
    """One operation of a workload. `argv` holds CLI arguments with {cloud},
    {complex} and {out} placeholders; the library flow has none."""

    name: str
    check: Callable
    argv: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()


@dataclass
class Workload:
    n: int
    flows: list[Flow]
    # flows summed into solution_s; a fixed set, so fixing a failure elsewhere
    # cannot change what the metric adds up
    solution: tuple[str, ...]
    complex_in_setup: bool = False  # build the filtered complex and grid in set-up


@dataclass
class Outcome:
    seconds: float | None
    exit_code: int | None = 0
    error_class: str | None = None
    message: str = ""
    digest: dict = field(default_factory=dict)
    result: object = None
    argv: list[str] | None = None


@dataclass
class FlowRecord:
    samples: list[float] = field(default_factory=list)
    status: str = "ok"
    exit_code: int | None = 0
    error_class: str | None = None
    message: str = ""
    problems: list[str] = field(default_factory=list)
    digest: dict | None = None
    compared: int = 0
    traced_s: float | None = None

    @property
    def median(self) -> float | None:
        return statistics.median(self.samples) if self.status == "ok" else None

    def fail(self, outcome: Outcome) -> None:
        self.status = "failed"
        self.exit_code = outcome.exit_code
        self.error_class = outcome.error_class
        self.message = outcome.message

    def fail_check(self, problems: list[str]) -> None:
        self.status = "failed"
        self.error_class = "CheckFailed"
        self.problems = problems


# -- flows ---------------------------------------------------------------------


def triangulate_flow():
    def check(run, out, result):
        run.complex = run.checks.read_complex(out / "complex.json")
        return run.checks.check_triangulation(run.complex, run.points)

    return Flow("triangulate", check, ("triangulate", "{cloud}", "--out", "{out}/complex.json"),
                ("complex.json",))


def spectrum_flow(t):
    def check(run, out, result):
        with open(out / "spec.json") as fh:
            spec = json.load(fh)
        t_eff = run.checks.max_value(run.complex) if t is None else t
        problems = [] if spec["t"] == t_eff else [f"spectrum at t={spec['t']}, asked {t_eff}"]
        return problems + run.checks.check_spectrum(spec, run.slice_at(t_eff), BUDGET)

    t_arg = () if t is None else ("--t", repr(t))
    return Flow("spectrum", check, ("spectrum", "{complex}", *t_arg, "--num", str(BUDGET),
                                    "--out", "{out}/spec.json"), ("spec.json",))


def track_flow():
    def check(run, out, result):
        with open(out / "run.json") as fh:
            return run.checks.check_track_json(json.load(fh), run.complex, STEPS)

    return Flow("track", check, ("track", "{complex}", "--num", str(BUDGET), "--steps", str(STEPS),
                                 "--out-prefix", "{out}/run"), ("run.csv", "run.json", "run.svg"))


def cluster_flow():
    def check(run, out, result):
        problems = run.checks.check_cluster(out / "clusters.csv", out / "clusters_nodes.csv",
                                            run.slice_at(CLUSTER_T), CLUSTERS)
        if not problems:
            run.agreement = run.checks.cluster_agreement(out / "clusters.csv", run.disk_ids)
        return problems

    return Flow("cluster", check, ("cluster", "{complex}", "--t", repr(CLUSTER_T), "--mode", "curl",
                                   "--num-eigvecs", "4", "--clusters", str(CLUSTERS), "--seed", "0",
                                   "--nodes", "--out-prefix", "{out}/clusters"),
                ("clusters.csv", "clusters.svg", "clusters_nodes.csv"))


def hgc_flow(t):
    def check(run, out, result):
        return run.checks.check_hgc(out / "roles.csv", run.slice_at(t))

    return Flow("hgc", check, ("hgc", "{complex}", "--t", repr(t), "--num", str(BUDGET),
                               "--out-prefix", "{out}/roles"), ("roles.csv", "roles.svg"))


def reference_track_flow():
    def check(run, out, result):
        ts, spectra = result
        problems = run.checks.check_triangulation(run.complex, run.points)
        if ts.n_steps != len(run.grid.thresholds) or len(ts.thresholds) != len(run.grid.thresholds):
            problems.append(f"{ts.n_steps} steps for {len(run.grid.thresholds)} thresholds")
        slices = [run.slice_at(float(t)) for t in run.grid.thresholds]
        return problems + run.checks.check_track_steps(spectra, slices, len(slices), run.grid.m)

    return Flow("track", check)


WORKLOADS = {
    "track-ref": Workload(
        n=400, flows=[reference_track_flow()], solution=("track",), complex_in_setup=True),
    "cli-walkthrough": Workload(
        n=400,
        flows=[triangulate_flow(), spectrum_flow(0.25), track_flow(), cluster_flow(),
               hgc_flow(0.25)],
        solution=("triangulate", "spectrum", "track", "cluster", "hgc")),
    "scale-2000": Workload(
        n=2000,
        flows=[triangulate_flow(), spectrum_flow(None), cluster_flow(), hgc_flow(CLUSTER_T)],
        solution=("triangulate", "spectrum")),
}


# -- one run -------------------------------------------------------------------


def write_cloud(points, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(repr(float(c)) for c in row) for row in points) + "\n")


def digest_files(out: Path, names) -> dict:
    digest = {}
    for name in names:
        path = out / name
        digest[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return digest


class Run:
    def __init__(self, name: str, seed: int, seconds: float, ht, checks):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.ht = ht
        self.checks = checks
        self.work = RUN_DIR / f"{name}-seed{seed}-{os.getpid()}"
        self.cloud = self.work / "cloud.csv"
        self.records = {f.name: FlowRecord() for f in self.workload.flows}
        self.complex = None
        self.agreement = None
        self._slices: dict[float, dict] = {}

    # set-up

    def setup_once(self):
        import numpy as np

        ht = self.ht
        self.points, self.disk_ids = ht.synthetic.four_disks(self.workload.n, seed=self.seed)
        write_cloud(self.points, self.cloud)
        if not self.workload.complex_in_setup:
            return
        self.fc = ht.filtration_values(ht.delaunay_2d(ht.PointCloud(self.points)))
        thresholds = np.linspace(0.0, self.fc.max_value, STEPS)
        thresholds[0] = 1e-9  # grids are strictly ascending; t=0 holds only vertices
        self.grid = ht.FiltrationGrid(thresholds=thresholds, k=1, m=BUDGET)

    def setup(self) -> list[float]:
        self.work.mkdir(parents=True)
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - start)
        if self.workload.complex_in_setup:
            fc = self.fc
            self.complex = {"points": fc.points, "by_dim": {
                k: list(zip(fc.simplices(k), map(float, fc.values(k)))) for k in (0, 1, 2)}}
        return times

    def slice_at(self, t: float) -> dict:
        if t not in self._slices:
            self._slices[t] = self.checks.slice_simplices(self.complex["by_dim"], t)
        return self._slices[t]

    # one execution of a flow

    def run_once(self, flow: Flow, out: Path) -> Outcome:
        out.mkdir(parents=True)
        if not flow.argv:
            return self._run_library_track()
        if flow.name != "triangulate" and self.complex is None:
            return Outcome(None, None, "MissingInput", "no complex: triangulate failed")
        complex_path = self.work / "triangulate" / "1" / "complex.json"
        argv = [a.format(cloud=self.cloud, complex=complex_path, out=out) for a in flow.argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = self.ht.cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            return Outcome(None, code, None, sink.getvalue().strip(), argv=argv)
        return Outcome(elapsed, digest=digest_files(out, flow.outputs))

    def _error_class(self, argv) -> str:
        """cli.main reports only an exit code and a message, so dispatch the
        failed command once more, untimed, to see what it raises."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                args = self.ht.cli.build_parser().parse_args(argv)
                args.func(args)
            except Exception as e:  # classify whatever the command raises
                return type(e).__name__
        return "NotReproduced"

    def _run_library_track(self) -> Outcome:
        spectra = []
        start = time.perf_counter()
        try:
            ts = self.ht.track(self.fc, self.grid, spectra_out=spectra)
        except Exception as e:  # a failed op is recorded, not fatal to the run
            return Outcome(None, None, type(e).__name__, str(e))
        elapsed = time.perf_counter() - start
        text = repr([(tr.id, [(p.step, p.t, p.value, p.kind, p.pes_prev) for p in tr.points])
                     for tr in ts.trajectories])
        return Outcome(elapsed, digest={"trajectories": hashlib.sha256(text.encode()).hexdigest()},
                       result=(ts, spectra))

    # measurement

    def measure(self) -> None:
        """A first pass runs every flow once and checks its outputs; each flow
        then gets repeats for its share of --seconds, spread evenly over the
        remaining passes so that every flow samples the whole run."""
        flows = self.workload.flows
        for flow in flows:
            self.sample(flow)
        share = self.seconds / len(flows)
        target = {}
        for flow in flows:
            rec = self.records[flow.name]
            first = rec.samples[0] if rec.samples else self.seconds
            min_reps = 1 if first > self.seconds / 2 else 2
            target[flow.name] = max(min_reps, min(MAX_REPS, int(share / first)))
        passes = max(target.values())
        for j in range(1, passes):
            for flow in flows:
                n = target[flow.name]
                if self.records[flow.name].status == "ok" and j * n // passes > (j - 1) * n // passes:
                    self.sample(flow)

    def sample(self, flow: Flow) -> None:
        """One timed run of a flow: the first is checked, later ones must
        write the same data; a failure ends the flow's record."""
        rec = self.records[flow.name]
        out = self.work / flow.name / str(len(rec.samples) + 1)
        outcome = self.run_once(flow, out)
        if outcome.seconds is None:
            if outcome.argv is not None:
                outcome.error_class = self._error_class(outcome.argv)
            rec.fail(outcome)
            return
        if not rec.samples:
            problems = [f"{name} missing" for name, d in outcome.digest.items() if d is None]
            problems = problems or flow.check(self, out, outcome.result)
            if problems:
                rec.fail_check(problems)
                return
            rec.digest = outcome.digest
        else:
            rec.compared += 1
            if outcome.digest != rec.digest:
                rec.fail_check([f"repeat {len(rec.samples) + 1} wrote different data"])
                return
        rec.samples.append(outcome.seconds)

    def traced_pass(self, tracer) -> None:
        """Every flow once more under the tracer; outputs must not change."""
        tracer.install()
        try:
            for flow in self.workload.flows:
                rec = self.records[flow.name]
                outcome = self.run_once(flow, self.work / flow.name / "traced")
                if rec.status != "ok":
                    continue
                if outcome.seconds is None:
                    rec.fail(outcome)
                elif outcome.digest != rec.digest:
                    rec.fail_check(["traced run wrote different data"])
                else:
                    rec.traced_s = outcome.seconds
        finally:
            tracer.uninstall()


# -- environment and reporting ---------------------------------------------------


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_info(np) -> dict:
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
        break
    info["env"] = {k: v for k, v in os.environ.items()
                   if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def environment(np, scipy, ht) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas_info(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hodgetrack": ht.__version__,
    }


def report(run: Run, setup_s: float, solution_s: float | None, metrics: dict, trace: int) -> None:
    wl = run.workload
    print(f"hodgetrack benchmark  workload={run.name}  seed={run.seed}  n={wl.n}  "
          f"seconds={run.seconds:g}  trace={trace}")
    print(f"  {'metric':<34} {'value':>12}  {'unit':<9}{'better':<8} detail")

    def row(name, value, unit, better, detail=""):
        print(f"  {name:<34} {value:>12}  {unit:<9}{better:<8} {detail}")

    row("setup_s", f"{setup_s:.4f}", "s", "lower", f"import + median of {SETUP_REPS} set-ups")
    for flow in ("triangulate", "spectrum", "track", "cluster", "hgc"):
        rec = run.records.get(flow)
        if rec is None:
            row(f"{flow}_s", "-", "s", "lower", "not in this workload")
        elif rec.status == "ok":
            row(f"{flow}_s", f"{rec.median:.4f}", "s", "lower",
                f"median of {len(rec.samples)}, {rec.compared} repeats byte-identical")
        else:
            detail = "; ".join(rec.problems) or rec.message
            row(f"{flow}_s", "failed", "s", "lower",
                f"exit {rec.exit_code} {rec.error_class}: {detail}")
    row("solution_s", "failed" if solution_s is None else f"{solution_s:.4f}", "s", "lower",
        "sum of medians: " + ", ".join(wl.solution))
    failed = sum(r.status != "ok" for r in run.records.values())
    row("ops_failed", f"{failed} of {len(run.records)}", "count", "lower",
        f"ops_attempted = {len(run.records)}")
    row("peak_rss_mb", f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}", "MB",
        "lower")
    row("cluster_agreement", "-" if run.agreement is None else f"{run.agreement:.4f}",
        "fraction", "higher", "edge-majority vs disk ids")
    if trace:
        for name, m in metrics.items():
            row(name, f"{m['value']:.6g}", m["unit"], "")


def unit_of(name: str) -> str:
    if name.endswith((".s", ".self_s")) or name == "trace_overhead_s":
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "cluster_agreement":
        return "fraction"
    return "count"


# -- entry points ----------------------------------------------------------------


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy as np
    import scipy

    import hodgetrack as ht
    import hodgetrack.cli
    import hodgetrack.synthetic
    import_s = time.perf_counter() - start
    if Path(ht.__file__).resolve().parent != SRC / "hodgetrack":
        print(f"error: imported hodgetrack from {ht.__file__}, not {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import tracing

    run = Run(args.workload, args.seed, args.seconds, ht, checks)
    try:
        setup_times = run.setup()
        setup_s = import_s + statistics.median(setup_times)
        run.measure()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            run.traced_pass(tracer)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()

    records = run.records
    check_failed = any(r.error_class == "CheckFailed" for r in records.values())
    failed = sum(r.status != "ok" for r in records.values())
    solution = [records[name].median for name in run.workload.solution]
    solution_s = None if None in solution else sum(solution)
    metrics: dict = {}
    if args.trace:
        for name, value in tracer.layer_metrics().items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
        both = [r for r in records.values() if r.status == "ok" and r.traced_s is not None]
        metrics["trace_overhead_s"] = {"value": sum(r.traced_s - r.median for r in both),
                                       "unit": "s"}
        metrics["cluster_agreement"] = {"value": run.agreement or 0.0, "unit": "fraction"}
    else:
        if solution_s is not None:
            metrics["solution_s"] = {"value": solution_s, "unit": "s"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}

    record = {
        "workload": run.name, "seed": run.seed,
        "seconds": run.seconds, "trace": args.trace,
        "environment": environment(np, scipy, ht),
        "setup": {"import_s": import_s, "samples_s": setup_times},
        "flows": {name: {"samples_s": r.samples, "n": len(r.samples), "median_s": r.median,
                         "status": r.status, "exit_code": r.exit_code,
                         "error_class": r.error_class, "message": r.message,
                         "problems": r.problems, "repeats_compared": r.compared,
                         "traced_s": r.traced_s}
                  for name, r in records.items()},
        "cluster_agreement": run.agreement,
        "metrics": metrics,
        "spans": tracer.spans if tracer else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{run.name}-seed{run.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    report(run, setup_s, solution_s, metrics, args.trace)
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not check_failed, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if solution_s is not None else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is per workload."""
    code = 0
    for name in WORKLOADS:
        sys.stdout.flush()
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hodgetrack" / "__init__.py").is_file():
        print(f"error: no hodgetrack sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
