"""The one command of the repo's benchmark (see BENCHMARK.json, README.md).

Two ways in:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process. The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``. The line before it is a fuller report (per-shape
    latencies, percentiles, sizes, envelope).

``python3 benchmarks/e2e/run.py [--seed N] [--trace] [--smoke] [--repeat K
[--vary-seed] [--check-agreement]] [--out FILE]``  (also ``python -m benchmarks.e2e``)
    Every workload, each in a fresh subprocess of the first form (flock's
    metrics registry, plan caches and worker processes are process-global),
    under a timeout, as one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.harness import DEFAULT_SEED  # noqa: E402  (path set above)

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest sweeps a window measures, however short ``--seconds`` is.
MIN_SWEEPS = 3
SMOKE_SWEEPS = 2
#: The driver allows a run 180 s; the orchestrator stops one sooner.
WORKLOAD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def measure(workload, seconds: float, at_least: int, tracer=None):
    """Sweep until *seconds* have passed and *at_least* sweeps are done."""
    from benchmarks.e2e.harness import Samples

    samples = Samples()
    samples.tracer = tracer
    deadline = time.perf_counter() + seconds
    while len(samples.sweeps) < at_least or time.perf_counter() < deadline:
        workload.reset()
        with tracer.registry_window() if tracer else nullcontext():
            workload.sweep(samples)
    return samples


def run_workload(args) -> int:
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workdir = harness.RESULTS / "tmp" / f"{workload.name}-{os.getpid()}"
    seconds = 0.0 if args.smoke else args.seconds
    at_least = SMOKE_SWEEPS if args.smoke else MIN_SWEEPS
    repeats = 1 if (args.smoke or args.trace) else SETUP_REPEATS
    report = {"workload": workload.name, "trace": bool(args.trace),
              "smoke": args.smoke, **harness.envelope(args.seed)}
    try:
        workload.prepare()
        setup_seconds = []
        for repeat in range(repeats):
            workload.close()
            directory = workdir / f"setup{repeat}"
            directory.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(directory)
            setup_seconds.append(time.perf_counter() - start)
        if args.trace:
            samples, values = traced_run(workload, seconds, at_least, workdir,
                                         report)
            names = spec["per_layer"]
        else:
            samples = measure(workload, seconds, at_least)
            values = harness.end_to_end(samples, setup_seconds)
            names = spec["end_to_end"]
    finally:
        try:
            workload.close()
        finally:
            kill_children()
            shutil.rmtree(workdir, ignore_errors=True)
    if (args.write_goldens and workload.goldens is None
            and workload.golden_name == workload.name):
        harness.write_goldens(workload.name, args.seed, args.smoke,
                              workload.digests)

    report.update(
        sizes=workload.sizes,
        notes=workload.notes,
        setup_s=setup_seconds,
        sweeps=len(samples.sweeps),
        ops_attempted=samples.attempted,
        ops_failed=samples.failed,
        failures=samples.failures,
        golden_checked=workload.goldens is not None,
        shapes={shape: harness.supported_percentiles(latencies)
                for shape, latencies in sorted(samples.by_shape.items())},
    )
    if workload.golden_name and workload.goldens is None:
        print(f"checked: false — no goldens for seed {args.seed} "
              f"({harness.size_key(args.smoke)}); answers were checked "
              f"for consistency only", file=sys.stderr)
    for failure in samples.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names
        },
    }))
    return 0 if samples.failed == 0 else 1


def traced_run(workload, seconds, at_least, workdir, report):
    """Half the window untraced, half traced, on one set-up: the pair
    gives ``trace_overhead``; the traced half gives the layer numbers."""
    from benchmarks.e2e import harness, trace

    plain = measure(workload, seconds / 2, at_least)
    tracer = trace.Tracer()
    routes_before = workload.client.stats().get("routes", {})
    tracer.install()
    try:
        traced = measure(workload, seconds / 2, at_least, tracer)
    finally:
        tracer.uninstall()
    routes_after = workload.client.stats().get("routes", {})
    workload.close()
    disk_bytes = sum(
        p.stat().st_size for p in workdir.rglob("*") if p.is_file()
    )
    values = trace.layer_metrics(
        tracer,
        {k: v - routes_before.get(k, 0) for k, v in routes_after.items()},
        traced,
        harness.geomean_ms(plain),
        harness.geomean_ms(traced),
        disk_bytes,
    )
    spans_path = harness.RESULTS / (
        f"{workload.name}.seed{workload.seed}.spans.json"
    )
    tracer.dump(spans_path)
    report.update(
        spans_file=str(spans_path.relative_to(ROOT)),
        spans=len(tracer.spans), layer_calls=tracer.calls(),
        traced_ops=sum(len(v) for v in traced.by_shape.values()),
    )
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.failures += traced.failures
    return plain, values


def kill_children() -> None:
    """Reap any process this one started and left behind (shard workers
    after a workload raised): nothing may outlive the run."""
    children: set[int] = set()
    for listing in Path("/proc/self/task").glob("*/children"):
        try:
            children.update(int(pid) for pid in listing.read_text().split())
        except OSError:
            continue
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------
def run_isolated(name: str, seed: int, seconds: int, trace: bool,
                 smoke: bool) -> dict:
    """One workload in a fresh interpreter and process group, bounded by
    WORKLOAD_TIMEOUT_S; the whole group is killed on the way out so shard
    workers never outlive a failed run."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = out.strip().splitlines()
    if len(lines) < 2:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "report": {"error": f"exit {child.returncode}, no result "
                                    f"within {WORKLOAD_TIMEOUT_S} s"}}
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])
    return result


def orchestrate(args) -> int:
    from benchmarks.e2e import harness

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat if args.vary_seed else args.seed
        one = {"seed": seed, "end_to_end": {}, "per_layer": {}}
        for name in names:
            print(f"[set {repeat + 1}/{args.repeat}] {name}", file=sys.stderr)
            one["end_to_end"][name] = run_isolated(
                name, seed, args.seconds, False, args.smoke)
            if args.trace:
                one["per_layer"][name] = run_isolated(
                    name, seed, args.seconds, True, args.smoke)
        sets.append(one)

    failed = sum(
        run["failed"]
        for one in sets for kind in ("end_to_end", "per_layer")
        for run in one[kind].values()
    )
    document = {**harness.envelope(args.seed), "claim": None,
                "smoke": args.smoke, "run_seconds": args.seconds,
                "ops_failed": failed, "sets": sets}
    exit_code = 0 if failed == 0 else 1
    if args.repeat > 1:
        document["agreement"] = agreement(spec, sets)
        exceeded = [row for row in document["agreement"] if row["exceeds"]]
        for row in exceeded:
            print(f"SPREAD {row['workload']} {row['metric']}: "
                  f"{row['spread']:.3f} > bound {row['bound']}",
                  file=sys.stderr)
        if args.check_agreement and exceeded:
            exit_code = 1
    text = json.dumps(document, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return exit_code


def agreement(spec: dict, sets: list[dict]) -> list[dict]:
    """Per (workload, end-to-end metric): the spread of the sets' values
    beside the metric's bound. ``setup_s`` is reported but, as in the
    benchmark's driver, never gates."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values = [
                one["end_to_end"][workload]["metrics"][metric["name"]]["value"]
                for one in sets
                if metric["name"] in one["end_to_end"][workload]["metrics"]
            ]
            if len(values) < 2:
                continue
            spread = relative_spread(values)
            rows.append({
                "workload": workload, "metric": metric["name"],
                "median": statistics.median(values), "spread": spread,
                "bound": metric["bound"],
                "exceeds": (metric["name"] != "setup_s"
                            and spread > metric["bound"]),
            })
    return rows


def relative_spread(values: list[float]) -> float:
    """The driver's acceptance rule — the distance between the first and
    third quartile as a share of the median — once there are enough
    values for quartiles; the whole range for the two or three of an A/A."""
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    return (max(values) - min(values)) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this workload only, here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured window (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two sweeps per workload")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="set i of --repeat uses seed + i")
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--write-goldens", action="store_true",
                        help="store this run's digests where none exist")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flock").is_dir():
        print("benchmarks/e2e needs the flock sources under src/",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return orchestrate(args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
