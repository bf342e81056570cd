"""spindiscord benchmark runner (stdlib + numpy).

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-goldens

One invocation runs one workload in this fresh interpreter, against the
package under src/ of this checkout, with its caches in fresh temp dirs
under .bench_tmp/ that are removed afterwards.  It repeats the workload's
pass (see workloads.py) until --seconds have elapsed and prints, as the last
line of stdout, one JSON object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
reports its per-layer metrics: untraced and traced passes alternate, the
traced ones record spans (tracing.py), and one more traced pass runs in a
child process with BLAS limited to one thread as a single-thread reference.
BLAS threads are never limited in this process.  --smoke shrinks every input
(N=8/10, tiny grids) so a run takes seconds; test_bench.py uses it.
--all runs every workload in its own child interpreter and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens"
SPEC = ROOT / "BENCHMARK.json"
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SINGLE_THREAD_METRICS = (
    "trace.wall_s",
    "spinchain.matvec_s",
    "spinchain.solve_self_s",
    "xstate.ce_s",
    "distribution.hist_self_s",
    "cli.main_s",
)
IMPORT_SAMPLES = 5
PREPARE_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    p.add_argument("--all", action="store_true", help="run every workload in child interpreters")
    p.add_argument("--record-goldens", action="store_true", help="rewrite goldens/ from this checkout")
    p.add_argument("--reference-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    """Import spindiscord from this checkout's src/ only; time the import."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import spindiscord.cli  # noqa: F401  (the timed import)
    import_s = time.perf_counter() - start
    import spindiscord

    if not Path(spindiscord.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"spindiscord imported from {spindiscord.__file__}, not {SRC}")
    return spindiscord, import_s


def _import_samples(count):
    """Import times of spindiscord.cli in `count` fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import spindiscord.cli; print(time.perf_counter() - t)"
    )
    out = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                              timeout=60, check=True)
        out.append(float(done.stdout.strip()))
    return out


def provenance():
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Runner:
    """Runs passes of one workload, timing each operation and checking it."""

    def __init__(self, ctx, pass_fn, tracer=None):
        self.ctx = ctx
        self.pass_fn = pass_fn
        self.tracer = tracer
        self.op_times = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, traced=False, run_id=0):
        """One pass of the workload; returns its (wall, CPU) seconds over timed calls."""
        wall = cpu = 0.0
        self.ctx.pass_state.clear()

        def op(name, thunk, check):
            nonlocal wall, cpu
            self.attempted += 1
            c0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                if traced:
                    self.tracer.run_id = run_id
                    self.tracer.active = True
                    try:
                        result = self.tracer.root(name, thunk)
                    finally:
                        self.tracer.active = False
                else:
                    result = thunk()
            except Exception as exc:  # a failed operation is counted, not fatal
                wall += time.perf_counter() - t0
                self._fail(f"{name}: {type(exc).__name__}: {exc}")
                return
            dt = time.perf_counter() - t0
            cpu += _cpu_seconds() - c0
            wall += dt
            self.op_times.setdefault(name, []).append(dt)
            try:
                problems = check(result)
            except Exception as exc:  # a check that cannot read the output fails the op
                problems = [f"{name}: check raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(f"{name}: " + "; ".join(problems))

        self.pass_fn(self.ctx, op)
        return wall, cpu

    def _fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _op_summary(op_times):
    out = {}
    for name, times in op_times.items():
        q1, q3 = _quartiles(times)
        out[name] = {"median": statistics.median(times), "q1": q1, "q3": q3,
                     "min": min(times), "max": max(times), "n": len(times), "unit": "s"}
    return out


def _load_goldens(smoke):
    path = GOLDENS / ("smoke.json" if smoke else "full.json")
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _setup(args, pkg, tmp, record=False):
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    ctx = workloads.Context(pkg, size, args.seed, tmp, _load_goldens(args.smoke), record=record)
    prepare, pass_fn = workloads.WORKLOADS[args.workload]
    samples = []
    repeats = 1 if (args.smoke or args.trace or prepare is None) else PREPARE_SAMPLES
    for _ in range(repeats):
        start = time.perf_counter()
        if prepare is not None:
            prepare(ctx)
        samples.append(time.perf_counter() - start)
    return ctx, pass_fn, statistics.median(samples)


def run_workload(args, pkg, import_s, tmp):
    import tracing

    spec = json.loads(SPEC.read_text())
    ctx, pass_fn, prepare_s = _setup(args, pkg, tmp)
    imports = [import_s]
    if not (args.smoke or args.trace):
        imports += _import_samples(IMPORT_SAMPLES)
    setup_s = statistics.median(imports) + prepare_s

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(ctx, pass_fn, tracer)
    walls, cpus, traced_walls, traced_ids = [], [], [], []
    start = time.perf_counter()
    n = 0
    while True:
        # In a traced run, untraced and traced passes alternate (untraced first);
        # the reference child runs a single traced pass.
        traced = bool(args.trace) and (args.reference_child or n % 2 == 1)
        if traced:
            tracer.install(pkg)
            wall, _cpu = runner.run_pass(traced=True, run_id=n)
            tracer.uninstall()
            traced_walls.append(wall)
            traced_ids.append(n)
        else:
            wall, cpu = runner.run_pass()
            walls.append(wall)
            cpus.append(cpu)
        n += 1
        if args.smoke and (traced_ids or not args.trace):
            break
        if time.perf_counter() - start >= args.seconds and (traced_ids or not args.trace):
            break

    metrics = {}
    if args.trace:
        metrics.update(tracing.layer_metrics(tracer, traced_ids))
        metrics["cli.import_s"] = import_s
        if walls:
            # The first pass of the process carries first-use costs (BLAS pool,
            # page faults); leave it out of the untraced reference when possible.
            untraced = statistics.median(walls[1:] or walls)
            metrics["trace.untraced_s"] = untraced
            metrics["trace.overhead_s"] = statistics.median(traced_walls) - untraced
        if not args.reference_child:
            st = _single_thread_reference(args)
            runner.attempted += st["attempted"]
            runner.failed += st["failed"]
            for name in SINGLE_THREAD_METRICS:
                metrics[f"st.{name}"] = st["metrics"].get(name, {}).get("value", 0.0)
        wanted = spec["per_layer"]
    else:
        metrics["setup_s"] = setup_s
        metrics["pass_s"] = statistics.median(walls)
        metrics["cpu_s"] = statistics.median(cpus)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]

    if args.reference_child:
        wanted = [{"name": k, "unit": ""} for k in metrics]
    result_metrics = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls) + len(traced_walls),
        "pass_s": walls,
        "traced_pass_s": traced_walls,
        "setup": {"import_s": imports, "prepare_s": prepare_s},
        "ops": _op_summary(runner.op_times),
        "fail_ratio": {"failed": runner.failed, "attempted": runner.attempted,
                       "value": runner.failed / runner.attempted, "base": "timed operations"},
        "known_defects": ctx.known_defects,
        "provenance": provenance(),
    }
    print("detail " + json.dumps(detail))
    return {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": result_metrics}


def _single_thread_reference(args):
    """One traced pass in a child interpreter with BLAS limited to one thread."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "1", "--reference-child"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD_ENV}, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    # Exit code 1 with a result means some of its calls failed; they are counted.
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"single-thread reference exited {done.returncode}")
    return json.loads(lines[-1])


def record_goldens(pkg, tmp):
    import workloads

    for smoke in (False, True):
        goldens = {}
        for name, (prepare, pass_fn) in workloads.WORKLOADS.items():
            size = workloads.SMOKE if smoke else workloads.FULL
            ctx = workloads.Context(pkg, size, 0, tempfile.mkdtemp(dir=tmp), {}, record=True)
            if prepare is not None:
                prepare(ctx)
            runner = Runner(ctx, pass_fn)
            runner.run_pass()
            if runner.failed:
                raise RuntimeError(f"{name}: {runner.problems}")
            goldens.update(ctx.recorded)
        GOLDENS.mkdir(exist_ok=True)
        (GOLDENS / ("smoke.json" if smoke else "full.json")).write_text(json.dumps(goldens, indent=1) + "\n")


def run_all(args):
    """Every workload in its own child interpreter; prints a metric table."""
    spec = json.loads(SPEC.read_text())
    ok = True
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{w['name']}: exited {done.returncode}\n{done.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])
        fr = detail["fail_ratio"]
        print(f"\n== {w['name']}  ({detail['passes']} passes; fail_ratio {fr['value']:.3g} = "
              f"{fr['failed']}/{fr['attempted']} {fr['base']})")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        for name, s in detail["ops"].items():
            print(f"  {name:34s} {s['median']:14.6g} s  median of n={s['n']} (q1 {s['q1']:.4g}, q3 {s['q3']:.4g})")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None):
    args = _parse(argv)
    if args.all:
        return run_all(args)
    if not args.record_goldens and args.workload is None:
        print("error: --workload, --all or --record-goldens is required", file=sys.stderr)
        return 2
    try:
        pkg, import_s = _import_package()
        spec = json.loads(SPEC.read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the package or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.record_goldens:
            record_goldens(pkg, tmp)
            return 0
        result = run_workload(args, pkg, import_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
