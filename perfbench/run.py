"""stretchnet benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload hull-large --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then traced

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  Without it, each workload runs in a fresh child process,
one after another, and the results also go to ``perfbench/results/``.
See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One thread per BLAS pool, set before numpy loads: the runs must not
# depend on how many cores happen to be idle.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hull-large", "tree-census", "overlap-census")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only set up, and print the set-up time (the benchmark's own repeats)")
    return p.parse_args(argv)


def import_program():
    """Import stretchnet from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import stretchnet

    where = Path(stretchnet.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"stretchnet was imported from {where}, not from {ROOT / 'src'}")
    from stretchnet.errors import CoplanarFacesWarning

    warnings.simplefilter("ignore", CoplanarFacesWarning)


def make_workload(name):
    import workloads

    return {
        "hull-large": lambda: workloads.HullLarge(),
        "tree-census": lambda: workloads.TreeCensus(ROOT),
        "overlap-census": lambda: workloads.OverlapCensus(ROOT),
    }[name]()


def set_up(args):
    """Import the program, write the inputs, read them back and run one
    warm-up operation.  Returns the workload, its inputs and the time since
    this process started."""
    import_program()
    wl = make_workload(args.workload)
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        docs = wl.write_inputs(args.seed, workdir)
        wl.warmup(docs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    return wl, docs, time.perf_counter() - T_START


def setup_in_child(args) -> float:
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args) -> dict:
    wl, docs, own_setup = set_up(args)
    if args.setup_only:
        return {"setup_s": own_setup}
    setups = [own_setup] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    op_times, problems = [], []
    attempted = failed = rounds = 0
    wall = 0.0
    first = None
    while rounds == 0 or wall < args.seconds:
        t0 = time.perf_counter()
        rnd = wl.round(docs, op_times, keep=first is None)
        wall += time.perf_counter() - t0
        rounds += 1
        attempted += rnd.attempted
        failed += rnd.failed
        if first is None:
            first = rnd.fingerprint
            t0 = time.perf_counter()
            problems += wl.check(rnd.kept)
            check_s = time.perf_counter() - t0
        elif rnd.fingerprint != first:
            problems.append(f"round {rounds} gave other verdicts than round 1")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(
        f"[{args.workload}] seed={args.seed} trace={args.trace} rounds={rounds} "
        f"timed={wall:.2f}s ops={len(op_times)} setups={[round(s, 3) for s in setups]} "
        f"checks={check_s:.2f}s problems={len(problems)}",
        file=sys.stderr,
    )

    if tracer is not None:
        metrics = tracer.metrics(rounds)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "unfoldings_per_s": (len(op_times) / wall, "1/s"),
            "unfold_p50_ms": (1000.0 * statistics.median(op_times), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own fresh process."""
    results = {}
    outdir = HERE / "results"
    outdir.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            (outdir / f"{name}-seed{args.seed}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, mv in result["metrics"].items():
                print(f"  {metric} = {mv['value']:.6g} {mv['unit']}")
            results[f"{name}/trace{trace}"] = result
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_workload(args) if args.workload else run_all(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
