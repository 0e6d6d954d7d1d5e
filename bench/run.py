#!/usr/bin/env python3
"""Benchmark for bicaption. Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, metrics and bounds are declared in BENCHMARK.json at the
root; README.md beside this file explains them. The last line of standard
output is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything runs in this one process with one BLAS thread.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
# the host-speed reference runs after every round
# for this share of the round's time, and never for less than REFERENCE_MIN_S
REFERENCE_SHARE = 0.25
REFERENCE_MIN_S = 0.02
# rounds run under the tracer: a fixed amount of work, so per-layer counts
# repeat exactly for a seed and self times compare across commits
TRACED_ROUNDS = {"train-mid": 1, "caption-beam3": 16, "retrieve-toy": 1,
                 "gradcheck-acceptance": 1}
clock = time.perf_counter


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def native_blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if no OpenBLAS
    library with a known entry point is mapped into this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "native_blas_threads": native_blas_threads(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(), "git_revision": git_revision(),
    }


def timed_rounds(workload, reference, seconds: float = 0.0, count: int = 0,
                 around=contextlib.nullcontext) -> list:
    """Rounds until `seconds` have passed, or `count` rounds. Each round is
    made inside `around(index)`; then the host speed is measured."""
    rounds = []
    deadline = clock() + seconds
    while clock() < deadline if count == 0 else len(rounds) < count:
        index = len(rounds)
        inputs = workload.prepare(index)
        with around(index):
            r = workload.run_round(index, inputs)
        r.speed = reference.speed(
            max(REFERENCE_MIN_S, REFERENCE_SHARE * r.seconds))
        rounds.append(r)
    return rounds


def end_to_end(rounds, setup_s: float, tail) -> tuple[dict, dict]:
    """Metrics of normalised rounds."""
    samples_ms = [1e3 * s for r in rounds for s in r.samples]
    tail_ms, tail_pct = tail(samples_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "items_per_s": (sum(r.items for r in rounds)
                        / sum(r.seconds for r in rounds), "1/s"),
        "step_ms_p50": (statistics.median(samples_ms), "ms"),
        "step_ms_tail": (tail_ms, "ms"),
    }
    return metrics, {"step_samples": len(samples_ms),
                     "step_tail_percentile": tail_pct}


def s_per_item(rounds) -> float:
    return sum(r.seconds for r in rounds) / sum(r.items for r in rounds)


def host_speed(rounds) -> float:
    """The run's host speed: the median of the readings taken after its
    rounds, so one noisy reading moves nothing."""
    return statistics.median(r.speed for r in rounds)


def normalised(rounds) -> list:
    speed = host_speed(rounds)
    return [r.normalised(speed) for r in rounds]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "bicaption" / "__init__.py").is_file():
        fail(f"no bicaption sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    # OpenBLAS reads this when numpy loads it; a caller asking for more
    # threads is refused rather than measured
    if os.environ.setdefault("OPENBLAS_NUM_THREADS", "1") != "1":
        fail("OPENBLAS_NUM_THREADS must be 1")

    sys.dont_write_bytecode = True  # leave no caches in the checkout
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from layers import (build_tracer, dead_wrappers, package_modules,
                        per_layer_metrics)
    import workloads
    from hostspeed import REFERENCES
    import_s = clock() - _START

    info = manifest(args, np)
    if info["native_blas_threads"] not in (None, 1):
        fail(f"OpenBLAS runs {info['native_blas_threads']} threads, not 1")
    print("manifest " + json.dumps(info), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    reference = REFERENCES[cls.reference]()

    if args.trace:
        tracer, counts = build_tracer()
        # the benchmark's own module binds the names it calls, too
        modules = package_modules() + [workloads]

        @contextlib.contextmanager
        def traced_step(index):
            tracer.step = index
            with tracer.instrument(modules):
                yield
            tracer.step = -1

        with traced_step(-1):
            workload = cls(args.seed, OUT_DIR)
        workload.warmup()
        untraced = timed_rounds(workload, reference, seconds=args.seconds)
        traced = timed_rounds(workload, reference,
                              count=TRACED_ROUNDS[args.workload],
                              around=traced_step)
        with traced_step(-1):
            workload.finish()
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        dead = dead_wrappers(tracer, args.workload)
        if dead:
            fail(f"liveness: {', '.join(dead)} recorded no calls on "
                 f"{args.workload}; the layer map is out of date", code=3)
        metrics = per_layer_metrics(tracer, counts)
        metrics["trace.overhead_frac"] = (
            s_per_item(normalised(traced)) / s_per_item(normalised(untraced))
            - 1.0, "ratio")
        metrics["trace.spans"] = (tracer.span_count, "count")
        rounds = untraced + traced
        details = {}
        declared = spec["per_layer"]
    else:
        setup_times = []
        workload = None
        for _ in range(SETUP_REPEATS):
            workload = None  # free the previous set-up before the next
            t0 = clock()
            workload = cls(args.seed, OUT_DIR)
            setup_times.append(clock() - t0)
        workload.warmup()
        rounds = timed_rounds(workload, reference, seconds=args.seconds)
        workload.finish()
        raw_setup_s = import_s + statistics.median(setup_times)
        metrics, details = end_to_end(normalised(rounds),
                                      raw_setup_s * host_speed(rounds),
                                      workloads.tail)
        details.update(
            raw_items_per_s=1.0 / s_per_item(rounds), raw_setup_s=raw_setup_s,
            host_speed_median=host_speed(rounds),
            import_s=import_s, setup_repeats_s=setup_times)
        declared = spec["end_to_end"]

    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        fail(f"metrics disagree with BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(n for n in want.keys() & got.keys() if want[n] != got[n])}",
             code=4)

    failed, problems = workload.check()
    attempted = sum(r.items for r in rounds)
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    named = workload.report(normalised(rounds))
    named["failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"{workload.item}s attempted {attempted}, failed {failed}; "
          f"step = {workload.step}; "
          + ", ".join(f"{k} {v}" for k, v in details.items()
                      if k != "setup_repeats_s"))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"manifest": info, "result": result, "details": details,
                   "workload_metrics": named, "problems": problems,
                   "rounds": [vars(r) for r in rounds]},
                  fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
