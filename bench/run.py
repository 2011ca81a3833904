"""Layered benchmark for socqp: one command per workload.

    python3 bench/run.py --workload uq_medium --seed 1508 --seconds 20 --trace 0

Generates the workload's seeded corpus, times its set-up in several fresh
worker processes, then times whole passes over the corpus in one of them
(closed loop, one client, sequential, BLAS pinned to one thread).  Every
output is checked.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See bench/README.md for the workloads, metrics and how to rerun a seed.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every worker
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("uq_medium", "cheby_many_cones", "qcqp_blocks", "cli_small", "cli_indefinite")
SETUP_RUNS = 5  # fresh workers whose set-up is timed; setup_s is their median
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 170.0
TAIL_BEYOND = 10


class HarnessError(RuntimeError):
    pass


def _require_checkout():
    needed = [ROOT / "src" / "socqp" / "__init__.py", ROOT / "tests" / "helpers.py",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise HarnessError(f"not a socqp checkout: missing {', '.join(missing)}")


def _worker_env():
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _write_corpus(workload, seed, smoke, work):
    """Warm-up instance and, for the CLI workloads, the instance files.  The
    solver workloads make their instances in the worker, one at a time,
    outside the timed region."""
    import corpus
    from socqp import fileio

    plan = corpus.plan(workload, smoke)
    warm = corpus.warmup(workload, seed)
    if workload.startswith("cli_"):
        items = [corpus.item(workload, seed, k, spec) for k, spec in enumerate(plan)]
        solve_dir = work / "solve"
        other_dir = work / "other"
        solve_dir.mkdir()
        other_dir.mkdir()
        for idx, it in enumerate(items):
            folder = solve_dir if it["command"] == "solve" else other_dir
            it["path"] = str(folder / f"f{idx:02d}_{it['kind']}.json")
            fileio.save_instance(it["inst"], it["path"])
        warm["path"] = str(work / "warmup.json")
        fileio.save_instance(warm["inst"], warm["path"])
        data = {"files": items, "batch_dir": str(solve_dir),
                "batch_names": sorted(Path(it["path"]).name for it in items
                                      if it["command"] == "solve")}
        with open(work / "corpus.pkl", "wb") as fh:
            pickle.dump(data, fh)
    with open(work / "warmup.pkl", "wb") as fh:
        pickle.dump(warm, fh)
    return [str(spec).replace(" ", "") for spec in plan]


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


def _start_worker(args, work, extra):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--warmup", str(work / "warmup.pkl"), *extra]
    err = open(work / f"worker-{time.monotonic_ns()}.err", "w+", encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=err, text=True)
    try:
        if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            raise HarnessError("worker set-up timed out")
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            proc.wait(timeout=WORKER_TIMEOUT_S)
            err.seek(0)
            raise HarnessError(f"worker failed during set-up:\n{err.read()[-4000:]}")
        proc.wait(timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            err.seek(0)
            raise HarnessError(f"worker exited {proc.returncode}:\n{err.read()[-4000:]}")
        return ready
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        err.close()


def _import_probe():
    """Cumulative import seconds of the socqp CLI and of socqp.oracle in a
    fresh interpreter (``python -X importtime``)."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import socqp.cli"],
                          cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    cumulative = {}
    for line in done.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) * 1e-6
    return cumulative.get("socqp", 0.0) + cumulative["socqp.cli"], cumulative["socqp.oracle"]


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------


def _tail(latencies):
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; with too few samples, the maximum."""
    lat = sorted(latencies)
    k = len(lat) - TAIL_BEYOND
    if k < 1:
        return lat[-1], 100.0, 0
    return lat[k - 1], 100.0 * k / len(lat), TAIL_BEYOND


def _finite(value):
    return value if math.isfinite(value) else None


def _environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
    }


def _end_to_end(args, res, setups):
    """Latency statistics are taken per pass (every pass runs the same
    instances, so the percentile is the same) and their median over the
    passes is reported."""
    passes = res["latencies"]
    measured = sum(res["pass_s"])
    if args.workload.startswith("cli_"):
        done = sum(v for v, _ in res["batch"])
        throughput = done / sum(s for _, s in res["batch"])
    else:
        throughput = res["verified"] / (measured - res["generate_s"])
    tails = [_tail(lat) for lat in passes]
    _, pct, beyond = tails[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": _finite(1000.0 * statistics.median(
            statistics.median(lat) for lat in passes)),
        "latency_tail_ms": _finite(1000.0 * statistics.median(t[0] for t in tails)),
        "throughput_inst_s": throughput,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    per_pass = f"median over {len(passes)} passes of {measured:.1f} s in all"
    detail = {
        "setup_s": f"median of {len(setups)} fresh workers: "
        + ", ".join(f"{s:.3f}" for s in setups),
        "latency_p50_ms": f"{len(passes[0])} samples per pass; {per_pass}",
        "latency_tail_ms": f"p{pct:.1f}, {beyond} of {len(passes[0])} samples beyond; {per_pass}",
        "throughput_inst_s": ("from `socqp solve <dir>` batches, "
                              f"{len(res['batch'])} runs") if args.workload.startswith("cli_")
        else "verified instances over measured wall time, input generation excluded",
        "peak_rss_mb": "CLI child processes" if args.workload.startswith("cli_")
        else "worker process",
    }
    return metrics, detail


def _print_report(args, units, env, shapes, res, metrics, detail):
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print(f"corpus {len(shapes)} instances per pass: {' '.join(shapes)}")
    for name, value in metrics.items():
        shown = "inf" if value is None else f"{value:.6g}"
        extra = f"  ({detail[name]})" if name in detail else ""
        print(f"  {name:32s} {shown:>12s} {units[name]}{extra}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':32s} {frac:>12.6g} frac  ({res['failed']} of {res['attempted']} "
          f"instances failed, {res['wrong']} of them with a wrong answer)")
    for note in res["notes"]:
        print(f"  failed: {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest instances only")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="plant a wrong expected value in the first instance's check")
    args = ap.parse_args(argv)
    try:
        _require_checkout()
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import corpus

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.seed is None:
        args.seed = corpus.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        shapes = _write_corpus(args.workload, args.seed, args.smoke, work)
        setups = []
        if not args.trace:
            setups = [_start_worker(args, work, ["--setup-only"])
                      for _ in range(SETUP_RUNS - 1)]
        spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
        setups.append(_start_worker(args, work, [
            "--corpus", str(work / "corpus.pkl"), "--result", str(work / "result.json"),
            "--seed", str(args.seed), *(["--smoke"] if args.smoke else []),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *(["--inject-wrong"] if args.inject_wrong else []), "--spans", str(spans)]))
        res = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if args.trace:
            probes = [_import_probe() for _ in range(IMPORT_PROBES)]
            layers = dict(res["layers"])
            layers["cli.import_s"] = statistics.median(p[0] for p in probes)
            layers["cli.import_oracle_s"] = statistics.median(p[1] for p in probes)
            metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
            detail = {"trace.overhead_frac": f"spans written to {spans.relative_to(ROOT)}"}
        else:
            metrics, detail = _end_to_end(args, res, setups)
        _print_report(args, units, _environment(), shapes, res, metrics, detail)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
