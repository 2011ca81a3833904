"""One fresh process per workload: set up, warm up, then time whole passes.

Started by ``run.py``; prints ``READY`` once the library is imported and one
untimed warm-up instance has run, so the parent can time set-up from process
start.  With ``--setup-only`` it exits there.  Otherwise it times passes over
the corpus (instances made here, or files written by ``run.py``), checks
every output and writes its samples and counts as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
CLI_WORKLOADS = ("cli_small", "cli_indefinite")
BATCH_REPS = 3  # batch runs per cli pass, spread through the pass
HARD_CAP_S = 100.0  # never start a pass after this much measured time


def _setup(args):
    import pipelines  # imports the library, from src/ on PYTHONPATH

    with open(args.warmup, "rb") as fh:
        item = pickle.load(fh)
    if args.workload in CLI_WORKLOADS:
        pipelines.cli_process(item["command"], item["path"], os.environ.copy(), ROOT)
    else:
        pipelines.PIPELINES[args.workload](item)
    print("READY", flush=True)
    return pipelines


class Run:
    """Samples, counts and failure notes of the measured passes."""

    def __init__(self, inject_wrong):
        self.inject = inject_wrong
        self.latencies = []  # one list per pass
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed instances with a wrong answer, not a failure
        self.verified = 0
        self.notes = []
        self.pass_s = []
        self.batch = []  # (instances verified, wall seconds) per batch run
        self.overhead = [0.0, 0.0]  # (untraced, traced) seconds, traced run
        self.generate_s = 0.0  # making the inputs, inside the measured passes
        self.calls = 0  # traced CLI calls, to alternate the paired order

    def skew(self):
        """1.0 for the first instance's expected value under --inject-wrong."""
        if self.inject:
            self.inject = False
            return 1.0
        return 0.0

    def record(self, label, problems, seconds=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += any(not isinstance(p, checks.Failed) for p in problems)
            if len(self.notes) < 20:
                self.notes.append(f"{label}: {'; '.join(problems)}")
        else:
            self.verified += 1
        if seconds is not None:
            self.latencies[-1].append(seconds if not problems else float("inf"))


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failing instance is counted, never dropped
        return None, [checks.Failed(f"{type(exc).__name__}: {exc}")], time.perf_counter() - start
    return out, None, time.perf_counter() - start


def _paired(run, tracer, plain, traced, args, traced_first):
    """The same call untraced and traced, in the given order, for the tracing
    overhead; returns both (out, err) pairs."""
    outs = []
    for is_traced in ((True, False) if traced_first else (False, True)):
        if is_traced:
            tracer.enable()
        out, err, dt = _timed(traced if is_traced else plain, *args)
        tracer.disable()
        run.overhead[is_traced] += dt
        outs.append((out, err))
    return outs


def _passes(seconds, one_pass, run):
    """Whole passes, stopping at the pass count nearest to `seconds`."""
    start = time.perf_counter()
    durations = []
    while True:
        run.latencies.append([])
        t0 = time.perf_counter()
        one_pass()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(durations) / 2 >= seconds or elapsed >= HARD_CAP_S:
            return durations


def _solver_run(args, pipelines, run, tracer):
    import corpus

    pipeline = pipelines.PIPELINES[args.workload]
    check = getattr(checks, args.workload)
    plan = corpus.plan(args.workload, args.smoke)

    def traced(item):
        return tracer.span("bench.pipeline", pipeline, (item,))

    def one_pass():
        for idx, spec in enumerate(plan):
            start = time.perf_counter()
            item = corpus.item(args.workload, args.seed, idx, spec)
            run.generate_s += time.perf_counter() - start
            label = f"{idx} ({item['shape']})"
            skew = run.skew()
            if tracer is None:
                out, err, dt = _timed(pipeline, item)
                run.record(label, err or check(item, out, skew), dt)
                continue
            tracer.instance = idx
            problems = []
            for out, err in _paired(run, tracer, pipeline, traced, (item,), idx % 2 == 1):
                problems += err or check(item, out, skew)
            run.record(label, problems)

    return _passes(args.seconds, one_pass, run)


def _cli_run(args, pipelines, corpus, run, tracer):
    files, batch_dir, names = corpus["files"], corpus["batch_dir"], corpus["batch_names"]
    env = os.environ.copy()
    values = {}  # relaxation value of each solve file's single run
    if tracer is not None:
        import socqp.cli as cli

        def plain(command, path):
            return pipelines.cli_inprocess(cli, command, path)

        def traced(command, path):
            return tracer.span("bench.cli", plain, (command, path))

    def outputs(key, command, path):
        """[(out, err)] and wall seconds: one socqp process, or in the traced
        run cli.main in-process untraced and traced (seconds None)."""
        if tracer is None:
            out, err, dt = _timed(pipelines.cli_process, command, path, env, ROOT)
            return [(out, err)], dt
        tracer.instance = key
        run.calls += 1
        return _paired(run, tracer, plain, traced, (command, path), run.calls % 2 == 0), None

    def batch(key):
        outs, dt = outputs(key, "solve", batch_dir)
        skews = {names[0]: run.skew()} if run.inject else {}
        problems = {name: [] for name in names}
        for out, err in outs:
            if err:
                found = {name: err for name in names}
            else:
                try:
                    report = pipelines.parse_report(out)
                except ValueError as exc:
                    found = {name: [f"unreadable batch report: {exc}"] for name in names}
                else:
                    found = checks.cli_batch(out["code"], report, names, values, skews)
            for name in names:
                problems[name] += found[name]
        for name in names:
            run.record(f"batch/{name}", problems[name])
        if dt is not None:
            run.batch.append((sum(not p for p in problems.values()), dt))

    def single(idx, item):
        outs, dt = outputs(idx, item["command"], item["path"])
        skew = run.skew()
        problems = []
        for out, err in outs:
            if err:
                problems += err
                continue
            try:
                report = pipelines.parse_report(out)
            except ValueError as exc:
                problems.append(f"unreadable report: {exc}")
                continue
            problems += checks.cli_report(item, out["code"], report, skew)
            if report and item["command"] == "solve" and "relaxation_value" in report:
                values[Path(item["path"]).name] = float(report["relaxation_value"])
        run.record(f"{idx} ({item['kind']}, {Path(item['path']).name})", problems, dt)

    marks = {round(k * len(files) / BATCH_REPS) for k in range(1, BATCH_REPS + 1)}

    def one_pass():
        for idx, item in enumerate(files):
            single(idx, item)
            if idx + 1 in marks:
                batch(f"batch{idx}")

    return _passes(args.seconds, one_pass, run)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--warmup", required=True)
    ap.add_argument("--corpus")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--result")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--inject-wrong", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pipelines = _setup(args)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    run = Run(args.inject_wrong)
    if args.workload in CLI_WORKLOADS:
        with open(args.corpus, "rb") as fh:
            corpus = pickle.load(fh)
        run.pass_s = _cli_run(args, pipelines, corpus, run, tracer)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        run.pass_s = _solver_run(args, pipelines, run, tracer)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "latencies": run.latencies,
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong,
        "verified": run.verified,
        "notes": run.notes,
        "pass_s": run.pass_s,
        "batch": run.batch,
        "generate_s": run.generate_s,
        "peak_rss_mb": rss / 1024.0,
    }
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer.spans, len(run.pass_s))
        untraced, traced = run.overhead
        result["layers"]["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
        if args.spans:
            tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
