"""bergman11 benchmark: three closed-loop workloads, one client each.

    python3 bench/run.py --workload verify_cli --seed 7 --seconds 35 --trace 0
    python3 bench/run.py --all --seed 7      # every workload, every metric
    python3 bench/run.py --smoke             # a few ops each; checks metric names
    python3 bench/run.py --baseline 10       # 10 seeds per workload -> bench/baseline.json

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same ops
once untraced and once traced and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``bench/NOTES.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# setup_s is the median of SETUP_GROUPS x SETUP_PER_GROUP fresh-process set-ups.
# The groups are spread over the timed window (the first before the first op),
# so that one slow spell of the machine cannot move every sample at once.
SETUP_GROUPS = 4
SETUP_PER_GROUP = 3
SPANS_DIR = ROOT / ".bench_out"
# Pinned to one thread here and, through the environment, in every child.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("verify_cli", "operator_scale", "disc_oracle_scale")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# Reported with the end-to-end metrics but given no bound in BENCHMARK.json.
# A verify_cli run holds about 80 ops, so its p90 rests on about 8 and is the
# least stable figure; error_rate is 0 on every workload, and
# ``attempted``/``failed`` carry it.
REPORTED_ONLY = [("latency_p90_ms", "ms"), ("error_rate", "1"), ("latency_samples", "count")]


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _environment() -> dict:
    import numpy
    import scipy

    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "threads_per_child": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def _setup_probe(name: str, seed: int) -> float:
    """One fresh-process set-up (import, inputs, one untimed warm-up op), timed
    from the start of its interpreter's first statement."""
    p = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
        cwd=ROOT,
        env=workloads.child_env(ROOT),
        capture_output=True,
        text=True,
        timeout=300,
    )
    if p.returncode != 0:
        _fail(f"set-up of {name} failed: {p.stderr.strip()[-500:]}")
    return float(p.stdout.split()[-1])


class SetupSampler:
    """Takes a group of set-up probes at the start of each SETUP_GROUPS-th part
    of the timed window; ``finish`` takes any group the window did not reach."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed, self.step = name, seed, seconds / SETUP_GROUPS
        self.samples = []

    def __call__(self, elapsed: float) -> None:
        groups = len(self.samples) // SETUP_PER_GROUP
        if groups < SETUP_GROUPS and elapsed >= groups * self.step:
            self.samples += [_setup_probe(self.name, self.seed) for _ in range(SETUP_PER_GROUP)]

    def finish(self) -> float:
        while len(self.samples) < SETUP_GROUPS * SETUP_PER_GROUP:
            self.samples.append(_setup_probe(self.name, self.seed))
        return statistics.median(self.samples)


def run_ops(wl, seed: int, seconds: float, run=None, tracer=None, inputs=None, pause=None):
    """Closed loop: whole cycles of ops until ``seconds`` of wall time have passed
    (or over ``inputs`` when given).  ``pause(elapsed)``, when given, is called
    before each cycle; its own time does not count towards ``seconds``.
    Returns (inputs, per-op seconds, outcomes, output of the first op)."""
    run = run or wl.run
    if tracer is not None:
        run = tracer.wrap("bench.op", run)
    fixed = inputs is not None
    inputs = list(inputs) if fixed else []
    times, outcomes, first = [], [], None
    t_start = time.perf_counter()
    paused = i = 0
    while (i < len(inputs)) if fixed else (time.perf_counter() - t_start - paused < seconds or i % wl.cycle):
        if pause is not None and i % wl.cycle == 0:
            t0 = time.perf_counter()
            pause(t0 - t_start - paused)
            paused += time.perf_counter() - t0
        if not fixed:
            inputs.append(wl.make_input(seed, i))
        inp = inputs[i]
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op_index = i
            out = run(inp)
        except Exception as e:  # an op that raises counts as failed
            times.append(time.perf_counter() - t0)
            outcomes.append((workloads.FAILED, f"{type(e).__name__}: {e}"))
        else:
            times.append(time.perf_counter() - t0)
            outcomes.append(wl.gate(inp, out))
            if i == 0:
                first = out
            del out
        i += 1
    return inputs, times, outcomes, first


def _failure_counts(outcomes) -> dict:
    """Failed ops counted by kind (the gate's detail)."""
    return dict(collections.Counter(d for o, d in outcomes if o != workloads.OK).most_common())


def _counts(outcomes) -> tuple:
    failed = sum(o != workloads.OK for o, _ in outcomes)
    wrong = [d for o, d in outcomes if o == workloads.WRONG]
    return len(outcomes), failed, wrong


def measure(name: str, seed: int, seconds: float) -> dict:
    """The untraced run: every end-to-end metric."""
    sampler = SetupSampler(name, seed, seconds)
    wl = workloads.make_workload(name, ROOT)
    wl.setup(seed)
    inputs, times, outcomes, first = run_ops(wl, seed, seconds, pause=sampler)
    setup_s = sampler.finish()
    attempted, failed, wrong = _counts(outcomes)
    ok_times = [t for t, (o, _) in zip(times, outcomes) if o == workloads.OK]
    if name == workloads.VerifyCli.name:
        # once per run, the first op's command again: exit code and report bytes repeat
        again = wl.run(inputs[0])
        if again != first:
            wrong.append(f"{' '.join(inputs[0])} not reproducible: exit {first[0]}, then {again[0]}")
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ok_times) / sum(times),
        "latency_p50_ms": 1e3 * _percentile(ok_times, 50),
        "latency_p90_ms": 1e3 * _percentile(ok_times, 90),
        "peak_rss_mb": rss_kb / 1024.0,
        "error_rate": failed / attempted,
        "latency_samples": len(ok_times),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": _failure_counts(outcomes),
        "metrics": metrics,
        "units": dict(END_TO_END + REPORTED_ONLY),
    }


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """The traced run: half the time untraced, then the same ops traced."""
    wl = workloads.make_workload(name, ROOT)
    run = wl.run_inprocess if name == workloads.VerifyCli.name else wl.run
    run(wl.make_input(seed, workloads.WARMUP_INDEX))
    inputs, plain_times, plain_outcomes, _ = run_ops(wl, seed, seconds / 2.0, run=run)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        _, traced_times, outcomes, _ = run_ops(wl, seed, 0.0, run=run, tracer=tracer, inputs=inputs)
    finally:
        restore()
    attempted, failed, wrong = _counts(outcomes)
    wrong += _counts(plain_outcomes)[2]
    metrics = {m: v for m, (v, _) in spans.layer_metrics(tracer, attempted).items()}
    # the known seed defects of ``verify``, counted apart from the ops (NOTES.md)
    survey = wl.survey(seed) if name == workloads.VerifyCli.name else []
    wrong += _counts(survey)[2]
    metrics["verification.seed_survey_failed"] = _counts(survey)[1]
    metrics.update({m: v for m, (v, _) in spans.import_metrics(ROOT, workloads.child_env(ROOT)).items()})
    metrics["bench.tracing_overhead_pct"] = 100.0 * (sum(traced_times) / sum(plain_times) - 1.0)
    metrics["bench.traced_ops"] = attempted
    tracer.save(SPANS_DIR / f"spans-{name}.npz", {"workload": name, "seed": seed, "ops": attempted})
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": _failure_counts(outcomes),
        "survey": {"seeds": len(survey), "failures": _failure_counts(survey)},
        "metrics": metrics,
        "units": dict(spans.PER_LAYER),
    }


def summarize(name: str, seed: int, trace: int, res: dict) -> dict:
    """The ``# run`` line: the whole run, with failures counted by kind."""
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "correct": not res["wrong"],
        "failures": res["failures"],
        "wrong": res["wrong"],
        "survey": res.get("survey"),
        "metrics": {m: {"value": v, "unit": res["units"][m]} for m, v in res["metrics"].items()},
    }


def result_line(res: dict, names) -> str:
    return json.dumps(
        {
            "correct": not res["wrong"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m: {"value": res["metrics"][m], "unit": u} for m, u in names},
        }
    )


def run_one(args) -> int:
    if args.trace:
        res = measure_traced(args.workload, args.seed, args.seconds)
        names = spans.PER_LAYER
    else:
        res = measure(args.workload, args.seed, args.seconds)
        names = END_TO_END
    summary = summarize(args.workload, args.seed, args.trace, res)
    print("# env " + json.dumps(_environment()))
    print("# run " + json.dumps(summary))
    _print_run(summary)
    print(result_line(res, names))
    return 0


def _child(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a fresh process; returns its ``# run`` summary."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    runs = [ln for ln in p.stdout.splitlines() if ln.startswith("# run ")]
    if p.returncode != 0 or not runs:
        _fail(f"{name} trace {trace} exited {p.returncode}: {p.stderr.strip()[-500:]}")
    return json.loads(runs[-1][len("# run ") :])


def _print_run(run: dict) -> None:
    print(
        f"# {run['workload']} seed {run['seed']} trace {run['trace']}: attempted {run['attempted']} "
        f"failed {run['failed']} correct {run['correct']}"
    )
    for kind, count in run["failures"].items():
        print(f"#   {count} failed: {kind}")
    for detail in run["wrong"]:
        print(f"#   wrong: {detail}")
    if run.get("survey") and run["survey"]["seeds"]:
        failures = run["survey"]["failures"]
        print(f"#   seed survey: {sum(failures.values())} of {run['survey']['seeds']} verify seeds failed")
        for kind, count in failures.items():
            print(f"#     {count} failed: {kind}")
    for m, v in run["metrics"].items():
        print(f"{run['workload']} {m} {v['value']:.6g} {v['unit']}")


def run_all(seed: int, seconds: int, smoke: bool) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    print("# env " + json.dumps(_environment()))
    missing = []
    for name in WORKLOAD_NAMES:
        for trace, names in ((0, END_TO_END + REPORTED_ONLY), (1, spans.PER_LAYER)):
            run = _child(name, seed, seconds, trace)
            _print_run(run)
            missing += [f"{name}/{m}" for m, _ in names if m not in run["metrics"]]
    if smoke and missing:
        print(f"smoke: missing metrics: {missing}", file=sys.stderr)
        return 1
    if smoke:
        print("smoke: every metric present")
    return 0


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def write_baseline(runs: int, seconds: int, path: Path) -> int:
    """``runs`` seeds per workload (untraced, workloads interleaved), one traced
    run each; medians and quartiles of every end-to-end metric go to ``path``."""
    seeds = list(range(101, 101 + runs))
    untraced = {name: [] for name in WORKLOAD_NAMES}
    for seed in seeds:
        for name in WORKLOAD_NAMES:
            untraced[name].append(_child(name, seed, seconds, 0))
            _print_run(untraced[name][-1])
    out = {"env": _environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name, rows in untraced.items():
        traced = _child(name, seeds[0], seconds, 1)
        out["workloads"][name] = {
            "attempted": [r["attempted"] for r in rows],
            "failed": [r["failed"] for r in rows],
            "correct": [r["correct"] for r in rows],
            "failures": dict(sum((collections.Counter(r["failures"]) for r in rows), collections.Counter()).most_common()),
            "end_to_end": {
                m: {"unit": u, **_quartiles([r["metrics"][m]["value"] for r in rows])}
                for m, u in END_TO_END + REPORTED_ONLY
            },
            "per_layer": {"seed": traced["seed"], **traced["metrics"]},
            "seed_survey": traced["survey"],
        }
        for m, q in out["workloads"][name]["end_to_end"].items():
            print(f"# {name} {m}: median {q['median']:.6g} q1 {q['q1']:.6g} q3 {q['q3']:.6g} spread {q['spread']}")
    path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def _load_program() -> None:
    """Pin threads, then import the benchmark modules (and numpy) from here on."""
    global spans, workloads
    if not (ROOT / "src" / "bergman11" / "__init__.py").is_file():
        _fail(f"no bergman11 sources under {ROOT / 'src'}; run from a checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print every metric")
    parser.add_argument("--smoke", action="store_true", help="--all with 1 s runs; check metric names")
    parser.add_argument("--baseline", type=int, metavar="RUNS", help="write bench/baseline.json from RUNS seeds")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    _load_program()
    if args.baseline:
        return write_baseline(args.baseline, args.seconds, BENCH / "baseline.json")
    if args.all or args.smoke:
        return run_all(args.seed, 1 if args.smoke else args.seconds, args.smoke)
    if not args.workload:
        parser.error("--workload is required (or --all / --smoke)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
