"""bistone benchmark: one closed-loop client checks an exhaustive workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
The run first times ``SETUP_REPEATS`` cold set-ups, each in a fresh process,
then checks the workload's items one after another in passes.  Every pass
covers all items in the seed's order and must reproduce the workload's known
answers.  Passes repeat while the next one is expected to end within
``--seconds`` (at least one runs).

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced cold set-up plus one traced pass, and the spans are written to
``.bench_results/``.  See ``bench/README.md`` for every metric.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

# Functions the traced run records spans for, named by their path below
# bistone; the few named otherwise map to the path of what they record.
LAYERS = [
    "corpus.unlabeled_posets_of_size",
    "lattice.FinitePoset.isomorphism_signature",
    "lattice.birkhoff",
    "lattice.build_lattice",
    "dlattice.lambda_of_dislat",
    "dlattice.validate_dlattice",
    "dlattice.validate_dlattice_hom",
    "dlattice.logic_order_lattice",
    "ideals.enumerate_prime_d_ideals",
    "ideals.enumerate_prime_d_ideals.structural",
    "ideals.enumerate_prime_d_ideals.brute",
    "ideals.idl_dframe",
    "bitop.BiTopSpace",
    "bitop.generate_topology",
    "bitop.dclop_algebra",
    "bitop.stone_space_from_poset",
    "bitop.is_stone",
    "bitop.is_T0",
    "bitop.is_compact",
    "bitop.connected_subsets_are_singletons",
    "duality.spectrum",
    "duality.unit_roundtrip",
    "duality.counit_roundtrip",
    "duality.spatiality_check",
    "duality.dspec_equals_dpt_idl",
    "duality.complete_extremally_disconnected_check",
    "duality.is_complete_lattice",
    "duality.enumerate_topologies",
    "duality._space_signature",
    "duality._distributive_lattices_upto",
    "duality._down_sets_of_product",
    "duality._up_sets_containing",
    "duality._logic_closed",
    "suites.default_bundle",
    "serialize.dumps",
]
LAYER_PATHS = {
    "ideals.enumerate_prime_d_ideals.structural": "ideals._primes_structural",
    "ideals.enumerate_prime_d_ideals.brute": "ideals._primes_bruteforce",
    "bitop.BiTopSpace": "bitop.BiTopSpace.__init__",
}
SUITE_NAMES = ["bitop", "dlattice", "duality", "ideals_frames", "lattice_core"]

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms.p50", "ms"),
    ("item_ms.p90", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = (
    [(f"{name}.{kind}", unit) for name in LAYERS for kind, unit in
     (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [(f"suites.{s}.total_s", "s") for s in SUITE_NAMES]
    + [
        ("q2.valid_ratio", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.setup.uncovered_frac", "ratio"),
        ("trace.pass.uncovered_frac", "ratio"),
    ]
)


def use_checkout_sources():
    """Import bistone from this checkout's src/ and nowhere else."""
    if not (SRC / "bistone" / "__init__.py").is_file():
        sys.exit(f"error: no bistone sources under {SRC.name}/ next to {BENCH_DIR.name}/")
    sys.path.insert(0, str(SRC))
    import bistone

    if Path(bistone.__file__).resolve().parent != (SRC / "bistone").resolve():
        sys.exit(f"error: bistone was imported from {bistone.__file__}, not from {SRC.name}/")


def cold_setup_seconds(workload):
    """Set-up time in a fresh process, imports plus building the inputs:
    (raw seconds, reference seconds)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "coldsetup.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    raw, ref = proc.stdout.split()[-2:]
    return float(raw), float(ref)


def ordered(items, seed):
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    return [items[i] for i in order]


def one_pass(workload, seed):
    """Build fresh inputs (untimed), then check every item in the seed's order."""
    return check_all(workload, ordered(workload.build(), seed))


def check_all(workload, items, check=None):
    """One closed-loop pass, timed in reference seconds (see speed.py)."""
    check = check or workload.check
    tally = workload.new_tally()
    gc.collect()
    calls = []  # (start, end, rows) per call of check
    with speed.SpeedSampler() as sampler:
        for item in items:
            start = perf_counter()
            try:
                rows = check(item, tally)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rows = [(None, False)]
            calls.append((start, perf_counter(), rows))
    convert = sampler.converter()
    latencies = []
    failed = 0
    raw_wall = wall = 0.0
    for start, end, rows in calls:
        raw, ref = convert(start, end)
        raw_wall += raw
        wall += ref
        for interval, ok in rows:
            latencies.append(ref if interval is None else convert(*interval)[1])
            failed += not ok
    # Only a summary is kept, so memory does not grow with the number of passes.
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "items": len(latencies),
        "item_p50_s": statistics.median(latencies),
        "item_p90_s": deciles[8],
        "failed": failed,
        "problems": workload.gate(tally),
        "layer_metrics": workload.layer_metrics(tally),
    }


def timed_run(workload, seed, seconds):
    passes = []
    started = perf_counter()
    while True:
        passes.append(one_pass(workload, seed))
        if perf_counter() - started + passes[-1]["raw_wall_s"] > seconds:
            return passes


def end_to_end_metrics(passes, setup_samples):
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return attempted, failed, {
        "setup_s": statistics.median(ref for _, ref in setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "items_per_s": attempted / sum(p["wall_s"] for p in passes),
        "item_ms.p50": statistics.median(p["item_p50_s"] for p in passes) * 1e3,
        "item_ms.p90": statistics.median(p["item_p90_s"] for p in passes) * 1e3,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, seed, seconds, tracer):
    """Traced cold set-up, then untraced/traced pass pairs while time lasts.
    Per-layer numbers come from the set-up and the first traced pass."""
    targets = [(name, LAYER_PATHS.get(name, name)) for name in LAYERS]
    targets.append((lambda suite, *a, **k: f"suites.{suite}", "suites.run_suite"))
    tracer.install(targets)
    try:
        with tracer.span("bench.setup") as setup_idx:
            workload.build()
        setup_range = (setup_idx, len(tracer))
    finally:
        tracer.uninstall()
    plain, traced, pass_range = [], [], None
    started = perf_counter()
    while True:
        plain.append(one_pass(workload, seed))
        items = ordered(workload.build(), seed)
        tracer.install(targets)
        try:
            with tracer.span("bench.pass") as pass_idx:
                traced.append(check_all(workload, items, tracer.wrap(workload.check, "bench.item")))
        finally:
            tracer.uninstall()
        if pass_range is None:
            pass_range = (pass_idx, len(tracer))
        pair = plain[-1]["raw_wall_s"] + traced[-1]["raw_wall_s"]
        if perf_counter() - started + pair > seconds:
            break

    stats = tracer.layer_stats([setup_range, pass_range])
    metrics = {}
    for name in LAYERS:
        row = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for kind in ("calls", "total_s", "self_s"):
            metrics[f"{name}.{kind}"] = row[kind]
    for suite in SUITE_NAMES:
        metrics[f"suites.{suite}.total_s"] = stats.get(f"suites.{suite}", {"total_s": 0.0})["total_s"]
    metrics.update(traced[0]["layer_metrics"])
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain) - 1
    )
    for phase, span in (("setup", "bench.setup"), ("pass", "bench.item")):
        metrics[f"trace.{phase}.uncovered_frac"] = stats[span]["self_s"] / stats[span]["total_s"]
    return plain + traced, {name: metrics.get(name, 0.0) for name, _ in PER_LAYER}


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "bistone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "machine": {
            "platform": platform.platform(),
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = perf_counter()

    use_checkout_sources()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setup_samples = [cold_setup_seconds(workload.name) for _ in range(SETUP_REPEATS)]

    if args.trace:
        tracer = Tracer()
        passes, metrics = traced_run(workload, args.seed, args.seconds, tracer)
        units = dict(PER_LAYER)
    else:
        passes = timed_run(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    attempted, failed, e2e = end_to_end_metrics(passes, setup_samples)
    if not args.trace:
        metrics = e2e
    problems = [f"pass {k}: {msg}" for k, p in enumerate(passes) for msg in p["problems"]]
    correct = (
        not problems
        and failed == 0
        and all(p["items"] == workload.items_per_pass for p in passes)
    )
    for msg in problems:
        print(f"known-answer gate failed: {msg}", file=sys.stderr)
    if not correct:
        # a run with wrong output reports no timing
        metrics = {"ok_frac": e2e["ok_frac"]}
        units = dict(END_TO_END)

    env = environment()
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed, "passes": len(passes),
        "items_per_pass": workload.items_per_pass, "setup_samples_s": setup_samples,  # (raw, reference)
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_raw_walls_s": [p["raw_wall_s"] for p in passes],
        "metrics": metrics, "env": env,
    }
    if args.trace:
        spans_path = RESULTS / f"spans-{workload.name}-seed{args.seed}-{stamp}.jsonl.gz"
        tracer.write(spans_path, t0)
        record["spans"] = spans_path.name
        record["end_to_end_while_tracing"] = e2e
    with open(RESULTS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {workload.name} seed={args.seed} passes={len(passes)} items/pass={workload.items_per_pass} "
          f"correct={correct} fail_frac={failed / attempted:.6g}")
    for name, value in metrics.items():
        print(f"{name:56s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
