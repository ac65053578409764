"""forestren benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is loaded from ``src/`` of that
checkout.  The run repeats the workload's fixed input list (closed loop, one
input at a time) while the next pass still fits in ``--seconds``, checks
every output, and prints the metrics.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.
The lines before it give every metric by name and unit, and a ``detail``
JSON line with the machine, the versions and the extra figures.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs
import workloads
from measure import SpeedSampler, reach, tail
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# Per-layer self times, in seconds, by span name; the other metrics, with
# every unit, are declared in BENCHMARK.json.
LAYER_SPANS = [
    "forest.parse_forest",
    "pairing.check_properly_decorated",
    "pairing.gram",
    "renorm.expand_r1",
    "projector.ev0_piplus_direct",
    "renorm.from_exact",
    "renorm.render",
    "projector.ev0_piplus",
    "oracle.renorm_subset_oracle",
    "oracle.quad_tree",
    "oracle.closed_form_value",
    "cli.call",
]
WARMUP_KINDS = {"trees": {"renorm"}, "forests": {"renorm"}, "cli": {"cli"},
                "oracle": {"quad", "subset", "telescoping"}}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("trees", "forests", "cli", "oracle"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # internal: one timed set-up
    return p.parse_args(argv)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import mpmath
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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


def setup_seconds(args) -> tuple[float, float]:
    """Median over fresh workers of the time from start to the first timed
    input: interpreter start, import, input generation and one warm-up.
    Returns (reference seconds, raw seconds)."""
    bounds = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                bounds.append((start, time.perf_counter()))
                proc.stdout.read()
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(f"set-up worker failed (exit {proc.returncode})")
    timed = [sampler.unit(s, e) for s, e in bounds]
    return (statistics.median(t * f for t, f in timed),
            statistics.median(e - s for s, e in bounds))


def frontier_reach(results: list) -> dict:
    per = defaultdict(lambda: defaultdict(list))
    for item, secs, _ in results:
        if item.get("family") in ("ladder", "corolla"):
            per[item["family"]][item["degree"]].append(secs)
    out = {}
    for fam, by_deg in sorted(per.items()):
        degs = sorted(by_deg)
        secs = [statistics.median(by_deg[d]) for d in degs]
        for limit in (1, 10):
            out[f"reach_{limit}s.{fam}"] = reach(degs, secs, limit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind: a running CLI child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process and every child it starts, so that the speed
    # samples come from the core doing the work, also while a CLI child runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "forestren" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    items = inputs.generate(args.workload, args.seed)
    warmup = [p for p in inputs.probe_inputs()
              if p["kind"] in WARMUP_KINDS[args.workload]]
    runner = workloads.Runner(SRC, workdir)
    try:
        runner.write_files(items + inputs.probe_inputs())
        if args.setup_probe:
            for item in warmup:
                runner.run(item)
            print("ready", flush=True)
            return 0
        return measure_run(args, items, warmup, runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_run(args, items, warmup, runner, workdir) -> int:
    import forestren

    if not Path(forestren.__file__).resolve().is_relative_to(SRC):
        print(f"error: forestren imported from {forestren.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine(), "inputs_per_pass": len(items)}
    parts = [p for it in items for p in it.get("parts", [])]
    if parts:
        detail["similar_tree_share"] = inputs.similar_share(parts)
    if not args.trace:
        setup_s, detail["raw_setup_s"] = setup_seconds(args)
    runner.timed_pass(warmup)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.timed_pass(items))
        mean_raw = statistics.fmean(p.raw_wall for p in passes)
        if args.trace or time.perf_counter() - start + mean_raw > args.seconds:
            break
    checked = [r for p in passes for r in p.results]
    detail["passes"] = len(passes)
    detail["raw_wall_s"] = [p.raw_wall for p in passes]

    if args.trace:
        untraced = passes[0]
        runner.tracer = Tracer()
        traced = runner.timed_pass(items)
        probe = runner.timed_pass(inputs.probe_inputs())
        replay = runner.timed_pass([
            {"id": f"{it['id']}-replay", "kind": "replay", "call": it}
            for it in items + inputs.probe_inputs() if it["kind"] == "cli"])
        spans = runner.tracer.spans
        runner.tracer = None
        checked += traced.results + probe.results
        factors = {**traced.factors, **probe.factors, **replay.factors}
        selfs = self_times(spans, factors)
        metrics = {f"{n}_s": selfs.get(n, 0.0) for n in LAYER_SPANS}
        metrics["cli.interpreter_s"] = bare = workloads.interpreter_start(runner.env, "pass")
        metrics["cli.import_s"] = workloads.interpreter_start(
            runner.env, "import forestren") - bare
        counts = runner.counts
        for key in ("projector.states", "pairing.gram_solves", "series.numerator_terms"):
            metrics[key] = None if key in runner.missing_counters else counts[key]
        metrics["series.useful_term_ratio"] = (
            counts["series.useful_terms"] / counts["series.numerator_terms"])
        metrics["oracle.quad_rel_err_max"] = max(
            abs(o[0] - o[1]) / abs(o[1]) for it, _, o in traced.results + probe.results
            if it["kind"] == "quad" and o[0] != "error")
        metrics["trace.overhead_s"] = traced.wall - untraced.wall
        detail["untraced_wall_s"] = untraced.wall
        detail["traced_wall_s"] = traced.wall
        detail["self_times_s"] = selfs
        if args.workload == "trees":
            stages = ("forest.parse_forest", "renorm.expand_r1",
                      "projector.ev0_piplus_direct", "renorm.from_exact",
                      "renorm.render")
            detail["accounting"] = {
                "untraced_units_s": untraced.wall,
                "traced_stage_self_s": sum(
                    (sp.end - sp.start) * traced.factors[sp.input_id]
                    for sp in spans
                    if sp.name in stages and sp.input_id in traced.factors),
                "tracing_overhead_s": metrics["trace.overhead_s"]}
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps([sp._asdict() for sp in spans]))
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        lat = [t for _, t, _ in checked]
        tail_value, pct, beyond = tail(lat)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            "latency_s.p50": statistics.median(lat),
            "latency_s.tail": tail_value,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        detail["latency_tail"] = {"percentile": pct, "samples_beyond": beyond,
                                  "samples": len(lat)}
        if args.workload == "trees":
            detail.update(frontier_reach(checked))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    goldens = workloads.load_goldens()
    gate = workloads.Gate(goldens, args.seed == goldens["seed"], workdir)
    failed = 0
    for item, _, out in checked:
        reason = gate.check(item, out)
        if reason is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED {item['id']}: {reason}", file=sys.stderr)
    detail["failed_frac"] = failed / len(checked)

    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for key, value in sorted(detail.items()):
        if key.startswith("reach_"):
            print(f"{key} {value} degree")
    print(f"failed_frac {detail['failed_frac']} ratio")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checked), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
