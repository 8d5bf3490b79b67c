"""Benchmark of the ehrgen pipeline: set-up, preprocess, train, generate,
evaluate.

    python3 perfbench/run.py --workload toy-evac --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One workload runs in one process as a closed loop with a single caller. The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record of
a run (context, fingerprints, samples, every traced function, spans) goes
to ``perfbench/out/``. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import os

# One BLAS thread, fixed before NumPy loads: the variables EHRGEN_THREADS=1
# sets in ehrgen.cli.
os.environ["EHRGEN_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2  # extra set-up samples, each in a fresh process
SPEED_PROBES = 3  # host-speed probes right after each set-up
CHILD_TIMEOUT_S = 170
BALANCE_TOL = 1e-3  # share of a phase's wall time, plus 1 ms


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # internal: time set-up and exit
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ehrgen" / "__init__.py").is_file():
        print(f"error: no ehrgen sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import pipeline  # loads NumPy and ehrgen: part of the set-up time

    if not Path(pipeline.corpus.__file__).resolve().is_relative_to(SRC):
        print("error: ehrgen was imported from outside the checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = pipeline.Seeds.derive(args.seed)
    # the host-speed reference needs NumPy, so it can first probe here
    with pipeline.hostspeed.Sampler() as inside:
        raw = pipeline.make_inputs(workload, seeds)
    setup_wall = time.perf_counter() - _T0 - inside.spent
    probes = inside.probes + [pipeline.hostspeed.probe()
                              for _ in range(SPEED_PROBES)]
    setup = {"wall": setup_wall,
             "scaled": setup_wall * pipeline.hostspeed.scale(*probes)}
    if args.setup_probe:
        print(json.dumps(setup))
        return 0
    return run_workload(args, workload, seeds, raw, setup)


def run_workload(args, workload, seeds, raw, setup):
    import pipeline
    import runinfo

    plan = workload.plan(args.seconds)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    model_path = OUT / f"{stem}_{os.getpid()}.npz"
    record = {"context": runinfo.collect(ROOT, workload.name, args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "plan": vars(plan)}
    ops = pipeline.Ops()
    setup_samples = [setup]
    if not args.trace:
        setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES)]
    try:
        base = pipeline.run_pass(workload, plan, seeds, raw, model_path, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = spans = None
        if args.trace and base["complete"]:
            traced, spans = traced_pass(workload, plan, seeds, model_path,
                                        ops, base)
    finally:
        model_path.unlink(missing_ok=True)

    base["setup_s"] = statistics.median(s["scaled"] for s in setup_samples)
    base.setdefault("wall_clock", {})["setup_s"] = statistics.median(
        s["wall"] for s in setup_samples)
    base["setup_samples"] = setup_samples
    base["peak_rss_mb"] = peak_rss_mb
    record["untraced"] = base
    e2e = {name: {"value": base[name], "unit": unit}
           for name, unit in END_TO_END if name in base}
    record["fingerprint"] = {"objective": base["objective_digest"],
                             "tokens": base.get("tokens_digest")}
    if traced is None:
        metrics = e2e
    else:
        record["traced"] = traced
        metrics = traced["metrics"]
    record["metrics"] = metrics
    record["ops"] = vars(ops)

    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=_jsonable)
    if spans is not None:
        write_spans(OUT / f"{stem}.spans.jsonl", spans)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"plan {json.dumps(vars(plan))}")
    print(f"  {'metric (nominal host speed)':<28} {'value':>14} {'unit':<6}"
          f" {'wall clock':>14}")
    for name, m in e2e.items():
        clock = base["wall_clock"].get(name)
        clock = "" if clock is None else f"{clock:>14.4f}"
        print(f"  {name:<28} {m['value']:>14.4f} {m['unit']:<6} {clock}")
    if traced is not None:
        print_trace(traced)
    for failure in ops.failures:
        print(f"  FAILED CHECK: {failure}")
    print(f"  checks: {ops.attempted} attempted, {ops.failed} failed; "
          f"record in {OUT.relative_to(ROOT) / (stem + '.json')}")
    complete = base["complete"] and (traced is not None or not args.trace)
    print(json.dumps({"correct": ops.failed == 0 and complete,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


def setup_probe(args):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_pass(workload, plan, seeds, model_path, ops, base):
    """Run the same pass again under the tracer and derive the per-layer
    metrics, the exact counts and the tracing overhead."""
    import layers
    import pipeline
    from tracer import Tracer

    tracer = Tracer()
    counts = layers.WorkCounts(tracer)
    tracer.install(layers.TRACED, counts.hooks())
    try:
        traced = pipeline.run_pass(workload, plan, seeds, None, model_path,
                                   ops, tracer)
    finally:
        tracer.uninstall()

    # the tracer must not change the arithmetic
    ops.check(traced["objective_digest"] == base["objective_digest"],
              "objective trajectory differs under tracing")
    ops.check(traced.get("tokens_digest") == base.get("tokens_digest"),
              "generated tokens differ under tracing")
    # self times, root remainders included, against each phase's wall time
    # taken outside the tracer
    balance = {}
    for name, (_, self_sum) in tracer.phase_balance().items():
        wall_ns = traced["walls"][name.removeprefix("phase.")] * 1e9
        balance[name] = {"wall_ms": wall_ns / 1e6,
                         "self_sum_ms": self_sum / 1e6}
        ops.check(abs(self_sum - wall_ns) <= BALANCE_TOL * wall_ns + 1e6,
                  f"{name}: self times {self_sum} ns vs wall {wall_ns:.0f} ns")
    ops.check(tracer.nesting_errors() == 0, "span outside its parent")

    summary = tracer.summary()
    functions = {}
    for name in list(layers.TRACED) + list(balance):
        row = summary.get(name, {"calls": 0, "self": 0, "total": 0})
        functions[layers.metric_name(name)] = {
            "calls": row["calls"], "self_ms": row["self"] / 1e6,
            "total_ms": row["total"] / 1e6}
    by_phase = {
        phase: {layers.metric_name(name): {"calls": row["calls"],
                                           "self_ms": row["self"] / 1e6}
                for name, row in rows.items()}
        for phase, rows in tracer.summary(by_phase=True).items()}
    values, bases = counts.results(traced)

    compared = [p for p in base["walls"] if p in traced["walls"]]
    untraced_s = sum(base["walls"][p] for p in compared)
    traced_s = sum(traced["walls"][p] for p in compared)
    overhead = {p: {"untraced_s": base["walls"][p],
                    "traced_s": traced["walls"][p],
                    "diff_ms": (traced["walls"][p] - base["walls"][p]) * 1e3}
                for p in compared}
    overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s

    metrics = {}
    for name, unit, _ in layers.per_layer_metrics():
        if name == layers.OVERHEAD[0]:
            value = overhead_pct
        elif name in values:
            value = values[name]
        else:
            fn, field = name.rsplit(".", 1)
            value = functions[fn][field]
        metrics[name] = {"value": value, "unit": unit}
    return {
        "metrics": metrics,
        "functions": functions,
        "functions_by_phase": by_phase,
        "absent": tracer.absent,
        "counts": values,
        "count_bases": bases,
        "overhead": {"phases": overhead, "overhead_pct": overhead_pct},
        "phase_balance": balance,
        "spans": len(tracer.spans),
        "pass": traced,
    }, tracer.spans


def write_spans(path, spans):
    """One span per line: name, start and end in ns from the first span,
    and the index of the parent span (-1 for a phase)."""
    origin = spans[0][1] if spans else 0
    with open(path, "w") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, start - origin, end - origin, parent]))
            fh.write("\n")


def print_trace(traced):
    print("  per-layer self time (traced pass):")
    rows = sorted(traced["functions"].items(),
                  key=lambda kv: -kv[1]["self_ms"])
    for name, row in rows:
        print(f"    {name:<42} {row['calls']:>8} calls "
              f"{row['self_ms']:>12.3f} ms self")
    for name in traced["absent"]:
        print(f"    {name:<42} absent")
    print("  exact counts:")
    for name, value in traced["counts"].items():
        print(f"    {name:<42} {value}")
    print(f"  tracing overhead: {traced['overhead']['overhead_pct']:.2f}% "
          "over the untraced pass (setup phase excluded)")


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S * 2, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            metrics[f"{name}.{metric}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _jsonable(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj).__name__}")


if __name__ == "__main__":
    sys.exit(main())
