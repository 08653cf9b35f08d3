"""optomac benchmark: one workload, one seed, one process, one thread.

Run from the repository root:

    python3 bench/run.py --workload seed_sweep --seed 0 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs every item twice, untraced and traced in alternating
order, reports the per-layer metrics of the traced runs and the tracing
overhead, and writes the spans to ``.bench_out/``.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Earlier lines describe the
machine, the workload, every new input's simulated counts and artifact
digest, and every metric by name and unit.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    """BENCHMARK.json: workload reasons and every metric's name and unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def fresh_import_s() -> float:
    """Seconds to import the optomac package afresh, dependencies loaded.

    The fresh module objects are dropped afterwards and the ones the
    benchmark already holds are put back, so every run uses one copy.
    """
    def ours(name):
        return name == "optomac" or name.startswith("optomac.")

    held = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in held:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("optomac")
    elapsed = time.perf_counter() - t0
    for name in [name for name in sys.modules if ours(name)]:
        del sys.modules[name]
    sys.modules.update(held)
    return elapsed


def print_record(workload: str, record) -> None:
    counts = " ".join(f"{k}={v}" for k, v in record.counts.items())
    print(f"record {workload} {record.label} {counts} sha256={record.digest}")


def sim_totals(records, keys) -> dict[str, float]:
    """Per-run means of the simulated counts over the given records."""
    n = max(len(records), 1)
    out = {k: sum(r.counts[k] for r in records) / n for k in keys}
    issued = sum(r.counts["nodes.issued"] for r in records)
    delivered = sum(r.counts["nodes.delivered"] for r in records)
    out["nodes.delivered_per_issued"] = delivered / issued if issued else 0.0
    return out


def untraced(workload, seconds, tally, harness):
    def step(item):
        elapsed, record, first = harness.attempt(workload, item, tally)
        if first:
            print_record(workload.name, record)
        return [(elapsed, record)]

    samples = harness.closed_loop(workload, seconds, 1, step)
    # every invocation reruns its first input at least once, so a run that
    # does not reproduce its own artifacts is caught even in short runs
    harness.attempt(workload, workload.batch(0)[0], tally)
    return samples


def traced(workload, seed, seconds, tally, harness, layers):
    from workloads import SIM_COUNTS
    recorder = layers.Recorder(extra_drivers=workload.drivers)
    traced_rows, prefix_rows, prefix_records = [], [], []
    wall = {"traced": 0.0, "untraced": 0.0}
    n_prefix = sum(len(workload.batch(i)) for i in range(workload.prefix_batches))
    pairs = 0

    def run_traced(item):
        recorder.begin_run(item.label)
        with recorder.installed():
            try:
                return workload.execute(item)
            finally:
                traced_rows.append(recorder.end_run())

    def step(item):
        nonlocal pairs
        plain_first = pairs % 2 == 0
        pairs += 1
        runs = {}
        for mode in (("untraced", "traced") if plain_first
                     else ("traced", "untraced")):
            run = run_traced if mode == "traced" else None
            elapsed, record, first = harness.attempt(workload, item, tally, run)
            if first:
                print_record(workload.name, record)
            runs[mode] = (elapsed, record)
        if all(e is not None for e, _ in runs.values()):
            for mode, (elapsed, _) in runs.items():
                wall[mode] += elapsed
            if len(prefix_records) < n_prefix:
                prefix_records.append(runs["traced"][1])
                prefix_rows.append(traced_rows[-1])
        return []

    harness.closed_loop(workload, seconds, workload.prefix_batches, step)
    metrics = layers.summarize(traced_rows, prefix_rows, recorder.all_icycles)
    metrics.update(sim_totals(prefix_records, SIM_COUNTS))
    metrics["bench.trace_overhead_ratio"] = (
        wall["traced"] / wall["untraced"] if wall["untraced"] else 0.0)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for row in recorder.span_rows():
            fh.write(json.dumps(row) + "\n")
    print(f"spans: {len(recorder.spans)} written to "
          f"{path.relative_to(ROOT)}; per-layer counts over the first "
          f"{len(prefix_records)} runs, host times over "
          f"{len(traced_rows)} traced runs")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "optomac" / "__init__.py").is_file():
        print(f"bench: no optomac sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]

    # set-up: a fresh import of the package plus the workload's configs and
    # schedules, repeated; the first import (interpreter, numpy) happens once
    # and is reported beside it, not in it
    setups = []
    before = harness.calibration_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import_s()
        workload = cls(args.seed)
        elapsed = time.perf_counter() - t0
        after = harness.calibration_s()
        setups.append(elapsed * harness.CAL_REF_S / ((before + after) / 2.0))
        before = after
    setup_s = harness.median(setups)
    started_s = time.perf_counter() - _T0

    info = machine()
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in info.items()))
    print(f"workload: {workload.name} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace} closed loop, one caller")
    print(f"why: {why}")

    tally = harness.Tally()
    if args.trace:
        import layers
        metrics = traced(workload, args.seed, args.seconds, tally, harness, layers)
        listed = spec["per_layer"]
    else:
        samples = untraced(workload, args.seconds, tally, harness)
        if not samples.run_s:
            for problem in tally.problems[:20]:
                print(f"failed: {problem}")
            print("bench: no run completed", file=sys.stderr)
            return 1
        tail_label, tail_s = harness.tail(samples.run_s)
        runs_per_s, cycles_per_s = samples.batch_rates()
        metrics = {
            "setup_s": setup_s,
            "runs_per_s": harness.median(runs_per_s),
            "sim_cycles_per_s": harness.median(cycles_per_s),
            "run_ms_p50": harness.median(samples.run_s) * 1e3,
            "run_ms_tail": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        listed = spec["end_to_end"]
        print(f"runs: {len(samples.run_s)} timed in {samples.batches} batches;"
              f" setup_s is the median of {SETUP_REPEATS} set-ups; process start"
              f" to first timed run {started_s:.4f} s;"
              f" run_ms_tail is {tail_label} of {len(samples.run_s)} runs,"
              f" at least {harness.TAIL_BEYOND} beyond it")
        print(f"calibration: {len(samples.calibrations)} tries, median "
              f"{harness.median(samples.calibrations) * 1e3:.4f} ms against "
              f"{harness.CAL_REF_S * 1e3:g} ms reference; raw host run_ms_p50 "
              f"{harness.median(samples.raw_run_s) * 1e3:.4f} ms")

    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                           "not both measured and listed in BENCHMARK.json")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric fail_ratio = {tally.fail_ratio:.6g} ratio "
          f"({tally.failed} of {tally.attempted} runs)")
    for problem in tally.problems[:20]:
        print(f"failed: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
