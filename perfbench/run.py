"""Benchmark harness for litt43: one process, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, averages, climb, verify-fast (see workloads.py and
README.md).  The harness imports the package from ``src/`` of the same
checkout and calls only its public API.

* ``--trace 0`` measures the end-to-end metrics with tracing off.
* ``--trace 1`` times the layer table, runs the workload untraced for half
  of ``--seconds`` and then the same number of cycles traced, and reports
  the per-layer metrics and the tracing overhead.

Every op's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when any op failed, 2 when the package source is missing,
and 3 when the emitted metrics do not match BENCHMARK.json.  A full record
of the run (environment, host reference loop, output digest, failures,
per-function trace statistics) goes to ``.bench_out/``, and in a traced run
every span goes to ``.bench_out/<workload>-seed<seed>.spans.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Keep this seed out of tuning and of the runs a change is developed on; a
# claimed gain must also hold on it.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}


def _import_package():
    """Import litt43 from this checkout's src/, never from anywhere else."""
    if not (SRC / "litt43" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'litt43'}; "
                         "run from the root of a litt43 checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import litt43
    if Path(litt43.__file__).resolve().parent != (SRC / "litt43").resolve():
        sys.stderr.write(f"perfbench: imported litt43 from {litt43.__file__}, not {SRC}\n")
        raise SystemExit(2)


@dataclass
class Phase:
    latencies: list = field(default_factory=list)  # ns per op
    failures: list = field(default_factory=list)
    cycle_s: list = field(default_factory=list)    # wall time per whole cycle
    wall: float = 0.0

    @property
    def cycles(self) -> int:
        return len(self.cycle_s)


def warm_up(ops):
    """Run and check one cycle; its outputs are the reference for later ops."""
    reference, failures = [], []
    for op in ops:
        try:
            out = op.run()
            cause = op.check(out)
        except Exception as exc:  # an op failure is counted, not fatal
            out, cause = None, f"{type(exc).__name__}: {exc}"
        reference.append((out, cause))
        if cause:
            failures.append({"op": op.label, "cause": cause})
    return reference, failures


def run_cycles(ops, reference, seconds=None, cycles=None, tracer=None) -> Phase:
    """Closed loop over whole cycles, until ``seconds`` pass or ``cycles`` are done.

    An op fails when it raises, when its input failed its check in the
    warm-up, or when its output differs from the warm-up output.
    """
    phase = Phase()
    clock = time.perf_counter_ns
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op, (expected, cause) in zip(ops, reference):
            if tracer is not None:
                tracer.op = len(phase.latencies)
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # an op failure is counted, not fatal
                out, cause = None, f"{type(exc).__name__}: {exc}"
            phase.latencies.append(clock() - t0)
            if cause is None and out != expected:
                cause = "output differs from the warm-up run of the same input"
            if cause:
                phase.failures.append({"op": op.label, "cause": cause})
        phase.cycle_s.append(time.perf_counter() - cycle_start)
        if cycles is not None and phase.cycles >= cycles:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    phase.wall = time.perf_counter() - start
    return phase


def digest(reference) -> str:
    """SHA-256 of the warm-up outputs, in cycle order: equal for bit-identical results."""
    text = json.dumps([out for out, _ in reference], sort_keys=True,
                      default=lambda x: x.item())
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def tail(latencies):
    """(latency, percentile): the highest percentile with TAIL_BEYOND ops beyond it.

    With fewer ops than that the slowest op stands in, at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def measure_setup(args):
    """Median wall time of fresh interpreters that import litt43 and build the inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), samples


def check_declared(layers):
    """Stop before measuring if the metrics differ from BENCHMARK.json's."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if e2e != END_TO_END or declared["per_layer"] != layers.declared():
        sys.stderr.write("perfbench: the metrics differ from BENCHMARK.json\n")
        raise SystemExit(3)


def end_to_end(args, ops, reference, record):
    setup_s, record["setup_samples_s"] = measure_setup(args)
    phase = run_cycles(ops, reference, seconds=args.seconds)
    latency, percentile = tail(phase.latencies)
    n = len(phase.latencies)
    record["tail"] = {"percentile": percentile, "ops": n,
                      "ops_beyond": n - round(percentile * n / 100.0)}
    record["op_median_ms"] = {
        op.label: statistics.median(phase.latencies[i::len(ops)]) / 1e6
        for i, op in enumerate(ops)}
    values = {
        "setup_s": setup_s,
        # steady-state throughput: ops per cycle over the median cycle time,
        # so a brief stall of the shared host moves it no more than one cycle
        "ops_per_s": len(ops) / statistics.median(phase.cycle_s),
        "op_p50_ms": statistics.median(phase.latencies) / 1e6,
        "op_tail_ms": latency / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, [phase]


def per_layer(args, ops, reference, record):
    import layers
    from tracer import Tracer

    table = layers.layer_table(args.seed)
    plain = run_cycles(ops, reference, seconds=args.seconds / 2.0)
    tracer = Tracer()
    with tracer:
        traced = run_cycles(ops, reference, cycles=plain.cycles, tracer=tracer)
    overhead = 100.0 * (traced.wall - plain.wall) / plain.wall
    stats = tracer.function_stats()
    view = layers.TraceView(stats, tracer.refusals, len(traced.latencies),
                            sum(traced.latencies) / 1e9, overhead, table)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.npz"
    tracer.save(spans)
    record.update({
        "untraced_wall_s": plain.wall, "traced_wall_s": traced.wall, "cycles": plain.cycles,
        "spans": len(tracer.span_start), "spans_file": str(spans.relative_to(ROOT)),
        "functions": stats, "moves": layers.moves(),
    })
    return {m: v["value"] for m, v in layers.read_all(view).items()}, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the inputs, then exit (times set-up)")
    args = parser.parse_args(argv)

    _import_package()
    import hostinfo
    import layers
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    workdir = OUT / "tmp"
    if args.setup_probe:
        workloads.build(args.workload, args.seed, workdir)
        return 0
    check_declared(layers)
    workdir.mkdir(parents=True, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
              "seconds": args.seconds, "trace": args.trace,
              "environment": hostinfo.environment(),
              "reference_before": hostinfo.reference_loop()}
    ops = workloads.build(args.workload, args.seed, workdir)
    reference, failures = warm_up(ops)
    record["cycle"] = [op.label for op in ops]
    record["digest"] = digest(reference)
    measure = per_layer if args.trace else end_to_end
    values, phases = measure(args, ops, reference, record)
    record["known_defects"] = workloads.known_defects(args.workload, args.seed)
    record["reference_after"] = hostinfo.reference_loop()

    attempted = len(ops) + sum(len(p.latencies) for p in phases)
    failures += [f for p in phases for f in p.failures]
    units = ({m["name"]: m["unit"] for m in layers.declared()} if args.trace
             else END_TO_END)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    record.update({"attempted": attempted, "failed": len(failures),
                   "failures": failures[:50], "metrics": metrics})
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n",
                           encoding="utf-8")

    main_phase = phases[0]
    print(f"workload {args.workload} seed {args.seed}: {len(main_phase.latencies)} ops "
          f"in {main_phase.wall:.2f} s ({main_phase.cycles} cycles of {len(ops)})")
    print(f"failed {len(failures)} of {attempted} ops "
          f"(failed_op_ratio {len(failures) / attempted:.6g})")
    for failure in failures[:10]:
        print(f"  FAILED {failure['op']}: {failure['cause']}")
    for defect in record["known_defects"]:
        print(f"  KNOWN DEFECT (not an op of this workload) {defect}")
    for name, metric in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{record['tail']['percentile']:.2f} of {record['tail']['ops']} ops, "
                    f"{record['tail']['ops_beyond']} beyond)")
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{note}")
    before, after = record["reference_before"], record["reference_after"]
    print(f"outputs sha256 {record['digest']}")
    print(f"host reference loop: python {before['python_ms']:.2f} -> {after['python_ms']:.2f} "
          f"ms, numpy {before['numpy_ms']:.2f} -> {after['numpy_ms']:.2f} ms")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
