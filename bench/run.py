"""Benchmark for arborsim: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload theorem-n200 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 when every output checked out, and nonzero when one did not or when the
sources or the arguments are missing. Op latencies and set-up times are
process CPU time scaled to a reference speed; see README.md here.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2718
SETUP_REPEATS = 9
# calibrate() takes CALIBRATION_S CPU seconds at the reference speed. A
# time reported at reference speed is a measured CPU time multiplied by
# CALIBRATION_S / (median of the NEAR calibrations made nearest to it, half
# before and half after).
CALIBRATION_S = 0.010
CALIBRATE_EVERY_S = 0.1
NEAR = 4

if not (SRC / "arborsim" / "__init__.py").is_file():
    sys.exit(f"bench: no arborsim sources under {SRC}")
sys.path.insert(0, str(SRC))

import arborsim  # noqa: E402

if Path(arborsim.__file__).resolve().parent != SRC / "arborsim":
    sys.exit(f"bench: arborsim imported from {arborsim.__file__}, not from {SRC}")

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Run in a fresh interpreter, after calibrate()'s source: CPU seconds to
# import what the workloads use, then the calibrations made around it there.
IMPORT_PROBE = """\
sys.path.insert(0, sys.argv[1])
calibrations = [calibrate() for _ in range(int(sys.argv[2]))]
start = time.process_time()
import arborsim.edgelist, arborsim.experiments
cpu = time.process_time() - start
calibrations += [calibrate() for _ in range(int(sys.argv[2]))]
print(cpu, *calibrations)
"""


def calibrate() -> float:
    """CPU seconds of a fixed loop shaped like the program's hot loops.

    It streams a sparse partial Fisher-Yates shuffle and keeps a list of
    edge tuples, as trace generation does. On a host shared with other
    tenants the speed of the same work changes by up to 1.5x within
    seconds; this loop, timed between the ops, changes with it. In 10 s
    windows of a recorded run, scaling each op by the calibrations next to
    it cut the spread of the median op time from 35-40% to 1-10%.
    """
    start = time.process_time()
    mask = (1 << 64) - 1
    x = 0
    population = 4_000_000
    swapped: dict[int, int] = {}
    edges = []
    for k in range(10000):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        j = k + (z ^ (z >> 31)) % (population - k)
        vj = swapped.get(j, j)
        swapped[j] = swapped.pop(k, k)
        tail, head = divmod(vj, 1999)
        edges.append((tail, head, z % 3347))
    return time.process_time() - start


def at_reference_speed(cpu: float, calibrations: list[float]) -> float:
    return cpu * CALIBRATION_S / statistics.median(calibrations)


def import_seconds() -> float:
    """Import time in a fresh interpreter, at reference speed.

    It is scaled by calibrations made in that interpreter: the parent's,
    which may run on another CPU of the shared host, did not follow it.
    """
    source = "import sys, time\n" + inspect.getsource(calibrate) + IMPORT_PROBE
    done = subprocess.run([sys.executable, "-c", source, str(SRC), str(NEAR // 2)],
                          capture_output=True, text=True, timeout=120, check=True)
    cpu, *calibrations = map(float, done.stdout.split())
    return at_reference_speed(cpu, calibrations)


def timed_setup(workload, seed: int) -> tuple[float, list]:
    """Median over SETUP_REPEATS of import plus input generation.

    CPU seconds at reference speed; input generation is scaled by
    calibrations made just before and just after it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        before = [calibrate() for _ in range(NEAR // 2)]
        start = time.process_time()
        inputs = workload.setup(seed)
        cpu = time.process_time() - start
        after = [calibrate() for _ in range(NEAR // 2)]
        times.append(imported + at_reference_speed(cpu, before + after))
    return statistics.median(times), inputs


class Outputs:
    """Checks every op's output and tallies attempted and failed ops.

    An output is checked against the workload's invariants, against the
    stored reference when the seed has one (field by field, so columns
    added to a report later do not matter), and against the first output
    of the same input in this run. Wrong outputs and raised exceptions are
    failed ops and make the run fail. An unknown decision, the answer the
    program documents for a spent time budget, is not compared, since it
    gives no answer, and is tallied in ``unknown`` rather than as failed;
    its op is timed like any other, so a run pays its whole budget.
    """

    def __init__(self, workload, expected: list[dict] | None):
        self.workload = workload
        self.expected = expected
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.unknown = 0
        self.errors: list[str] = []

    def add(self, index: int, inp, out, exc: BaseException | None) -> None:
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            self.errors.append(f"input {index}: raised {exc!r}")
            return
        unknown = self.workload.unknown
        rec = self.workload.record(inp, out)
        bad = self.workload.problems(inp, rec)
        if not unknown(rec):
            expected = self.expected[index] if self.expected is not None else None
            if expected is not None and not unknown(expected):
                bad += [f"{key} = {rec.get(key)!r}, reference {value!r}"
                        for key, value in expected.items() if rec.get(key) != value]
            if self.first.setdefault(index, rec) != rec:
                bad.append(f"{rec} differs from the earlier output {self.first[index]}")
        if bad:
            self.errors += [f"input {index}: {b}" for b in bad]
            self.failed += 1
        elif unknown(rec):
            self.unknown += 1


def timed_op(workload, inp):
    """(CPU seconds, wall seconds, output, exception) of one op."""
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        out, exc = workload.run(inp), None
    except Exception as caught:  # one failed op must not end the run
        traceback.print_exc()
        out, exc = None, caught
    return time.process_time() - cpu, time.perf_counter() - wall, out, exc


def measure(workload, inputs: list, seconds: float,
            outputs: Outputs) -> tuple[dict[int, list[float]], float]:
    """Run ops over the inputs, cycling, until `seconds` of wall time pass.

    Returns each input's op latencies in CPU seconds at reference speed,
    and the mean factor that scaled them. A calibration runs after every
    CALIBRATE_EVERY_S of op time.
    """
    ops = []  # (input index, CPU seconds, calibrations made before the op)
    calibrations = [calibrate() for _ in range(NEAR // 2)]
    since = 0.0
    end = time.perf_counter() + seconds
    while not ops or time.perf_counter() < end:
        index = len(ops) % len(inputs)
        cpu, _, out, exc = timed_op(workload, inputs[index])
        ops.append((index, cpu, len(calibrations)))
        outputs.add(index, inputs[index], out, exc)
        since += cpu
        if since >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            since = 0.0
    calibrations += [calibrate() for _ in range(NEAR // 2)]
    latencies: dict[int, list[float]] = {}
    half = NEAR // 2
    for index, cpu, b in ops:
        latencies.setdefault(index, []).append(
            at_reference_speed(cpu, calibrations[max(0, b - half):b + half]))
    scale = sum(map(sum, latencies.values())) / sum(cpu for _, cpu, _ in ops)
    return latencies, scale


def end_to_end(latencies: dict[int, list[float]], setup_s: float) -> tuple[dict, str]:
    """Throughput over all ops; percentiles over the inputs' median latencies.

    An input met more than once in a run (a run longer than one pass over
    the pool) counts once, at its median, so the percentiles rank inputs
    and a stall of the shared CPU during one op does not become the tail.
    """
    ops = sum(len(xs) for xs in latencies.values())
    ms = sorted(statistics.median(xs) * 1000.0 for xs in latencies.values())
    n = len(ms)
    # Highest rank with at least ten inputs above it, but not below the
    # median, which a run of fewer than 21 inputs would otherwise give.
    k = max(n - 11, n // 2)
    tail_note = f"p{100.0 * (k + 1) / n:.1f} of {n} inputs, {n - k - 1} beyond; {ops} ops"
    metrics = {
        "ops_per_s": (ops / sum(map(sum, latencies.values())), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (ms[k], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, tail_note


def traced(workload, inputs: list, outputs: Outputs) -> tuple[dict, list[str]]:
    """Two traced passes over the first trace_ops inputs, between two untraced.

    Outputs of all passes go through `outputs`, which fails the run if a
    traced output differs from an untraced one. The per-layer metrics come
    from the first traced pass; the counts of both traced passes must agree
    exactly. The overhead compares it with the faster untraced pass.
    """
    ops = inputs[:workload.trace_ops]

    def one_pass() -> float:
        wall = 0.0
        for index, inp in enumerate(ops):
            _, op_wall, out, exc = timed_op(workload, inp)
            wall += op_wall
            outputs.add(index, inp, out, exc)
        return wall

    untraced_wall = one_pass()
    tracers, walls = [], []
    for _ in range(2):
        with Tracer() as tracer:
            walls.append(one_pass())
        tracers.append(tracer)
    untraced_wall = min(untraced_wall, one_pass())
    errors = []
    if tracers[0].counts != tracers[1].counts:
        errors.append(f"traced counts differ between passes: {dict(tracers[0].counts)} "
                      f"vs {dict(tracers[1].counts)}")
    metrics = tracers[0].metrics()
    metrics["trace.overhead"] = (walls[0] / untraced_wall, "ratio")
    return metrics, errors


def load_reference(path: Path, name: str, workload, seed: int) -> list[dict] | None:
    """Stored outputs for this workload and seed, or None if there are none."""
    entry = json.loads(path.read_text()).get(name, {})
    expected = entry.get("outputs", {}).get(str(seed))
    if expected is not None and len(expected) != workload.pool:
        raise ValueError(f"{path}: {name} has {len(expected)} outputs for seed {seed}, "
                         f"the workload's pool is {workload.pool}")
    return expected


def make_reference(workloads: dict, seeds) -> dict:
    """Outputs of every input of every workload, for the given seeds."""
    reference = {}
    for name, workload in workloads.items():
        per_seed = {}
        for seed in seeds:
            recs = []
            for index, inp in enumerate(workload.setup(seed)):
                rec = workload.record(inp, workload.run(inp))
                problems = workload.problems(inp, rec)
                if problems:
                    raise RuntimeError(f"{name} seed {seed} input {index}: {problems}")
                recs.append({k: rec[k] for k in workload.fields})
            per_seed[str(seed)] = recs
        reference[name] = {"n": workload.n, "pool": workload.pool, "outputs": per_seed}
    return reference


def run_workload(name: str, workload, seed: int, seconds: float, trace: bool,
                 reference_path: Path) -> int:
    outputs = Outputs(workload, load_reference(reference_path, name, workload, seed))
    checked = "reference and invariants" if outputs.expected else "invariants only"
    if trace:
        metrics, errors = traced(workload, workload.setup(seed), outputs)
        outputs.errors += errors
        print(f"{name} seed {seed}: traced run over {workload.trace_ops} ops "
              f"(wall clock), outputs checked against {checked}")
    else:
        setup_s, inputs = timed_setup(workload, seed)
        latencies, scale = measure(workload, inputs, seconds, outputs)
        metrics, tail_note = end_to_end(latencies, setup_s)
        print(f"{name} seed {seed}: {seconds:g} s of ops; times are "
              f"CPU time at reference speed (measured x {scale:.4f}); "
              f"outputs checked against {checked}")
    for key, (value, unit) in metrics.items():
        note = f"  ({tail_note})" if key == "op_ms_tail" else ""
        print(f"  {key:34s} {value:14.6f} {unit}{note}")
    print(f"  {'fail_frac':34s} {outputs.failed / outputs.attempted:14.6f} "
          f"({outputs.failed} of {outputs.attempted} ops)")
    print(f"  {'unknown (budget spent)':34s} {outputs.unknown:14d} "
          f"of {outputs.attempted} ops")
    for error in outputs.errors[:20]:
        print(f"bench: {name}: {error}", file=sys.stderr)
    correct = not outputs.errors
    print(json.dumps({
        "correct": correct,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak RSS is its own."""
    results, status = {}, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=1800)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, done.returncode)
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None, workloads=WORKLOADS, reference_path: Path = REFERENCE) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; {DEFAULT_SEED} and {HELD_OUT_SEED} have stored "
                             f"reference outputs (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall seconds of measured ops (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the per-layer traced run (default 0)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, workloads[args.workload], args.seed,
                        args.seconds, bool(args.trace), reference_path)


if __name__ == "__main__":
    sys.exit(main())
