"""Benchmark of anomdiff: four closed-loop workloads with checked outputs.

    python3 benchmarks/run.py --workload direct|nested|operators|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`.
One caller runs one operation at a time.  After set-up, the workload's fixed
pass (its operations in an order shuffled by the seed) repeats until
--seconds have passed; every output is checked against a reference computed
apart from anomdiff.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
of BENCHMARK.json for --trace 0 and its per-layer metrics for --trace 1.
Details of failures go to standard error; the result and the raw trace are
also written under bench_out/ in the checkout.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here: the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, for this process and its children

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
WORKLOADS = ("direct", "nested", "operators", "cli")


def fail(msg: str):
    print(f"benchmark error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_anomdiff():
    """Import anomdiff from this checkout's src, and only from there."""
    if not (SRC / "anomdiff" / "__init__.py").is_file():
        fail(f"no anomdiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import anomdiff

    if Path(anomdiff.__file__).resolve().parent != (SRC / "anomdiff").resolve():
        fail(f"anomdiff was imported from {anomdiff.__file__}, not from {SRC}")
    return anomdiff


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def flatten(items, rng=None):
    """Operations of one pass; groups keep their inner order."""
    items = list(items)
    if rng is not None:
        rng.shuffle(items)
    out = []
    for item in items:
        out.extend(item if isinstance(item, list) else [item])
    return out


RING = 1024  # passes whose timings are kept: memory must not grow with speed
NOMINAL_KERNEL_S = 2.0e-3  # speed_kernel's time on this 2-vCPU machine when it runs fast
SAMPLE_EVERY_S = 0.25


def speed_kernel():
    """A fixed mix of pure-Python arithmetic and small numpy calls, like the
    library's own work; it uses no part of anomdiff."""
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    a = np.arange(64.0)
    for _ in range(300):
        a = np.sqrt(a + 1.0)
    return acc + float(a[0])


class Speed:
    """Samples of how fast the shared machine runs, each the median time of
    three runs of speed_kernel, taken between operations."""

    def __init__(self):
        self.samples: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sample()

    def sample(self) -> int:
        clock = time.perf_counter
        self.starts.append(clock())
        runs = []
        for _ in range(3):
            t0 = clock()
            speed_kernel()
            runs.append(clock() - t0)
        self.samples.append(statistics.median(runs))
        self.ends.append(clock())
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of the latest sample, after taking a new one if it is due."""
        if time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def factors(self) -> np.ndarray:
        """Scale for work done after sample k: the nominal kernel time over
        the mean of samples k and k + 1."""
        s = np.array(self.samples + self.samples[-1:])
        return NOMINAL_KERNEL_S / (0.5 * (s[:-1] + s[1:]))

    def scaled_since(self, since: float) -> float:
        """Time from `since` to the latest sample, without the sampling, each
        stretch between two samples scaled by its factor."""
        f = self.factors()
        total = (self.starts[0] - since) * NOMINAL_KERNEL_S / self.samples[0]
        for k in range(len(self.samples) - 1):
            total += (self.starts[k + 1] - self.ends[k]) * f[k]
        return total


def run_pass(ops, outcome, times=None, marks=None, column=None, speed: Speed | None = None):
    """Run every operation once, timing each call into times[column[op]] and
    recording in marks the speed sample taken before it; then check them all."""
    results = []
    clock = time.perf_counter
    for op in ops:
        if speed is not None:
            k = speed.mark()
            if marks is not None:
                marks[column[id(op)]] = k
        t0 = clock()
        try:
            results.append((True, op.call()))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((False, exc))
        if times is not None:
            times[column[id(op)]] = clock() - t0
    if outcome is not None:
        for op, (ok, value) in zip(ops, results):
            outcome.record(op, ok, value)
    return results


def loop(items, seconds: float, rng, outcome, speed: Speed, per_op=None):
    """Repeat whole passes until `seconds` have passed.

    Returns the number of passes, the throughput at nominal speed, and the
    throughput as timed.  The latter is the operations of one pass over the
    sum of each operation's median time across the passes (the last RING of
    them), so a burst of load during one pass does not move it.  The
    machine's speed also drifts by 20 % or more over tens of seconds, so the
    former first scales each operation's time by the nominal kernel time
    over the mean of the speed samples taken just before and after it."""
    column = {id(op): j for j, op in enumerate(flatten(items))}
    times = np.full((RING, len(column)), np.nan)  # written now, so resident from the start
    marks = np.zeros((RING, len(column)), dtype=np.int32)
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ops = flatten(items, rng)
        row = passes % RING
        results = run_pass(ops, outcome, times[row], marks[row], column, speed)
        passes += 1
        if per_op is not None:
            per_op(ops, results)
    speed.sample()
    kept = slice(0, min(passes, RING))
    as_timed = len(column) / float(np.sum(np.nanmedian(times[kept], axis=0)))
    scaled = times[kept] * speed.factors()[marks[kept]]
    return passes, len(column) / float(np.sum(np.nanmedian(scaled, axis=0))), as_timed


# ---------------------------------------------------------------------------
# set-up


def setup_in_process(name):
    import workloads as W

    if name == "operators":
        return W.operators_ops()
    oracles = W.load_oracles()
    return W.direct_ops(oracles) if name == "direct" else W.nested_ops(oracles)


def fresh_import(env, probe: bool = False):
    """Wall time of a fresh interpreter running `import anomdiff`; with probe,
    also the in-process import time and the number of scipy modules loaded."""
    code = "import anomdiff"
    if probe:
        code = ("import time, sys; t = time.perf_counter(); import anomdiff; "
                "print(time.perf_counter() - t, sum(1 for m in sys.modules if m.split('.')[0] == 'scipy'))")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"fresh import failed: {proc.stderr.strip()[-300:]}")
    if probe:
        secs, count = proc.stdout.split()
        return float(secs), int(count)
    return wall


def verify_report_bytes(suite, seed):
    """The report `anomdiff --command verify` writes, produced in-process."""
    from anomdiff import verify

    report = verify.run_suite(suite, seed=seed)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def verify_check_times(names):
    """Wall time of each named verify check, run alone through run_suite."""
    from anomdiff import verify

    out = {}
    for name in names:
        t0 = time.perf_counter()
        report = verify.run_suite(name)
        out[name] = (time.perf_counter() - t0, all(t["pass"] for t in report["tests"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and its children, so that the speed samples
        # are taken on the CPU that runs the operations
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speed()  # the set-up is scaled like the operations, by the samples around it

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    import_anomdiff()
    import workloads as W
    from tracer import Tracer, layer_metrics, merge

    rng = random.Random(args.seed)
    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    raw_trace: dict = {}
    env = W.child_env(SRC)
    layer: dict = {}
    cmd_walls: dict = {}
    outcome = W.Outcome()

    if args.workload == "cli":
        # set-up: cold import in fresh interpreters; the median is the metric
        walls = [(speed.mark(), fresh_import(env)) for _ in range(5)]
        speed.sample()
        setup_s = statistics.median(wall * speed.factors()[k] for k, wall in walls)
        reports = {s: verify_report_bytes(s, W.VERIFY_SEED) for s in W.VERIFY_SUITES}
        items = W.cli_ops(args.seed, W.make_runner(SRC, traced), reports)

        def collect(ops, results):  # traced: wall times and span statistics of the children
            for op, (ok, res) in zip(ops, results):
                if ok:
                    cmd_walls.setdefault(op.command, []).append(res.wall_s)
                    marker = "\n@@trace "
                    if marker in res.stderr:
                        merge(raw_trace, json.loads(res.stderr.rsplit(marker, 1)[1]))

        passes, ops_per_s, raw_ops_per_s = loop(items, args.seconds, rng, outcome, speed, collect if traced else None)
        peak = peak_rss_mb(resource.RUSAGE_CHILDREN)
    else:
        items = setup_in_process(args.workload)
        run_pass(flatten(items, rng), None, speed=speed)  # warm-up: fills the contour caches
        speed.sample()
        setup_s = speed.scaled_since(T_START)
        if tracer:
            tracer.install()
        try:
            passes, ops_per_s, raw_ops_per_s = loop(items, args.seconds, rng, outcome, speed)
        finally:
            if tracer:
                tracer.uninstall()
                raw_trace = tracer.raw()
        peak = peak_rss_mb()

    if traced:
        layer.update(layer_metrics(raw_trace))
        layer["trace.ops_per_s"] = ops_per_s
        for command in ("tabulate", "sample", "solve-bvp", "moments", "verify"):
            walls = cmd_walls.get(command)
            layer[f"cli.{command}.s"] = statistics.median(walls) if walls else 0.0
        probes = [fresh_import(env, probe=True) for _ in range(3)]
        layer["cli.import.s"] = statistics.median(p[0] for p in probes)
        layer["cli.import.scipy_submodules"] = probes[0][1]
        from anomdiff import verify

        names = [n for n, _, _ in verify._CHECKS]
        mine = {"cli": [n for n in names if not n.startswith("frac.")],
                "operators": [n for n in names if n.startswith("frac.")]}.get(args.workload, [])
        times = verify_check_times(mine)
        for n in names:
            layer[f"verify.{n}.s"] = times[n][0] if n in times else 0.0
        if not all(ok for _, ok in times.values()):
            outcome.correct = False
            outcome.wrong["verify checks"] = ", ".join(n for n, (_, ok) in times.items() if not ok)

    if outcome.min_digits == float("inf"):
        fail("no deterministic output was checked")
    e2e = {"setup_s": setup_s, "ops_per_s": ops_per_s, "min_digits": outcome.min_digits, "peak_rss_mb": peak}
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    source = layer if traced else e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, why in sorted(outcome.failures.items()):
        tag = "UNEXPECTED " if name in outcome.unexpected else ""
        print(f"{tag}failed: {name}: {why}", file=sys.stderr)
    for name, why in sorted(outcome.wrong.items()):
        print(f"WRONG: {name}: {why}", file=sys.stderr)
    print(f"{args.workload}: {passes} passes, {outcome.attempted} operations, "
          f"{outcome.failed} failed, min digits {outcome.min_digits:.2f}, "
          f"{ops_per_s:.6g} ops/s at nominal speed, {raw_ops_per_s:.6g} ops/s as timed", file=sys.stderr)

    result = {"correct": outcome.correct, "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(dict(result, raw_ops_per_s=raw_ops_per_s), indent=1) + "\n")
    if traced:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(raw_trace, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
