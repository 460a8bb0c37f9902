"""entropykit benchmark.

    python3 perfbench/run.py --workload {corpus,symbolic,paths,orders}
                             --seed N --seconds S --trace {0,1}

Run from the root of an entropykit checkout; the library is imported from
its `src/`.  One process runs the workload as a closed loop with a single
caller: each verdict is built from fresh input objects, timed, and checked
against a known answer computed without entropykit.  Times are scaled to a
machine of fixed speed (see `Speed`).  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 0 only when every verdict was correct.  See
perfbench/README.md for what each metric means and which layer metric
should move which end-to-end metric.
"""

from time import perf_counter, process_time

_T0 = process_time()  # setup_s counts from here: imports plus input generation

import argparse
import gc
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction

import tracing
from manifest import manifest_entries

WORKLOADS = ("corpus", "symbolic", "paths", "orders")
POOL_ROUNDS = 128  # input rounds generated at setup; more than a run uses
MIN_VERDICTS = 200  # so the 95th percentile has at least 10 samples beyond it
HARD_LIMIT_S = 120.0  # stop the measured loop here even below MIN_VERDICTS
PROCESS_TIMEOUT_S = 120.0  # for any one fresh process
# Fresh CLI processes, timed one at a time: commands that never integrate,
# and commands that need quadrature.
COLD_COMMANDS = (
    ("axioms", "oracle_space.doc"), ("maxwell", "ideal_gas.doc"), ("galois", "chains.doc"),
)
COLD_QUAD_COMMANDS = (
    ("path", "ideal_gas.doc"), ("cycle-audit", "carnot.doc"), ("path", "kelvin_trap.doc"),
)
# The speeds times are scaled to, both measured on a quiet core of a
# 2.0 GHz Xeon with Python 3.11 and scipy 1.17: the CPU time of
# reference_kernel(), and the wall time of a fresh process that imports
# entropykit's heaviest dependency and nothing of entropykit.
REFERENCE_S = 0.0016
REFERENCE_EVERY_S = 0.05  # wall time between two samples of the kernel
COLD_REFERENCE = ("-c", "import scipy.integrate")
COLD_REFERENCE_S = 0.75

END_TO_END_UNITS = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "batch_s": "s",
    "cli_cold_s": "s",
    "cli_cold_quad_s": "s",
}

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def p95(values) -> float:
    """Nearest-rank 95th percentile; refuses fewer than 10 samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.95 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"{len(ordered)} samples leave {len(ordered) - rank} beyond the 95th "
            "percentile; at least 10 are needed"
        )
    return ordered[rank - 1]


class Tally:
    """Verdict times, round by round, and failures of one run."""

    def __init__(self):
        self.rounds: list[list[tuple[str, float]]] = []  # (kind, seconds) per verdict
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool):
        self.attempted += 1
        self.failed += not ok


def verdict_times(rounds, batch: bool = False) -> list[float]:
    return [s for rnd in rounds for kind, s in rnd if (kind == "batch") == batch]


def reference_kernel():
    """A fixed pure-Python load of the kind entropykit runs: Fraction
    arithmetic, tuple keys, small lists, a sort.  It calls nothing of
    entropykit, so no change to entropykit changes its time."""
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        total += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[i, i % 7] = [str(i), i * 1.5]
    return total, sorted(table.items())[:3]


class Speed:
    """How fast the machine ran during the measured loop.

    Neighbours on a shared host slow every instruction, by up to 2x, in
    spells from a fraction of a second to minutes; CPU time does not leave
    that out, and a run can sit wholly inside one spell.  The reference
    kernel, sampled evenly over the loop, meets the same spells as the
    verdicts, so a time multiplied by `factor()` reads as on a machine where
    the kernel takes REFERENCE_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.due = 0.0

    def tick(self):
        """Sample the kernel if REFERENCE_EVERY_S has passed since the last."""
        now = perf_counter()
        if now >= self.due:
            start = process_time()
            reference_kernel()
            self.samples.append(process_time() - start)
            self.due = now + REFERENCE_EVERY_S

    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)


# ---------------------------------------------------------------------------
# running verdicts
# ---------------------------------------------------------------------------


def run_round(task_list, tally: Tally, tracer=None, speed: Speed | None = None) -> float:
    """Run one round; returns its summed verdict time.

    A verdict's time is the CPU time of this process while it runs: verdicts
    are single-threaded and do no I/O, so on an idle machine this is their
    wall time, and on a busy one it leaves out time given to other processes."""
    times = []
    for kind, prepare in task_list:
        ok = False
        seconds = 0.0
        try:
            call, check = prepare()
            if tracer is not None:
                tracer.verdict = tally.attempted
                tracer.recording = True
            start = process_time()
            try:
                result = call()
            finally:
                seconds = process_time() - start
                if tracer is not None:
                    tracer.recording = False
            ok = bool(check(result))
            if not ok:
                print(f"wrong answer: {kind}", file=sys.stderr)
        except Exception:  # a raising verdict counts as failed; keep measuring
            print(f"verdict {kind} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        tally.count(ok)
        times.append((kind, seconds))
        if speed is not None:
            speed.tick()
    tally.rounds.append(times)
    return sum(s for _, s in times)


def setup(workload: str, seed: int):
    """Import entropykit through the workload module and generate inputs."""
    module = importlib.import_module(workload)
    return module, module.generate(seed, POOL_ROUNDS)


def warm_up(module, seed: int) -> Tally:
    """One untimed round on inputs of their own; returns a tally that counts
    its checks but none of its times."""
    warm = Tally()
    for desc in module.generate(seed, 1, stream="warm"):
        run_round(module.tasks(desc), warm)
    tally = Tally()
    tally.attempted, tally.failed = warm.attempted, warm.failed  # times dropped
    # Long-lived objects (modules, inputs) leave the collector's view, so a
    # full collection inside a verdict costs what the verdict allocated.
    gc.collect()
    gc.freeze()
    return tally


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workload: str, seed: int) -> float:
    """setup_s measured in a fresh process of its own (its CPU time)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
        cwd=ROOT, env=_subprocess_env(), capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def fresh_process(args) -> tuple[float, int]:
    """Wall time and exit code of one fresh Python process.

    The wait is on a pidfd, which wakes when the process exits; a
    `subprocess` wait with a timeout polls in steps of up to 50 ms, which
    would round every time to that step."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=_subprocess_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ) as proc:
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], PROCESS_TIMEOUT_S)
        finally:
            os.close(pidfd)
        seconds = perf_counter() - start
        if not exited:
            proc.kill()
            raise TimeoutError(f"{args} ran past {PROCESS_TIMEOUT_S} s")
        return seconds, proc.wait()


def cold_cli(command, seed: int, expected: dict, tally: Tally) -> float:
    """Wall time of one fresh `python -m entropykit.cli` process."""
    name, doc = command
    path = f"docs/corpus/{doc}"
    seconds, code = fresh_process(
        ["-m", "entropykit.cli", name, path, "--format", "structured", "--seed", str(seed)]
    )
    ok = code == expected[name, path]
    tally.count(ok)
    if not ok:
        print(f"wrong exit code from cold {name} {path}: {code}", file=sys.stderr)
    return seconds


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    module, pool = setup(workload, seed)
    setups: list[float] = []  # in fresh processes only
    expected = {(c, d): e for c, d, e in manifest_entries()}
    cold: list[float] = []
    cold_quad: list[float] = []
    cold_refs: list[float] = []
    scaled: dict[str, list[float]] = {"setup_s": [], "cli_cold_s": [], "cli_cold_quad_s": []}

    def reference_process() -> float:
        ref_s, code = fresh_process(COLD_REFERENCE)
        if code != 0:
            raise RuntimeError(f"reference process exited with {code}")
        cold_refs.append(ref_s)
        return ref_s

    def probe(plain, quad):
        """A plain cold CLI process, a setup probe and a quadrature cold CLI
        process between two reference processes; each of the three is
        scaled by the mean of the two."""
        before = reference_process()
        plain_s = cold_cli(plain, seed, expected, tally)
        setup_s = setup_probe(workload, seed)
        quad_s = cold_cli(quad, seed, expected, tally)
        ref = (before + reference_process()) / 2
        for samples, name, sample in (
            (cold, "cli_cold_s", plain_s), (setups, "setup_s", setup_s),
            (cold_quad, "cli_cold_quad_s", quad_s),
        ):
            samples.append(sample)
            scaled[name].append(COLD_REFERENCE_S * sample / ref)

    # Fresh-process probes run between rounds, spread evenly over the loop.
    probes = [
        lambda p=plain, q=quad: probe(p, q)
        for plain, quad in zip(COLD_COMMANDS, COLD_QUAD_COMMANDS)
    ]

    total_probes = len(probes)
    tally = warm_up(module, seed)
    speed = Speed()
    looped = 0.0  # wall time of the loop without the probes
    r = 0
    while True:
        if looped >= HARD_LIMIT_S:
            break
        if looped >= seconds and len(verdict_times(tally.rounds)) >= MIN_VERDICTS:
            break
        gc.collect()  # every round starts from the same collector state
        start = perf_counter()
        run_round(module.tasks(pool[r % len(pool)]), tally, speed=speed)
        looped += perf_counter() - start
        r += 1
        # probe k of n is due once the loop has run k/(n+1) of its time
        due = min(total_probes, int(looped / seconds * (total_probes + 1)))
        while probes and total_probes - len(probes) < due:
            probes.pop(0)()
    for pending in probes:  # left over only when HARD_LIMIT_S cut the loop
        pending()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies = verdict_times(tally.rounds)
    # corpus: the structured batch command; elsewhere: one round's verdicts
    batches = verdict_times(tally.rounds, batch=True) or [
        sum(s for _, s in rnd) for rnd in tally.rounds
    ]
    unscaled = {
        "setup_s": statistics.fmean(setups),
        "checks_per_s": len(latencies) / sum(latencies),
        "verdict_ms_p50": 1000.0 * statistics.median(latencies),
        "verdict_ms_p95": 1000.0 * p95(latencies),
        "batch_s": statistics.fmean(batches),
        "cli_cold_s": statistics.fmean(cold),
        "cli_cold_quad_s": statistics.fmean(cold_quad),
    }
    # Fresh processes are bound by memory more than the verdicts, and the
    # kernel does not follow their speed; the reference processes around
    # them do.  With three samples a metric, their mean is steadier than
    # their median.
    factor = speed.factor()
    metrics = {
        "setup_s": statistics.fmean(scaled["setup_s"]),
        "checks_per_s": unscaled["checks_per_s"] / factor,
        "verdict_ms_p50": factor * unscaled["verdict_ms_p50"],
        "verdict_ms_p95": factor * unscaled["verdict_ms_p95"],
        "peak_rss_mb": peak_rss_mb,
        "batch_s": factor * unscaled["batch_s"],
        "cli_cold_s": statistics.fmean(scaled["cli_cold_s"]),
        "cli_cold_quad_s": statistics.fmean(scaled["cli_cold_quad_s"]),
    }
    by_kind: dict[str, list[float]] = {}
    for rnd in tally.rounds:
        for kind, s in rnd:
            by_kind.setdefault(kind, []).append(s)
    print(json.dumps({
        "rounds": r,
        "verdicts": len(latencies),
        "speed_factor": factor,
        "reference_samples": len(speed.samples),
        "unscaled": unscaled,
        "setup_samples_s": setups,
        "cli_cold_samples_s": cold,
        "cli_cold_quad_samples_s": cold_quad,
        "cold_reference_samples_s": cold_refs,
        "kind_ms_p50": {k: 1000.0 * statistics.median(v) for k, v in sorted(by_kind.items())},
    }))
    return metrics, tally


def measure_traced(workload: str, seed: int) -> tuple[dict, Tally]:
    """Fixed rounds, untraced then traced, so counts repeat exactly."""
    module, pool = setup(workload, seed)
    tally = warm_up(module, seed)
    rounds = [pool[r % len(pool)] for r in range(module.TRACE_ROUNDS)]

    def timed_rounds(tracer=None) -> float:
        total = 0.0
        for desc in rounds:
            gc.collect()
            total += run_round(module.tasks(desc), tally, tracer)
        return total

    untraced = timed_rounds()
    scipy_loaded = "scipy.integrate" in sys.modules
    with tracing.Tracer(callers=[module]) as tracer:
        traced = timed_rounds(tracer)
    if tracer.missing:
        print(json.dumps({"untraced_targets": tracer.missing}))
    metrics = tracer.metrics()
    metrics["setup.scipy_loaded"] = int(scipy_loaded)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0

    # where the slowest traced verdict spent its time
    verdict, seconds = tracing.slowest_verdict(tracer.spans)
    layers = tracing.verdict_breakdown(tracer.spans, verdict)
    print(json.dumps({
        "spans": len(tracer.spans),
        "slowest_traced_verdict_s": seconds,
        "slowest_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])[:5]),
    }))
    return metrics, tally


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entropykit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop; a traced run takes "
                        "a fixed number of rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for required in ("src/entropykit/__init__.py", "docs/corpus/manifest.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            print(f"error: run from an entropykit checkout; {required} is missing",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print(process_time() - _T0)
        return 0

    if args.trace:
        metrics, tally = measure_traced(args.workload, args.seed)
        units = tracing.metric_units()
    else:
        metrics, tally = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scipy": importlib.metadata.version("scipy"),
        "failed_frac": tally.failed / tally.attempted,
    }))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
