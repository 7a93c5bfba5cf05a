"""Benchmark of the ptop CLI and library.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program under test is the
``ptop`` package in ``src/``, imported in process and run as
``python -m ptop`` in child processes.  Each workload is a closed loop
with one client and at most one child process at a time.  Set-up builds
the seeded inputs and the expected answers, three times, outside the
measured loop; the loop then repeats the workload's op cycle, whole
cycles only, for about S seconds and at least one cycle, and checks
every answer.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see ``benchmarks/README.md``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import marshal
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 150
WORKLOADS = ("cli-startup", "cli-load-n12", "lib-complete", "lib-structure")


# --- answers and digests --------------------------------------------------


SCALARS = frozenset({int, float, str, bool, type(None)})


def canon(x):
    """Plain, order-canonical data for a result, so equal results digest alike."""
    if type(x) in SCALARS:  # first: report lists and tables hold 10^5 scalars
        return x
    if isinstance(x, (frozenset, set)):
        return tuple(sorted(x))
    if isinstance(x, list):
        return list(map(canon, x))
    if isinstance(x, tuple):
        return tuple(map(canon, x))
    if is_dataclass(x):
        from ptop import LevelChain

        if isinstance(x, LevelChain):
            return (x.n, x.levels, tuple(tuple(sorted(t)) for t in x.topologies), x.base)
        return (type(x).__name__, *map(canon, vars(x).values()))
    return x


def digest(x) -> str:
    h = hashlib.sha256()
    if isinstance(x, list):  # report lists run to 10^5 entries: hash them in slices
        for i in range(0, len(x), 4096):
            h.update(marshal.dumps(canon(x[i:i + 4096]), 2))
    else:
        h.update(marshal.dumps(canon(x), 2))
    return h.hexdigest()[:16]


class Checker:
    """Counts ops and failures; each op's first answer is checked in full.

    A CLI answer must match the expected exit code, stdout and output
    file.  A library answer must pass its op's property check the first
    time and keep that digest afterwards.  At the default seed every
    digest must also equal the pinned one.
    """

    def __init__(self, ops, pinned: dict[str, str] | None):
        self.ops = ops
        self.pinned = pinned
        self.first: dict[int, tuple[str, bool]] = {}
        self.digests: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.props: dict[str, list] = {}

    def record(self, index: int, answer_digest: str, ok: bool) -> None:
        if self.pinned is not None and self.pinned.get(self.ops[index].label) != answer_digest:
            ok = False
        if self.digests[index] is None:
            self.digests[index] = answer_digest
        self.attempted += 1
        self.failed += not ok


# --- running ops ----------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PTOP_MAX_N", "PYTHONOPTIMIZE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env, work: Path) -> tuple[float, int, str, str, float]:
    """Runs one child to its end.

    Returns the wall time, exit code, stdout, stderr and the child's own
    peak RSS in MB.  The output goes to files in ``work`` so that the
    child can be reaped with ``os.wait4``, which gives its resource usage
    alone.  A child still running after ``CHILD_TIMEOUT_S`` is killed.
    """
    with open(work / "child.out", "w+", encoding="utf-8") as out, \
            open(work / "child.err", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        out.seek(0)
        err.seek(0)
        return latency, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


def cli_runner(checker: Checker, work: Path, main=None, child_rss_mb: list[float] | None = None):
    """Runs CLI ops as children (``main`` None) or in process through ``main``.

    Each child's peak RSS is appended to ``child_rss_mb`` when it is given.
    """
    env = child_env()

    def run(index: int, op) -> float:
        if op.out:
            Path(op.out).unlink(missing_ok=True)
        if main is None:
            latency, code, out, err, rss = run_child([sys.executable, "-m", "ptop", *op.argv], env, work)
            if child_rss_mb is not None:
                child_rss_mb.append(rss)
        else:
            out_buf, err_buf = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out_buf), redirect_stderr(err_buf):
                try:
                    code = main(op.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed op; the run goes on
                    code = f"raised {type(exc).__name__}"
            latency = time.perf_counter() - start
            out, err = out_buf.getvalue(), err_buf.getvalue()
        written = Path(op.out).read_text(encoding="utf-8") if op.out and Path(op.out).exists() else None
        ok = (code, out, written) == (op.code, op.stdout, op.out_text) and (
            code != 2 or err.startswith("error: ")
        )
        checker.record(index, digest((code, out, written)), ok)
        return latency

    return run


def lib_runner(checker: Checker, calls: dict):
    """Runs library ops through ``calls``, which maps op names to functions."""
    from workloads import Ref

    referenced = {a.label for op in checker.ops for a in op.args if isinstance(a, Ref)}
    results: dict[str, object] = {}  # only the results later ops take as arguments

    def run(index: int, op) -> float:
        args = tuple(results[a.label] if isinstance(a, Ref) else a for a in op.args)
        gc.collect()  # the benchmark's own garbage is not the op's to collect
        start = time.perf_counter()
        try:
            result = calls[op.func](*args)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            latency = time.perf_counter() - start
            checker.record(index, f"raised {type(exc).__name__}", False)
            return latency
        latency = time.perf_counter() - start
        if op.label in referenced:
            results[op.label] = result
        answer = digest(result)
        if index not in checker.first:
            try:
                ok = bool(op.check(args, result))
            except Exception:
                ok = False
            checker.first[index] = (answer, ok)
            if op.record is not None:
                key, measure = op.record
                checker.props.setdefault(key, []).append(measure(result))
        first_answer, first_ok = checker.first[index]
        checker.record(index, answer, first_ok and answer == first_answer)
        return latency

    return run


# --- machine speed --------------------------------------------------------
# The machines this runs on are shared, and their speed drifts from minute
# to minute: over forty runs in one hour on a 2-core VM, the probes below
# took 1.0 to 1.8 times their reference time.  So a fixed speed probe runs before
# every op (every ``CLI_PROBE_EVERY``-th op where the workload's probe is a
# child process), and reported times are scaled to the probe's reference
# time: t * ref / p, where p is the median of the five probes nearest the
# op.  Work done by the program does not change the probe, so
# a faster or slower program shows in full.  The report prints raw times
# beside.

KERNEL_REF_S = 0.0025  # about kernel_probe() on an idle 2-core x86-64 VM
CHILD_REF_S = 0.13  # about child_probe() on the same machine
CLI_PROBE_EVERY = 4
_PROBE_DATA = (np.arange(1 << 18, dtype=np.int64) * 2654435761 % (1 << 18)).astype(np.float64)


def kernel_probe() -> float:
    """Times a fixed mix of interpreter work and a numpy sort of 2 MB.

    Measured against the library ops, this mix tracks the machine's
    speed closer than interpreter work alone, which misses contention
    for memory bandwidth and cache.
    """
    start = time.perf_counter()
    np.sort(_PROBE_DATA)
    total = 0
    for i in range(20000):
        total += i & 7
    return time.perf_counter() - start


def child_probe(work: Path) -> float:
    """Times a child that imports numpy, the bulk of every CLI op's start-up.

    Interpreter start alone (``python -c pass``) slows less than an
    import of numpy's many extension modules when the machine is loaded.
    """
    return run_child([sys.executable, "-c", "import numpy"], child_env(), work)[0]


def scaled(times: list[float], probes: list[float], ref: float, every: int) -> list[float]:
    """Op times scaled by the probes taken before every ``every``-th op."""
    out = []
    for i, t in enumerate(times):
        j = i // every
        out.append(t * ref / statistics.median(probes[max(0, j - 2): j + 3]))
    return out


def run_cycles(ops, runner, seconds: float, probe=None, every: int = 1):
    """Whole cycles, at least one, until about ``seconds`` have passed.

    Returns the op latencies, the probe times (``probe`` runs before
    every ``every``-th op, when given) and the elapsed time.
    """
    latencies: list[float] = []
    probes: list[float] = []
    cycles = 0
    start = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            if probe is not None and len(latencies) % every == 0:
                probes.append(probe())
            latencies.append(runner(index, op))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= seconds:
            return latencies, probes, elapsed


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median_wall(argv: list[str], env, work: Path, repeats: int) -> float:
    return statistics.median(run_child(argv, env, work)[0] for _ in range(repeats))


# --- the run --------------------------------------------------------------


def setup(name: str, seed: int, work: Path, tiny: bool):
    """Set up ``SETUP_REPEATS`` times.

    Returns the workload and the median set-up time, raw and scaled by
    speed probes taken before and after each set-up.
    """
    from workloads import SETUPS

    times, probes = [], [statistics.median(kernel_probe() for _ in range(5))]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = SETUPS[name](seed, work, tiny)
        times.append(time.perf_counter() - start)
        probes.append(statistics.median(kernel_probe() for _ in range(5)))
    adjusted = [t * KERNEL_REF_S * 2 / (before + after) for t, before, after in zip(times, probes, probes[1:])]
    return workload, statistics.median(times), statistics.median(adjusted)


def load_pins(name: str, seed: int, tiny: bool):
    if tiny or seed != DEFAULT_SEED or not PINNED.exists():
        return None
    return json.loads(PINNED.read_text(encoding="utf-8")).get(name)


def summarize_props(workload, checker: Checker) -> dict:
    props = {"n": [op.n for op in workload.ops], **workload.props, **checker.props}
    return {
        key: {"count": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
        for key, v in props.items()
        if v
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, tiny: bool = False,
            pinned: bool = True) -> dict:
    """One run of a workload; returns the result object plus run details.

    ``pinned`` False skips the comparison with the pinned digests.
    """
    import ptop.cli
    from spans import LAYER_METRICS, Tracer
    from workloads import library_function

    workload, raw_setup_s, setup_s = setup(name, seed, work, tiny)
    checker = Checker(workload.ops, load_pins(name, seed, tiny) if pinned else None)
    env = child_env()
    detail: dict = {"workload": name, "seed": seed, "ops_per_cycle": len(workload.ops)}
    if workload.kind == "cli":
        run_child([sys.executable, "-c", "import ptop.cli"], env, work)  # byte-compiles the package once
    raw_calls = {op.func: library_function(op.func) for op in workload.ops if workload.kind == "lib"}

    if not trace:
        child_rss_mb: list[float] = []
        if workload.kind == "cli":
            runner = cli_runner(checker, work, child_rss_mb=child_rss_mb)
        else:
            runner = lib_runner(checker, raw_calls)
        if workload.probe == "child":
            probe, ref, every = (lambda: child_probe(work)), CHILD_REF_S, CLI_PROBE_EVERY
        else:
            probe, ref, every = kernel_probe, KERNEL_REF_S, 1
        raw, probes, elapsed = run_cycles(workload.ops, runner, seconds, probe, every)
        # CLI: the largest op child; library: this process, which runs one workload only
        rss = max(child_rss_mb) if child_rss_mb else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def timings(lat, setup_time):
            return {
                "setup_s": (setup_time, "s"),
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "latency_ms_p50": (percentile(lat, 0.5) * 1e3, "ms"),
                "latency_ms_p90": (percentile(lat, 0.9) * 1e3, "ms"),
                "peak_rss_mb": (rss, "MB"),
            }

        metrics = timings(scaled(raw, probes, ref, every), setup_s)
        detail["raw"] = timings(raw, raw_setup_s)
        detail["speed"] = statistics.median(probes) / ref
        detail["samples"] = len(raw)
    else:
        tracer = Tracer()
        if workload.kind == "cli":
            plain = cli_runner(checker, work, main=ptop.cli.main)
            traced = cli_runner(checker, work, main=tracer.wrap(ptop.cli.main, "cli.main"))
        else:
            plain = lib_runner(checker, raw_calls)
            traced = lib_runner(checker, {f: tracer.wrap(fn, f) for f, fn in raw_calls.items()})
        plain_lat: list[float] = []
        traced_lat: list[float] = []

        def run_traced(index, op):
            tracer.op = index
            with tracer.patched():
                return traced(index, op)

        turns: dict[str, int] = {}

        def pair(index, op):
            """Each op untraced and traced, adjacent in time so that drift cancels in the overhead.

            The order alternates between successive ops of one kind (the
            first word of the label), so that first-touch costs and the
            cache warmed by an op's first check fall on both sides alike.
            """
            kind = op.label.split()[0]
            turns[kind] = turns.get(kind, -1) + 1
            if turns[kind] % 2:
                traced_lat.append(run_traced(index, op))
                plain_lat.append(plain(index, op))
            else:
                plain_lat.append(plain(index, op))
                traced_lat.append(run_traced(index, op))
            return plain_lat[-1] + traced_lat[-1]

        _, _, elapsed = run_cycles(workload.ops, pair, seconds)
        cycles = len(traced_lat) // len(workload.ops)
        interp = median_wall([sys.executable, "-c", "pass"], env, work, STARTUP_PROBES)
        with_import = median_wall([sys.executable, "-c", "import ptop.cli"], env, work, STARTUP_PROBES)
        layer = {key: 0.0 for key, _, _ in LAYER_METRICS}
        layer.update(tracer.layer_metrics(cycles))
        layer["cli.interp_start_ms"] = interp * 1e3
        layer["cli.import_ms"] = (with_import - interp) * 1e3
        layer["trace.untraced_ops_per_s"] = len(plain_lat) / sum(plain_lat)
        layer["trace.traced_ops_per_s"] = len(traced_lat) / sum(traced_lat)
        layer["trace.overhead_ratio"] = sum(traced_lat) / sum(plain_lat)
        units = {key: unit for key, unit, _ in LAYER_METRICS}
        metrics = {key: (layer[key], units[key]) for key in units}
        detail["samples"] = len(plain_lat) + len(traced_lat)
        detail["traced_cycles"] = cycles
        detail["spans"] = len(tracer.spans)

    detail["elapsed_s"] = elapsed
    detail["labels"] = [op.label for op in workload.ops]
    detail["digests"] = checker.digests
    detail["properties"] = summarize_props(workload, checker)
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return {"result": result, "detail": detail}


def report(outcome: dict) -> None:
    detail, result = outcome["detail"], outcome["result"]
    print(f"workload {detail['workload']} seed {detail['seed']}: {detail['samples']} op samples, "
          f"{detail['ops_per_cycle']} ops per cycle, {detail['elapsed_s']:.1f} s measured")
    failed_ratio = result["failed"] / result["attempted"]
    print(f"  failed_ratio = {failed_ratio:.4g} ({result['failed']} of {result['attempted']})")
    raw = detail.get("raw", {})
    if raw:
        print(f"  speed probe: {detail['speed']:.3f} x its reference time; times below are scaled, raw after")
    for key, metric in result["metrics"].items():
        after = f"   raw {raw[key][0]:.6g}" if key in raw else ""
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}{after}")
    print("properties " + json.dumps(detail["properties"], sort_keys=True))
    print("digests " + " ".join(d or "-" for d in detail["digests"]))


def run_all(args) -> int:
    """Runs each workload in a child process of its own, so that no
    workload's memory high-water mark includes another's, and prints
    their reports and one JSON object of all their results."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + ["--write-pins"] * args.write_pins, capture_output=True, text=True,
                              cwd=ROOT)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="store this run's answer digests as the pinned ones (default seed only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptop" / "__init__.py").is_file():
        print(f"error: no ptop sources at {SRC}; run from a ptop checkout", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without -O; the measured code paths include debug asserts", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        print("error: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ.pop("PTOP_MAX_N", None)
    import ptop

    if Path(ptop.__file__).resolve().parent != (SRC / "ptop").resolve():
        print(f"error: ptop was imported from {ptop.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.write_pins and (args.seed != DEFAULT_SEED or args.trace):
        print("error: pins are written from an untraced run at the default seed", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    name = args.workload
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        outcome = measure(name, args.seed, args.seconds, bool(args.trace), work, pinned=not args.write_pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.write_pins:
        pins = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
        pins[name] = dict(zip(outcome["detail"]["labels"], outcome["detail"]["digests"]))
        PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
