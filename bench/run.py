"""netconv benchmark: seeded CLI conversion workloads, timed from outside.

Usage, from the root of a checkout:

    python3 bench/run.py --workload csv-to-net --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

``BENCHMARK.json`` lists the gated workloads, ``GATED``.  The other two,
``net-to-json`` and ``json-to-csv``, run the same way on request.

With ``--trace 0`` each invocation is a fresh ``python -m netconv.cli``
process run against the checkout's ``src``, one after another, until
``--seconds`` have passed.  The run reports the medians of wall time, CPU
time (user + system, from ``wait4``) and peak resident memory of those
processes, and ``setup_s``: the median wall time of a fresh interpreter
that imports ``netconv.cli`` and exits, sampled once after every
invocation.  With ``--trace 1`` it runs the traced in-process pipeline of
``layers.py`` instead and reports per-layer metrics.  Every output is
checked by ``check.py``; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Generated inputs live under ``.bench_work/`` and are removed after the run;
the spans of a traced run are kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

# Node counts; every workload has 4n links.  Sized so that one invocation
# takes about 1-3 s on a 2-core machine at the seed commit.
SIZES = {"csv-to-net": 4000, "net-to-json": 16000, "json-validate": 4000, "json-to-csv": 16000}
# The workloads BENCHMARK.json lists.  Together they run every module of
# netconv; fewer workloads leave each run more time, which steadies it.
GATED = ("csv-to-net", "json-validate")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
CHILD_TIMEOUT_S = 60


def argv(workload: str, d: Path) -> list[str]:
    """CLI arguments of one invocation; inputs in d, outputs in d/out."""
    out = d / "out"
    args = {
        "csv-to-net": ["convert", "--from", "csv", "--to", "net", "--nodes", d / "nodes.csv",
                       "--links", d / "links.csv", "-o", out / "out.net"],
        "net-to-json": ["convert", "-i", d / "in.net", "-o", out / "out.json"],
        "json-validate": ["validate", d / "in.json", "--level", "strict", "--report", "json"],
        "json-to-csv": ["convert", "-i", d / "in.json", "--to", "csv", "--nodes",
                        out / "out_nodes.csv", "--links", out / "out_links.csv"],
    }[workload]
    return [str(a) for a in args]


def spawn(args: list[str], outdir: Path, env: dict) -> tuple[int, float, float, int]:
    """Run one fresh interpreter to completion.

    Returns (exit status, wall s, user+sys CPU s, peak RSS KiB).  Standard
    output and error go to files in outdir; a child still running after
    CHILD_TIMEOUT_S is killed.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(outdir / name), flags, 0o644)
               for fd, name in ((1, "stdout"), (2, "stderr"))]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _digest(workload: str, status: int, outdir: Path) -> str:
    h = hashlib.sha256(str(status).encode())
    for name in check.OUTPUTS[workload]:
        path = outdir / name
        h.update(path.read_bytes() if path.exists() else b"\0missing")
    return h.hexdigest()


def run_end_to_end(workload: str, seed: int, seconds: float, work: Path, log):
    d = work / "in"
    facts = gen.generate(workload, seed, d, SIZES[workload])
    outdir = d / "out"
    outdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_args = ["-c", "import netconv.cli"]
    spawn(setup_args, outdir, env)  # compiles the bytecode once, as an install does
    verdicts: dict[str, str | None] = {}  # identical outputs get the same verdict
    walls, cpus, rss, setups = [], [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        check.clear(workload, outdir)
        status, wall, cpu, maxrss = spawn(["-m", "netconv.cli", *argv(workload, d)], outdir, env)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss / 1024)
        key = _digest(workload, status, outdir)
        if key not in verdicts:
            verdicts[key] = check.check(workload, status, outdir, facts)
        if verdicts[key]:
            failed += 1
            log(f"{workload}: invocation {len(walls)} rejected: {verdicts[key]}")
        setups.append(spawn(setup_args, outdir, env)[1])
    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss, "setup_s": setups}
    for name, values in samples.items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        log(f"{workload}: {name} median {statistics.median(values):.4f}"
            f" quartiles {q[0]:.4f}..{q[2]:.4f} over {len(values)} samples")
    log(f"{workload}: fail_ratio {failed / len(walls):.4f} ({failed} of {len(walls)})")
    metrics = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
    return metrics, len(walls), failed


def _layers():
    """The traced-run module; importing it imports netconv from the checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import layers

    return layers


def run_traced(workload: str, seed: int, seconds: float, work: Path, log):
    n = SIZES[workload]
    inputs = {}
    for factor in (1, 2):
        d = work / f"in{factor}"
        inputs[factor] = (d, gen.generate(workload, seed, d, factor * n))
    spans = work.parent / f"spans-{workload}-{seed}.jsonl"
    metrics, attempted, failed = _layers().measure(workload, inputs, argv, seconds, spans, log)
    log(f"{workload}: spans written to {spans}")
    return metrics, attempted, failed


def units(trace: int) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in _layers().metric_specs()}
    return dict(END_TO_END)


def run(workload: str, seed: int, seconds: float, trace: int, log) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = run_traced if trace else run_end_to_end
        values, attempted, failed = runner(workload, seed, seconds, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unit = units(trace)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit[name]} for name in unit},
    }


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="netconv CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*SIZES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(args)
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "netconv" / "cli.py").is_file():
        print(f"error: no netconv sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    if opts.workload != "all":
        result = run(opts.workload, opts.seed, opts.seconds, opts.trace, log)
        print(json.dumps(result))
        return 0
    correct = True
    for workload in SIZES:
        result = run(workload, opts.seed, opts.seconds, opts.trace, log)
        correct &= result["correct"]
        print(f"{workload}: fail_ratio {result['failed'] / result['attempted']:.4f}"
              f" ({result['failed']} of {result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"{workload}: {name} {m['value']:.6g} {m['unit']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
