"""Growth of the Python call count of each CLI workload when its input doubles.

Run from the root of a checkout with ``PYTHONPATH=src``. For each
``bench/run.py`` workload it writes the seed-1 ``bench/gen.py`` inputs at
5,000 and 10,000 nodes, runs ``cli.main`` on them in process under
``cProfile`` and prints both ``total_calls`` and their ratio. One more case
reaches a checker's error path, which the well-formed workloads never do:
``validate`` on a document whose one tq holds 1,000, then 2,000, disjoint
triples with the first two swapped (exit 1, ``tq-unsorted``). It exits 1
when a ratio is over 2.1, which marks work per record that grows with the
input. Call counts, unlike timings, do not drift with the machine; they vary
by a few calls between runs (sets are hash-seeded), so only the ratio is
gated. Work inside a C builtin makes no Python calls, so this check cannot
see it.
"""

import contextlib
import cProfile
import functools
import io
import json
import pstats
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, "bench")
import gen
import run

from netconv import cli

SIZES = (5000, 10000)
TQ_SIZES = (1000, 2000)
BOUND = 2.1


def profiled_calls(argv: list[str], expected: int, label: str) -> tuple[int, str]:
    """Python calls made by one in-process CLI run, and its standard error."""
    profile = cProfile.Profile()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = profile.runcall(cli.main, argv)
    if status != expected:
        sys.exit(f"{label} exited {status}, not {expected}")
    return pstats.Stats(profile).total_calls, err.getvalue()


def total_calls(workload: str, n: int, d: Path) -> int:
    """Python calls made by one in-process CLI run on the size-n input."""
    gen.generate(workload, 1, d, n)
    (d / "out").mkdir()
    return profiled_calls(run.argv(workload, d), 0, f"{workload} at {n:,} nodes")[0]


def unsorted_tq_calls(k: int, d: Path) -> int:
    """Python calls of ``validate`` on one tq of k disjoint triples, the first two swapped."""
    tq = [[2 * i, 2 * i + 1, i] for i in range(k)]
    tq[0], tq[1] = tq[1], tq[0]
    path = d / "unsorted.json"
    path.write_text(json.dumps({"netsJSON": "basic", "nodes": [{"id": "a", "tq": tq}], "links": []}))
    label = f"validate of an unsorted tq of {k:,} triples"
    calls, err = profiled_calls(["validate", str(path)], 1, label)
    if "[tq-unsorted]" not in err:
        sys.exit(f"{label} reported no tq-unsorted")
    return calls


def growth(name: str, count, sizes: tuple[int, int], unit: str) -> float:
    with tempfile.TemporaryDirectory() as small, tempfile.TemporaryDirectory() as large:
        counts = [count(n, Path(d)) for n, d in zip(sizes, (small, large))]
    ratio = counts[1] / counts[0]
    print(f"{name}: {counts[0]:,} calls at {sizes[0]:,} {unit}, {counts[1]:,} at"
          f" {sizes[1]:,}, ratio {ratio:.3f} (bound {BOUND})")
    return ratio


if __name__ == "__main__":
    ratios = [growth(w, functools.partial(total_calls, w), SIZES, "nodes") for w in run.SIZES]
    ratios.append(growth("validate-unsorted-tq", unsorted_tq_calls, TQ_SIZES, "triples"))
    sys.exit(any(ratio > BOUND for ratio in ratios))
