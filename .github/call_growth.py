"""Growth of the Python call count of each CLI workload when its input doubles.

Run from the root of a checkout with ``PYTHONPATH=src``. For each
``bench/run.py`` workload it writes the seed-1 ``bench/gen.py`` inputs at
5,000 and 10,000 nodes, runs ``cli.main`` on them in process under
``cProfile`` and prints both ``total_calls`` and their ratio. It exits 1
when a ratio is over 2.1, which marks work per record that grows with the
input. Call counts, unlike timings, do not drift with the machine; they vary
by a few calls between runs (sets are hash-seeded), so only the ratio is
gated. Work inside a C builtin makes no Python calls, so this check cannot
see it.
"""

import contextlib
import cProfile
import io
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
BOUND = 2.1


def total_calls(workload: str, n: int, d: Path) -> int:
    """Python calls made by one in-process CLI run on the size-n input."""
    gen.generate(workload, 1, d, n)
    (d / "out").mkdir()
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = profile.runcall(cli.main, run.argv(workload, d))
    if status != 0:
        sys.exit(f"{workload} at {n} nodes exited {status}")
    return pstats.Stats(profile).total_calls


def growth(workload: str) -> float:
    with tempfile.TemporaryDirectory() as small, tempfile.TemporaryDirectory() as large:
        counts = [total_calls(workload, n, Path(d)) for n, d in zip(SIZES, (small, large))]
    ratio = counts[1] / counts[0]
    print(f"{workload}: {counts[0]:,} calls at {SIZES[0]:,} nodes, {counts[1]:,} at"
          f" {SIZES[1]:,}, ratio {ratio:.3f} (bound {BOUND})")
    return ratio


if __name__ == "__main__":
    ratios = [growth(workload) for workload in run.SIZES]
    sys.exit(any(ratio > BOUND for ratio in ratios))
