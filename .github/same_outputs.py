"""Byte comparison of the CLI outputs of two source trees.

Run from the root of a checkout::

    python .github/same_outputs.py OLD_SRC NEW_SRC [INPUT ...]

Each source tree (a directory holding the ``netconv`` package) runs
``python -m netconv.cli`` on the same inputs, each run in a temporary
directory of its own. The inputs are the NET, CSV and NetsJSON files of
``tests/data``, the corrupt corpus in ``tests/data/corrupt``, the
``bench/gen.py`` inputs of every workload at seeds 1 and 2 with n=300, and
any further ``.net`` or ``.json`` file, or ``NODES.csv+LINKS.csv`` pair of
tables, named on the command line. On each input the runs are
``convert`` to csv, net and netsjson, each plain, with ``--factorize``,
with ``--factorize --base 0`` and with ``--defactorize``; ``validate``
at both levels; and ``info``. A run's exit status, standard output, standard error and
output files must be the same bytes under both trees. Each run that
differs is printed with what differs, then the total; the exit status is
1 when any run differs. Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, "bench")
import gen

DATA = Path("tests/data")
SEEDS = (1, 2)
N = 300
WORKERS = 4
CONVERSIONS = [(target, flags) for target in ("csv", "net", "netsjson")
               for flags in ([], ["--factorize"], ["--factorize", "--base", "0"], ["--defactorize"])]
OUTPUT = {"csv": ["--nodes", "out_nodes.csv", "--links", "out_links.csv"],
          "net": ["-o", "out.net"], "netsjson": ["-o", "out.json"]}


def runs(files: list[str]) -> list[list[str]]:
    """The CLI arguments of every run on one input: a .net or .json file,
    or a node table and a link table."""
    if len(files) == 2:  # csv tables; csv to csv is refused like any other run
        read = ["--from", "csv", "--nodes", files[0], "--links", files[1]]
        named = [files[0], "--links", files[1]]
        outputs = {**OUTPUT, "csv": []}
    else:
        read, named, outputs = ["-i", files[0]], [files[0]], OUTPUT
    out = [["convert", *read, "--to", target, *outputs[target], *flags]
           for target, flags in CONVERSIONS]
    out += [["validate", *named, "--level", level] for level in ("lenient", "strict")]
    return out + [["info", *named]]


def run(src: Path, paths: list[Path], args: list[str]) -> tuple:
    """Exit status, standard output, standard error and the output files
    (name -> bytes) of one run, in a fresh directory holding the inputs."""
    with tempfile.TemporaryDirectory() as d:
        for path in paths:
            shutil.copyfile(path, Path(d) / path.name)
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "netconv.cli", *args], cwd=d, env=env,
                              capture_output=True, timeout=60)
        inputs = {path.name for path in paths}
        files = {p.name: p.read_bytes() for p in sorted(Path(d).iterdir()) if p.name not in inputs}
        return done.returncode, done.stdout, done.stderr, files


def inputs(work: Path, extra: list[str]) -> dict[str, list[Path]]:
    """Each input's label and its files; the generated ones are written under ``work``."""
    found = {p.name: [p] for p in sorted(DATA.glob("*.net")) + sorted(DATA.glob("*.json"))}
    found["bibNodes.csv+bibLinks.csv"] = [DATA / "bibNodes.csv", DATA / "bibLinks.csv"]
    found.update({f"corrupt/{p.name}": [p] for p in sorted((DATA / "corrupt").glob("*.json"))})
    for workload in gen.GENERATORS:
        for seed in SEEDS:
            d = work / f"{workload}-{seed}"
            d.mkdir()
            gen.generate(workload, seed, d, N)
            tables = [d / "nodes.csv", d / "links.csv"]
            files = tables if tables[0].exists() else [next(d.glob("in.*"))]
            found[f"{workload} seed {seed}"] = files
    found.update({arg: [Path(path) for path in arg.split("+")] for arg in extra})
    return found


def compare(old: Path, new: Path, label: str, paths: list[Path], args: list[str]) -> str:
    """What differs between the two trees' runs, as one line; empty when nothing."""
    a, b = run(old, paths, args), run(new, paths, args)
    parts = [part for part, x, y in zip(("status", "stdout", "stderr"), a, b) if x != y]
    parts += [f"file {name}" for name in sorted(a[3].keys() | b[3].keys())
              if a[3].get(name) != b[3].get(name)]
    return f"{label}: {' '.join(args)}: {', '.join(parts)}" if parts else ""


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.exit(__doc__)
    old, new = (Path(p).resolve() for p in argv[:2])
    with tempfile.TemporaryDirectory() as work:
        jobs = [(label, files, args) for label, files in inputs(Path(work), argv[2:]).items()
                for args in runs([p.name for p in files])]
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda job: compare(old, new, *job), jobs))
    differ = [line for line in results if line]
    for line in differ:
        print(line)
    print(f"{len(jobs)} runs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
