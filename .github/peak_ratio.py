"""Peak memory of two CLI runs against the floor of the data they hold.

Run from the root of a checkout with ``PYTHONPATH=src``. On the 2*10^4-node
``bench/gen.py`` inputs at seed 1 it prints two ratios and exits 1 when one
is over its bound:

- ``validate`` over ``json.loads`` of the same document, at most 1.5;
- ``convert --from csv --to net`` over ``csv.reader`` holding both tables
  as lists, at most 1.95.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "bench")
import gen


def peak_mib(*args: str) -> float:
    """Peak RSS of one child process, measured in a fresh wrapper process."""
    probe = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", probe, sys.executable, *args],
                         check=True, capture_output=True, text=True).stdout
    return int(out) / 1024


def validate_ratio(d: Path) -> float:
    gen.generate("json-validate", 1, d, 20000)
    doc = str(d / "in.json")
    floor = peak_mib("-c", "import json, sys; json.loads(open(sys.argv[1]).read())", doc)
    validate = peak_mib("-m", "netconv.cli", "validate", doc, "--level", "strict")
    print(f"json.loads {floor:.1f} MiB, validate {validate:.1f} MiB, ratio {validate / floor:.2f}")
    return validate / floor


def convert_ratio(d: Path) -> float:
    gen.generate("csv-to-net", 1, d, 20000)
    nodes, links, out = (str(d / name) for name in ("nodes.csv", "links.csv", "out.net"))
    # both tables held at once as csv.reader's row lists
    read = ("import csv, sys; "
            "tables = [list(csv.reader(open(p, newline=''), delimiter=';')) for p in sys.argv[1:]]")
    floor = peak_mib("-c", read, nodes, links)
    convert = peak_mib("-m", "netconv.cli", "convert", "--from", "csv", "--to", "net",
                       "--nodes", nodes, "--links", links, "-o", out)
    print(f"csv.reader {floor:.1f} MiB, convert {convert:.1f} MiB, ratio {convert / floor:.2f}")
    return convert / floor


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        over = [validate_ratio(Path(a)) > 1.5, convert_ratio(Path(b)) > 1.95]
    sys.exit(any(over))
