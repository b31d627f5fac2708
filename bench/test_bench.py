"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

They use small networks, so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import random
import re
import string
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SMALL = {name: 40 for name in run.SIZES}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


@pytest.mark.parametrize("workload", list(run.SIZES))
def test_same_seed_same_input_bytes(workload, tmp_path):
    gen.generate(workload, 7, tmp_path / "a", 50)
    gen.generate(workload, 7, tmp_path / "b", 50)
    gen.generate(workload, 8, tmp_path / "c", 50)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_checker_does_not_import_netconv():
    code = "import sys; import check, gen; sys.exit('netconv' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)


def _cli_output(workload: str, d: Path) -> tuple[int, dict]:
    facts = gen.generate(workload, 3, d, 60)
    check.clear(workload, d / "out")
    env = {"PYTHONPATH": str(run.SRC)}
    status = run.spawn(["-m", "netconv.cli", *run.argv(workload, d)], d / "out", env)[0]
    return status, facts


def _mutants(data: bytes, count: int, rng: random.Random):
    """One-byte mutations: a letter or digit replaced by another of its kind."""
    spots = [i for i, b in enumerate(data) if chr(b).isalnum()]
    for i in rng.sample(spots, min(count, len(spots))):
        alphabet = string.digits if chr(data[i]).isdigit() else string.ascii_letters
        new = rng.choice(alphabet.replace(chr(data[i]), ""))
        yield data[:i] + new.encode() + data[i + 1:]


@pytest.mark.parametrize("workload", ["csv-to-net", "net-to-json", "json-to-csv"])
def test_checker_catches_one_byte_mutations(workload, tmp_path):
    status, facts = _cli_output(workload, tmp_path)
    out = tmp_path / "out"
    assert check.check(workload, status, out, facts) is None
    rng = random.Random(workload)
    for name in check.OUTPUTS[workload]:
        original = (out / name).read_bytes()
        for mutant in _mutants(original, 60, rng):
            (out / name).write_bytes(mutant)
            assert check.check(workload, status, out, facts), mutant
        (out / name).unlink()
        assert check.check(workload, status, out, facts)
        (out / name).write_bytes(original)
    assert check.check(workload, 2, out, facts)


def test_checker_catches_wrong_findings(tmp_path):
    status, facts = _cli_output("json-validate", tmp_path)
    out = tmp_path / "out"
    assert check.check("json-validate", status, out, facts) is None
    report = (out / "stderr").read_text()
    for rule in facts["planted"]:
        at = report.index(f'"{rule}"') + 2
        (out / "stderr").write_text(report[:at] + "X" + report[at + 1:])
        assert check.check("json-validate", status, out, facts)
    (out / "stderr").write_text(report.splitlines()[0] + "\n")  # a planted finding lost
    assert check.check("json-validate", status, out, facts)
    (out / "stderr").write_text(report)
    assert check.check("json-validate", 1, out, facts)
    (out / "stderr").unlink()
    assert check.check("json-validate", status, out, facts)


@pytest.fixture(scope="module")
def printed():
    """Metrics printed by one short run of every workload, traced and not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SIZES", SMALL)
        return {(w, t): run.run(w, 5, 0.2, t, lambda _: None) for w in SMALL for t in (0, 1)}


def test_runs_are_correct(printed):
    for result in printed.values():
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def test_metric_names_and_units(printed):
    for result in printed.values():
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert metric.keys() == {"value", "unit"} and metric["unit"], name
            assert isinstance(metric["value"], (int, float)), name


def test_benchmark_json_matches_printed_metrics(printed):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED)
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        for w in run.SIZES:
            shown = {name: m["unit"] for name, m in printed[(w, trace)]["metrics"].items()}
            assert shown == listed, (w, key)
