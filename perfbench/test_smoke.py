"""Smoke test of the benchmark itself, at the smallest input sizes.

    python3 -m pytest perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

It checks that every workload prints every metric BENCHMARK.json names,
with its unit, in both modes; that a corrupted reference file is counted as
a failure (in this process, through ``run.check_reference``); and that the
benchmark refuses to run outside a sigcast checkout.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-smoke"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "0.3", "--tiny",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        SCRATCH.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_benchmark_json_matches_definitions(self):
        self.assertEqual(self.spec, run.benchmark_json())

    def test_every_metric_printed_with_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in (w["name"] for w in self.spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
                    result = result_of(proc)
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name, unit in wanted.items():
                        self.assertRegex(proc.stdout, rf"(?m)^{re.escape(name)} \S+ "
                                                      rf"{re.escape(unit)}$")

    def test_corrupted_reference_raises_fail_ratio(self):
        import workloads

        refdir = SCRATCH / "reference"
        shutil.copytree(HERE / "reference", refdir)
        table = refdir / "sweep" / "sweep.csv"
        lines = table.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = repr(float(fields[3]) * 1.01)
        lines[1] = ",".join(fields)
        table.write_text("\n".join(lines) + "\n")
        checks = run.Checks()
        run.check_reference(workloads.Sweep, refdir, SCRATCH / "work", checks)
        self.assertGreater(checks.failed / checks.attempted, 0)
        self.assertIn("reference sweep.csv: MISMATCH", checks.notes)

    def test_refuses_to_run_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "sweep", "--seed", "3", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
