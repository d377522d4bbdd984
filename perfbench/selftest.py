#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at toy size, untraced and traced, and asserts that
each metric ``BENCHMARK.json`` declares is emitted by name with its
unit; that the output checks can fail (a wrong digest must give a
non-zero error rate); and that without the repo's sources the benchmark
exits non-zero and prints no result.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> "tuple[int, list[str]]":
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines: "list[str]") -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


class BenchmarkSelfTest(unittest.TestCase):
    def assert_emits(self, workload: str, trace: int, kind: str) -> None:
        code, lines = bench("--workload", workload, "--toy", "--trace", str(trace))
        self.assertEqual(code, 0)
        result = result_of(lines)
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        emitted = result["metrics"]
        self.assertEqual(set(emitted), set(declared))
        for name, unit in declared.items():
            self.assertEqual(emitted[name]["unit"], unit, name)
            self.assertIsInstance(emitted[name]["value"], (int, float), name)
        if kind == "end_to_end":
            for name, metric in emitted.items():
                self.assertGreater(metric["value"], 0, name)
        self.assertTrue(any(line.startswith("box ") for line in lines))

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in ("scaling", "grid", "daemon"):
            with self.subTest(workload=workload):
                self.assert_emits(workload, 0, "end_to_end")
                self.assert_emits(workload, 1, "per_layer")

    def test_a_wrong_digest_is_an_error(self):
        code, lines = bench("--workload", "scaling", "--toy",
                            "--expect-digest", "0000000000000000")
        self.assertEqual(code, 0)
        result = result_of(lines)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_no_sources_no_result(self):
        bare = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", "scaling", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
