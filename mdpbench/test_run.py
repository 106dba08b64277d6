"""The benchmark's own test: the smoke mode of run.py end to end.

    python3 -m unittest discover -s mdpbench

Builds the tools (incrementally), generates small inputs for all three
workloads, makes one CLI run, one --verify and one traced pass each, and
checks the result line.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


class SmokeTest(unittest.TestCase):
    def test_smoke_mode_passes_every_check(self):
        proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        for name in ("ilt_flat", "contact_flat", "hier_revision"):
            self.assertTrue(any(line.startswith(f"smoke {name}:")
                                for line in lines), name)
            self.assertGreater(result["metrics"][f"{name}.shots"]["value"], 0)

    def test_missing_workload_is_a_usage_error(self):
        proc = subprocess.run([sys.executable, str(RUN), "--seed", "1"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
