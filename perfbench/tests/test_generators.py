"""Generator checks: one seed always gives the same inputs, another seed
gives different inputs, and every seed gets the same frame plan. Builds the
benchmark host on first use (as run.py does).

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


def describe(workload, seed):
    out = subprocess.run([str(run.HOST), "--workload", workload, "--seed", str(seed),
                          "--describe"], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


class Generators(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check(self, workload):
        a1 = describe(workload, 1)
        a2 = describe(workload, 1)
        b = describe(workload, 2)
        self.assertEqual(a1, a2, "same seed, different inputs")
        self.assertNotEqual(a1["input_hash"], b["input_hash"], "seeds 1 and 2 gave equal inputs")
        self.assertEqual(a1["plan"], b["plan"], "frame plan depends on the seed")

    def test_scan_dense(self):
        self.check("scan_dense")

    def test_scan_sparse_faulted(self):
        self.check("scan_sparse_faulted")

    def test_linksim_per(self):
        self.check("linksim_per")


if __name__ == "__main__":
    unittest.main()
