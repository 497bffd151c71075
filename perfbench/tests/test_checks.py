"""The benchmark's own tests: its output check accepts a true run and
rejects wrong answers.

Run from the root of a checkout (builds the driver on first use):

    python3 -m unittest discover -s perfbench/tests -v
"""
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        proc = subprocess.run([sys.executable, RUN, "--self-test"], cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        cls.returncode = proc.returncode
        cls.output = proc.stdout + proc.stderr

    def expect_pass(self, line):
        self.assertIn("pass: " + line, self.output, self.output)

    def test_true_outputs_are_accepted(self):
        self.expect_pass("true outputs are accepted")

    def test_read_count_off_by_one_is_rejected(self):
        self.expect_pass("one read count off is rejected")

    def test_missing_key_is_rejected(self):
        self.expect_pass("one missing key is rejected")

    def test_durable_run_recovers_from_disk(self):
        self.expect_pass("durable cluster run and recovery pass the check")

    def test_self_test_exits_zero(self):
        self.assertEqual(self.returncode, 0, self.output)


if __name__ == "__main__":
    unittest.main()
