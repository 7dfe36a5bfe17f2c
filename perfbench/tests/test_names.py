"""BENCHMARK.json against the benchmark's metric table, and the stamp rule.

Run through `python3 perfbench/run.py --test` (which builds the binary
first), or directly with `python3 -m unittest discover -s perfbench/tests`
after a build.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)


class BenchmarkJsonMatchesTable(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        out = subprocess.run([run.BINARY, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        cls.table = json.loads(out)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def emitted(self, mode):
        return {m["name"]: m["unit"] for m in self.table if m["mode"] == mode}

    def test_every_emitted_name_is_declared_with_its_unit(self):
        self.assertEqual(self.emitted("end_to_end"), self.declared("end_to_end"))
        self.assertEqual(self.emitted("per_layer"), self.declared("per_layer"))

    def test_names_are_well_formed_and_used_once(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        for n in names:
            self.assertRegex(n, run.NAME_RE)
            self.assertLessEqual(len(n), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_every_layer_metric_names_what_it_should_move(self):
        # The target is a declared workload, or says that it is not one.
        workloads = [w["name"] for w in self.spec["workloads"]]
        for m in self.table:
            if m["mode"] == "per_layer":
                target = m["moves"].partition(" @ ")[2]
                self.assertTrue(
                    any(w in target for w in workloads)
                    or target.endswith("(not declared)"), m["name"])

    def test_undeclared_names_are_reported(self):
        result = {"metrics": {"tok_per_s": {}, "bogus metric": {}}}
        bad = run.undeclared(result, self.spec, trace=0)
        self.assertIn("bogus metric", bad)
        self.assertIn("missing:setup_s", bad)


class StampRule(unittest.TestCase):
    def test_only_the_commit_may_differ(self):
        a = {"nproc": 4, "isa": "avx2,fma", "build_type": "Release",
             "native_arch": False, "commit": "abc"}
        self.assertEqual(run.comparable(a, dict(a, commit="def")), [])
        self.assertEqual(run.comparable(a, dict(a, nproc=1)), ["nproc"])
        self.assertEqual(run.comparable(a, dict(a, native_arch=True)),
                         ["native_arch"])


if __name__ == "__main__":
    unittest.main()
