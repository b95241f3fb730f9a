"""simbench's own tests. From the repository root:

    python3 -m unittest discover -s simbench -p 'test_*.py'

The input-generation test builds simbench first (about a minute on a
fresh checkout).
"""

import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402


def cost(calls, ns):
    return {"calls": calls, "ns": ns}


def stats(**over):
    s = {"insts": 1000, "records": 300, "vm_lookups": 400,
         "vm_inserts": 50, "vm_walks": 20, "cache_l1": 300,
         "cache_l2": 120, "cache_l2_wb": 10, "org_l3": 100,
         "dram_in": 150, "dram_off": 30}
    s.update(over)
    return s


def replay(**over):
    r = {"trace_next": cost(300, 3000.0),      # 10 ns per record
         "vm_lookup": cost(400, 2000.0),       # 5 ns
         "vm_insert": cost(50, 1000.0),        # 20 ns
         "cache_access": cost(420, 8400.0),    # 20 ns
         "org_access": cost(100, 6000.0),      # 60 ns
         "org_miss": cost(20, 2000.0),         # 100 ns
         "org_writeback": cost(8, 400.0),      # 400 ns over 10 wb
         "dram_access": cost(120, 3600.0),     # 30 ns
         "counts": {"records": 300, "vm_lookups": 400, "cache": 420,
                    "org_l3": 100, "l2_wb": 10, "dram": 180}}
    r.update(over)
    return r


class LedgerTest(unittest.TestCase):
    def test_terms_are_ns_per_call_times_calls_per_inst(self):
        led = ledger.build_ledger(50.0, stats(), replay())
        t = led["terms"]
        self.assertAlmostEqual(t["trace"], 10 * 300 / 1000)
        self.assertAlmostEqual(t["vm"], (5 * 400 + 20 * 50) / 1000)
        self.assertAlmostEqual(t["cache"], 20 * 420 / 1000)
        dram = 30 * 180 / 1000
        self.assertAlmostEqual(t["dram"], dram)
        org = (60 * 100 + 100 * 20 + 40 * 10) / 1000
        self.assertAlmostEqual(t["dramcache"], org - dram)
        self.assertEqual(led["unresolved"], [])

    def test_terms_and_residual_sum_to_untraced(self):
        led = ledger.build_ledger(50.0, stats(), replay())
        total = sum(led["terms"].values()) + led["residual"]
        self.assertAlmostEqual(total, 50.0, places=12)
        # A negative residual is reported, not hidden.
        led = ledger.build_ledger(1.0, stats(), replay())
        self.assertLess(led["residual"], 0.0)

    def test_count_mismatch_leaves_layer_unresolved(self):
        r = replay()
        r["counts"] = dict(r["counts"], vm_lookups=450)  # 12.5% off
        led = ledger.build_ledger(50.0, stats(), r)
        self.assertEqual(led["unresolved"], ["vm"])
        self.assertNotIn("vm", led["terms"])
        self.assertAlmostEqual(
            sum(led["terms"].values()) + led["residual"], 50.0)

    def test_unresolved_dram_also_unresolves_dramcache(self):
        r = replay()
        r["counts"] = dict(r["counts"], dram=100)
        led = ledger.build_ledger(50.0, stats(), r)
        self.assertEqual(sorted(led["unresolved"]), ["dram", "dramcache"])

    def test_within_tolerance_is_resolved(self):
        r = replay()
        r["counts"] = dict(r["counts"], cache=421)  # 0.24% off
        led = ledger.build_ledger(50.0, stats(), r)
        self.assertEqual(led["unresolved"], [])


class CompareTest(unittest.TestCase):
    SPEC = {"end_to_end": [
        {"name": "kips", "better": "higher", "bound": 0.1},
        {"name": "sim_ipc", "better": "higher", "bound": 0.1}]}

    def row(self, seed, kips, cpu="cpu A", ipc=0.5):
        return {"workload": "w", "seed": seed, "trace": 0,
                "correct": True, "fingerprint": {"cpu_model": cpu},
                "metrics": {"kips": kips, "sim_ipc": ipc}}

    def test_refuses_mismatched_fingerprints(self):
        base = [self.row(1, 100.0), self.row(2, 101.0)]
        new = [self.row(1, 100.0, cpu="cpu B")]
        _, refused, _ = compare.compare(base, new, self.SPEC)
        self.assertTrue(refused)

    def test_flags_regression_and_model_change(self):
        base = [self.row(s, 100.0 + s) for s in range(1, 6)]
        new = [self.row(s, 80.0, ipc=0.6) for s in range(1, 6)]
        lines, refused, worse = compare.compare(base, new, self.SPEC)
        self.assertFalse(refused)
        self.assertTrue(worse)
        self.assertIn("worse", lines[0])
        self.assertIn("model-changed", lines[1])


class SeededInputTest(unittest.TestCase):
    """Same seed, byte-identical trace; another seed, another trace."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.mkdtemp(prefix="simbench-test-",
                                   dir=run.BUILD)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def gen(self, workload, seed, name):
        out = os.path.join(self.tmp, name)
        subprocess.run([run.BINARY, "gen", "--workload", workload,
                        "--seed", str(seed), "--out", out], check=True,
                       stdout=subprocess.DEVNULL)
        return out

    def test_seed_determines_trace_bytes(self):
        for w in ("stream-libquantum", "orgs-mix5"):
            a = self.gen(w, 7, w + "-a")
            b = self.gen(w, 7, w + "-b")
            c = self.gen(w, 8, w + "-c")
            self.assertTrue(filecmp.cmp(a, b, shallow=False), w)
            self.assertFalse(filecmp.cmp(a, c, shallow=False), w)


if __name__ == "__main__":
    unittest.main()
