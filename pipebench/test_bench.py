#!/usr/bin/env python3
"""The benchmark's own tests: python3 pipebench/test_bench.py

Builds fstg and pipebench first if needed (like run.py). The two catalog
tests run real, short serve-mixed and sim-large runs, so the whole file
takes about a minute on a 4-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

RUN_PY = os.path.join(run.HERE, "run.py")


def bench(*argv):
    """Run run.py; returns (exit code, last stdout line as JSON or None)."""
    out = subprocess.run([sys.executable, RUN_PY] + list(argv), cwd=run.ROOT,
                         capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1])
    except (ValueError, IndexError):
        return out.returncode, None


class CatalogTest(unittest.TestCase):
    def check_names(self, result, trace):
        catalog = run.load_catalog()
        section = catalog["per_layer"] if trace else catalog["end_to_end"]
        want = {m["name"]: m["unit"] for m in section}
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         want)

    def test_end_to_end_names_match_catalog(self):
        rc, result = bench("--workload", "serve-mixed", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(rc, 0)
        self.check_names(result, trace=0)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_per_layer_names_match_catalog(self):
        rc, result = bench("--workload", "sim-large", "--seed", "1",
                           "--seconds", "1", "--trace", "1")
        self.assertEqual(rc, 0)
        self.check_names(result, trace=1)

    def test_time_outside_the_layer_spans_fails(self):
        ctx = type("Ctx", (), {})()
        ctx.checks = run.Checks()
        run.check_attribution(ctx, {"trace.unattributed_s": 0.01,
                                    "trace.wall_s": 10.0})
        self.assertEqual(ctx.checks.failed, 0)
        run.check_attribution(ctx, {"trace.unattributed_s": 1.0,
                                    "trace.wall_s": 10.0})
        self.assertEqual(ctx.checks.failed, 1)

    def test_assemble_refuses_a_missing_metric(self):
        catalog = run.load_catalog()
        values = {m["name"]: 1.0 for m in catalog["end_to_end"]}
        run.assemble(catalog, 0, values)
        del values["wall_s"]
        with self.assertRaises(run.BenchError):
            run.assemble(catalog, 0, values)


class CorruptionTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fstg, cls.tool = run.build()
        cls.golden = run.load_golden()
        cls.dir = tempfile.mkdtemp(prefix="pipebench-test-")
        for c in ("lion", "rie"):
            subprocess.run([cls.fstg, "gen", c, "-o",
                            os.path.join(cls.dir, c + ".tst")], check=True,
                           stderr=subprocess.DEVNULL)
        cls.coverage = subprocess.run(
            [cls.fstg, "sim", "rie", os.path.join(cls.dir, "rie.tst")],
            check=True, capture_output=True, text=True).stdout

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def test_pristine_outputs_pass(self):
        checks = run.Checks()
        run.check_gen_files(checks, self.golden, self.dir, ["lion", "rie"])
        run.check_coverage_text(checks, self.golden, "rie", self.coverage)
        notes = {}
        run.run_check_gen(checks, self.golden, self.tool, self.dir,
                          ["lion", "rie"], 1, notes)
        run.run_check_sim(checks, self.tool, self.dir, ["rie"], 1)
        self.assertEqual(checks.failed, 0)

    def test_corrupted_test_file_is_caught(self):
        path = os.path.join(self.dir, "lion.tst")
        with open(path) as f:
            pristine = f.read()
        # Flip one input bit of the first test: still a well-formed file.
        lines = pristine.splitlines(keepends=True)
        i = next(k for k, line in enumerate(lines)
                 if line[:1] in "01" and " " in line)
        head, rest = lines[i].split(" ", 1)
        lines[i] = head + " " + ("1" if rest[0] == "0" else "0") + rest[1:]
        try:
            with open(path, "w") as f:
                f.write("".join(lines))
            checks = run.Checks()
            run.check_gen_files(checks, self.golden, self.dir, ["lion"])
            self.assertEqual(checks.failed, 1)
        finally:
            with open(path, "w") as f:
                f.write(pristine)

    def test_corrupted_coverage_line_is_caught(self):
        bad = self.coverage.replace("detectable coverage 100.00%",
                                    "detectable coverage 99.99%", 1)
        self.assertNotEqual(bad, self.coverage)
        checks = run.Checks()
        cov = run.check_coverage_text(checks, self.golden, "rie", bad)
        self.assertEqual(cov, 99.99)
        self.assertEqual(checks.failed, 2)  # digest and the 100% claim

    def test_truncated_test_file_fails_library_checks(self):
        path = os.path.join(self.dir, "rie.tst")
        with open(path) as f:
            pristine = f.read()
        try:
            with open(path, "w") as f:
                f.write(pristine[: len(pristine) // 2])
            checks = run.Checks()
            run.run_check_gen(checks, self.golden, self.tool, self.dir,
                              ["rie"], 1, {})
            self.assertGreater(checks.failed, 0)
        finally:
            with open(path, "w") as f:
                f.write(pristine)


class StreamTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, cls.tool = run.build()

    def stream(self, seed):
        return subprocess.run([self.tool, "stream", "--seed", str(seed)],
                              check=True, capture_output=True,
                              text=True).stdout.splitlines()

    def test_same_seed_same_stream(self):
        self.assertEqual(self.stream(7), self.stream(7))
        self.assertNotEqual(self.stream(7), self.stream(8))

    def test_stream_mix(self):
        items = [line.split() for line in self.stream(7)]
        self.assertEqual(len(items), 128)
        circuits = run.serve_circuits(self.tool)
        self.assertEqual(len(circuits), 8)
        gens = [i for i in items if i[1] == "gen"]
        sims = [i for i in items if i[1] == "sim"]
        self.assertEqual(len(gens), len(sims))
        self.assertEqual(sum(1 for i in sims if i[3] == "1"), len(sims) // 2)
        # Every block of 16 asks each circuit once for a gen and a sim.
        for b in range(0, len(items), 16):
            block = items[b:b + 16]
            for kind in ("gen", "sim"):
                self.assertEqual(sorted(i[2] for i in block if i[1] == kind),
                                 circuits)


class PinTest(unittest.TestCase):
    @staticmethod
    def doc(**cycles):
        return {c: {"cycles": n, "per_transition_cycles": 67}
                for c, n in cycles.items()}

    def test_pin_keeps_or_tightens_the_known_list(self):
        known = {"shiftreg": 69}
        self.assertEqual(run.pinned_cycles(
            known, self.doc(shiftreg=69, lion=60), ["shiftreg", "lion"]),
            ({"shiftreg": 69}, []))
        self.assertEqual(run.pinned_cycles(
            known, self.doc(shiftreg=68), ["shiftreg"]), ({"shiftreg": 68}, []))
        self.assertEqual(run.pinned_cycles(
            known, self.doc(shiftreg=60), ["shiftreg"]), ({}, []))

    def test_pin_refuses_a_new_or_grown_excess(self):
        known = {"shiftreg": 69}
        _, grown = run.pinned_cycles(known, self.doc(shiftreg=70),
                                     ["shiftreg"])
        self.assertEqual(grown, ["shiftreg 70 > 69"])
        _, grown = run.pinned_cycles(known, self.doc(lion=68), ["lion"])
        self.assertEqual(grown, ["lion 68 > 67"])


class StampTest(unittest.TestCase):
    def test_git_rev_names_the_binary_sources(self):
        d = tempfile.mkdtemp(prefix="pipebench-stamp-")
        try:
            src = os.path.join(d, "src")
            os.makedirs(os.path.join(src, "src"))
            with open(os.path.join(src, "CMakeLists.txt"), "w") as f:
                f.write("project(fstg)\n")
            bdir = os.path.join(d, "build", "tools")
            os.makedirs(bdir)
            with open(os.path.join(d, "build", "CMakeCache.txt"), "w") as f:
                f.write("fstg_SOURCE_DIR:STATIC=%s\n" % src)
            st = run.stamp(os.path.join(bdir, "fstg"))
            self.assertEqual(st["git_rev"], run.source_rev(src))
            self.assertNotEqual(st["git_rev"], run.source_rev(run.ROOT))
            self.assertEqual(st["git_rev_of"], "binary build tree")
            st = run.stamp(os.path.join(d, "elsewhere", "fstg"))
            self.assertEqual(st["git_rev"], run.source_rev(run.ROOT))
            self.assertIn("no build tree", st["git_rev_of"])
        finally:
            shutil.rmtree(d)


class CompareTest(unittest.TestCase):
    def write_log(self, path, nproc):
        st = {"nproc": nproc, "cpu": "x", "build_type": "RelWithDebInfo",
              "compiler": "c++", "git_rev": "r", "fstg": "/f"}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        with open(path, "w") as f:
            f.write(json.dumps({"workload": "sim-large", "seed": 1,
                                "trace": 0, "stamp": st,
                                "result": result}) + "\n")

    def test_refuses_different_stamps(self):
        d = tempfile.mkdtemp(prefix="pipebench-cmp-")
        try:
            a, b = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            self.write_log(a, 4)
            self.write_log(b, 4)
            self.assertEqual(run.main(["compare", a, b]), 0)
            self.write_log(b, 8)
            self.assertEqual(run.main(["compare", a, b]), 2)
        finally:
            shutil.rmtree(d)


class NoSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_the_repository(self):
        d = tempfile.mkdtemp(prefix="pipebench-bare-")
        try:
            shutil.copy(run.CATALOG_PATH, d)
            shutil.copytree(run.HERE, os.path.join(d, "pipebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "pipebench/run.py",
                                  "--workload", "sim-large", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"], cwd=d,
                                 capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
