#!/usr/bin/env python3
"""Tests for bench_smoke_summary.py: the fold, every gate, the refusal of an
unchanged --out, and the round trip of a bench's records through
`bulkdel_tracecat --reports`.

Usage: bench_smoke_summary_test.py BULKDEL_TRACECAT BENCH_BINARY
(BENCH_BINARY is any bench_* whose table mixes report-carrying cells with
cells that are not one statement, e.g. bench_ablation_reorg.)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SUMMARY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "bench_smoke_summary.py")
TRACECAT = BENCH = None


def record(bench="fig7_vary_deletes", series="bulk delete", x="15%",
           backend="sim", wall=100, sim=1000, **extra):
    return {"bench": bench, "series": series, "x": x,
            "scale": {"tuples": 1000, "tuple_size": 256,
                      "memory_bytes": 65536, "threads": 1,
                      "backend": backend},
            "sim_micros": sim, "wall_micros": wall,
            "io": {"reads": sim // 10, "writes": 1}, "extra": extra}


def loadgen(**override):
    run = {"backend": "sim", "clients": 4, "elapsed_s": 1.0,
           "total_ops_per_sec": 500.0, "errors": 0,
           "metrics": {"wal.fsyncs": 3},
           "op_classes": {"insert": {"ops": 10, "ops_per_sec": 10.0,
                                     "p50_us": 5, "p99_us": 9,
                                     "p999_us": 12}}}
    run.update(override)
    return run


class SummaryTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.out = self.path("out.json")

    def tearDown(self):
        self.dir.cleanup()

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def write(self, name, records=None, loadgen_run=None):
        with open(self.path(name), "w") as f:
            if loadgen_run is not None:
                json.dump(loadgen_run, f, indent=2)
            for r in records or []:
                f.write(json.dumps(r) + "\n")
        return self.path(name)

    def fold(self, *args):
        return subprocess.run([sys.executable, SUMMARY, *args],
                              capture_output=True, text=True)

    def entries(self):
        with open(self.out) as f:
            return [json.loads(line) for line in f]

    def test_median_min_max_over_repeated_records(self):
        trace = self.write("t.jsonl", [
            record(sim=3000), record(sim=1000), record(sim=2000, ratio=7),
            record(x="20%", sim=9000)])
        run = self.fold(f"--out={self.out}", "--commit=abc", trace)
        self.assertEqual(run.returncode, 0, run.stderr)
        [entry] = self.entries()
        self.assertEqual(entry["commit"], "abc")
        by_x = {r["x"]: r for r in entry["records"]}
        self.assertEqual(by_x["15%"]["n"], 3)
        self.assertEqual(by_x["15%"]["stats"]["sim_micros"], [2000, 1000, 3000])
        self.assertEqual(by_x["15%"]["stats"]["io.reads"], [200, 100, 300])
        self.assertEqual(by_x["15%"]["stats"]["extra.ratio"], [7, 7, 7])
        self.assertEqual(by_x["20%"]["n"], 1)
        self.assertEqual(by_x["20%"]["scale"]["backend"], "sim")

    def test_loadgen_summary_becomes_records(self):
        run = self.fold(f"--out={self.out}",
                        self.write("l.json", loadgen_run=loadgen()))
        self.assertEqual(run.returncode, 0, run.stderr)
        [folded] = self.entries()[0]["records"]
        self.assertEqual((folded["bench"], folded["series"], folded["x"]),
                         ("server", "sim", "insert"))
        self.assertEqual(folded["stats"]["extra.p999_us"], [12, 12, 12])
        self.assertEqual(folded["stats"]["extra.wal_fsyncs"], [3, 3, 3])

    def assert_refused(self, *args):
        if os.path.exists(self.out):
            os.remove(self.out)
        run = self.fold(f"--out={self.out}", *args)
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertFalse(os.path.exists(self.out))

    def test_every_gate_fires(self):
        op = loadgen()["op_classes"]["insert"]
        broken = {
            "predicate ratio < 5": [record(
                "ablation_predicate", "range plan", ratio=4.9)],
            "predicate ratio missing": [record(
                "ablation_predicate", "range plan")],
            "cascade ratio < 1.05": [record(
                "ablation_cascade", "shared-sort", ratio=1.04)],
        }
        for name, records in broken.items():
            with self.subTest(name):
                self.assert_refused(self.write("b.jsonl", records))
        for name, run in {
                "op class ran zero ops": loadgen(op_classes={
                    "insert": dict(op, ops=0)}),
                "no total_ops_per_sec": {
                    k: v for k, v in loadgen().items()
                    if k != "total_ops_per_sec"},
                "errors > 0": loadgen(errors=2),
                **{f"no {q}": loadgen(op_classes={"insert": {
                    k: v for k, v in op.items() if k != q}})
                   for q in ("p50_us", "p99_us", "p999_us")}}.items():
            with self.subTest(name):
                self.assert_refused(self.write("l.json", loadgen_run=run))
        with self.subTest("no file-backed record"):
            self.assert_refused("--require-file-backend",
                                self.write("s.jsonl", [record()]))
        with self.subTest("file-backed record without wall time"):
            self.assert_refused("--require-file-backend", self.write(
                "f.jsonl", [record(backend="file", wall=0)]))
        with self.subTest("missing input"):
            self.assert_refused(self.path("absent.jsonl"))
        with self.subTest("empty input"):
            self.assert_refused(self.write("empty.jsonl", []))
        # The same records, unbroken, pass.
        run = self.fold(f"--out={self.out}", "--require-file-backend",
                        self.write("ok.jsonl", [
                            record("ablation_predicate", "range plan",
                                   ratio=5.0),
                            record("ablation_cascade", "shared-sort",
                                   ratio=1.05),
                            record(backend="file", wall=5)]),
                        self.write("ok.json", loadgen_run=loadgen()))
        self.assertEqual(run.returncode, 0, run.stderr)

    def test_unchanged_out_is_refused(self):
        run = subprocess.run(
            [sys.executable, SUMMARY, "--out=/dev/null",
             self.write("t.jsonl", [record()])],
            capture_output=True, text=True)
        self.assertEqual(run.returncode, 1)
        self.assertIn("unchanged", run.stderr)

    def test_bench_records_round_trip_through_tracecat(self):
        trace = self.path("bench.jsonl")
        subprocess.run([BENCH, "--tuples=2000", f"--trace-out={trace}"],
                       check=True, capture_output=True)
        with open(trace) as f:
            records = [json.loads(line) for line in f]
        reports = [r for r in records if "strategy" in r]
        self.assertTrue(reports)
        self.assertLess(len(reports), len(records))
        for r in records:
            self.assertEqual(r["sim_micros"], r["io"]["simulated_micros"])
            self.assertEqual(r["scale"]["tuples"], 2000)
        cat = subprocess.run([TRACECAT, f"--reports={trace}"],
                             capture_output=True, text=True, check=True)
        self.assertIn(f"({len(reports)} reports from", cat.stdout)
        self.assertNotIn("skipping", cat.stderr)
        run = self.fold(f"--out={self.out}", trace)
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertEqual(len(self.entries()[0]["records"]), len(records))


if __name__ == "__main__":
    TRACECAT, BENCH = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
