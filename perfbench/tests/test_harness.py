"""Tests for the benchmark harness.

    python3 -m unittest discover -s perfbench/tests

The smoke test builds the programs and runs every workload once at
reduced size (about two minutes on two cores).
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import harness as h  # noqa: E402


class MetricNames(unittest.TestCase):
    def test_accepts_letters_digits_and_separators(self):
        for name in ("wall_s", "softcore.contended.minst_per_s", "fleet-chaos", "3x", "a" * 64):
            self.assertTrue(h.valid_name(name), name)

    def test_rejects_everything_else(self):
        for name in ("", "_x", ".x", "-x", "wall s", "wall/s", "wäll", "a" * 65, None, 7):
            self.assertFalse(h.valid_name(name), name)

    def test_benchmark_json_names_are_valid(self):
        cfg = h.load_config()
        self.assertEqual([w["name"] for w in cfg["workloads"]],
                         ["paper_full", "conform_quick"])
        self.assertEqual([m["name"] for m in cfg["end_to_end"]],
                         ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"])


class DigestCheck(unittest.TestCase):
    GOOD = b"==== Table 1 ====\nfactory 0.300 0.320\n"

    def proc(self, stdout, code=0):
        return h.Proc(1.0, 1.0, 1.0, [], code, stdout, b"")

    def test_accepts_the_recorded_output(self):
        self.assertEqual(h.check_repro("paper_full", self.proc(self.GOOD), h.digest(self.GOOD)), [])

    def test_rejects_a_corrupted_stdout(self):
        corrupted = self.GOOD.replace(b"0.300", b"0.301")
        problems = h.check_repro("paper_full", self.proc(corrupted), h.digest(self.GOOD))
        self.assertEqual(len(problems), 1)
        self.assertIn("digest", problems[0])

    def test_rejects_a_nonzero_exit(self):
        problems = h.check_repro("paper_full", self.proc(self.GOOD, code=1), h.digest(self.GOOD))
        self.assertIn("exit status 1", problems)

    def test_conform_needs_the_passed_gate(self):
        out = b"conformance report (quick mode): 57 metrics, 0 failing\nconformance gate: FAILED\n"
        problems = h.check_repro("conform_quick", self.proc(out), h.digest(out))
        self.assertTrue(any("PASSED" in p for p in problems), problems)

    def test_recorded_digests_cover_every_repro_workload(self):
        for workload, smoke in (("paper_full", False), ("paper_full", True),
                                ("conform_quick", False), ("conform_quick", True)):
            self.assertRegex(h.expected_digest(workload, smoke), "^[0-9a-f]{64}$")


def span(id, name, start, end, parent=None, extra=False):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "extra": extra}


class SelfTime(unittest.TestCase):
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and
    # [8, 12] (running past the root); [3.5, 4] is a grandchild.
    SPANS = [
        span(0, "analysis.study", 0.0, 10.0),
        span(1, "toolchain.profile.unit", 1.0, 3.0, parent=0),
        span(2, "toolchain.executor.run", 2.0, 5.0, parent=0),
        span(3, "softcore.run", 3.5, 4.0, parent=2),
        span(4, "fleet.campaign.screen", 8.0, 12.0, parent=0),
        span(5, "analysis.corpus", 12.0, 13.0),
        span(6, "toolchain.executor.chunk_loop", 13.0, 14.0, extra=True),
    ]

    def test_parent_minus_union_of_children(self):
        selfs = h.self_times(self.SPANS)
        self.assertAlmostEqual(selfs[0], 10.0 - (4.0 + 2.0))
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 0.5)
        self.assertAlmostEqual(selfs[3], 0.5)
        self.assertAlmostEqual(selfs[4], 4.0)

    def test_layers_sum_self_time_and_skip_extra_spans(self):
        layers = h.layer_self_times(self.SPANS)
        self.assertAlmostEqual(layers["analysis"], 4.0 + 1.0)
        self.assertAlmostEqual(layers["toolchain"], 2.0 + 2.5)
        self.assertAlmostEqual(layers["softcore"], 0.5)
        self.assertAlmostEqual(layers["fleet"], 4.0)
        self.assertAlmostEqual(sum(layers.values()), 14.0)

    def test_root_coverage_is_the_union_of_roots(self):
        self.assertAlmostEqual(h.root_coverage(self.SPANS), 10.0 + 1.0 + 1.0)


class Summary(unittest.TestCase):
    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(h.summarize(list(range(10)))["tail"])
        st = h.summarize([float(x) for x in range(22)])
        self.assertEqual(st["n"], 22)
        self.assertEqual(st["tail"], (100.0 * 12 / 22, 11.0))
        self.assertEqual(st["median"], 10.5)


class FleetInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(h.fleet_inputs(5, False), h.fleet_inputs(5, False))
        self.assertNotEqual(h.fleet_inputs(5, False), h.fleet_inputs(6, False))
        self.assertEqual(h.fleet_inputs(5, False)["cpus"], 52_000_000)


class StageDrift(unittest.TestCase):
    REPRO = [("[repro] campaign", 0.1), ("[repro] study", 1.0), ("[repro] eval", 21.0)]

    def replica(self, study_s, eval_s, lines=("[repro] campaign", "[repro] study",
                                                "[repro] eval")):
        times = [0.2, 1.1, 1.1 + study_s, 1.1 + study_s + eval_s]
        return list(zip(list(lines) + [h.REPLICA_DONE], times))

    def test_stages_split_at_each_announcement(self):
        self.assertEqual(h.stages(self.REPRO, 30.0),
                         [("[repro] campaign", 0.9), ("[repro] study", 20.0),
                          ("[repro] eval", 9.0)])

    def test_accepts_a_replica_within_the_tolerance(self):
        self.assertEqual(h.stage_drift(self.REPRO, 30.0, self.replica(22.0, 8.5)), [])

    def test_rejects_a_stage_that_drifted(self):
        # repro's evaluation got 4 s faster; the replica's did not.
        problems = h.stage_drift(self.REPRO, 26.0, self.replica(20.0, 9.0))
        self.assertEqual(len(problems), 1)
        self.assertIn("[repro] eval", problems[0])

    def test_rejects_different_announcements(self):
        replica = self.replica(20.0, 9.0, ("[repro] campaign", "[repro] study", "[repro] other"))
        self.assertIn("differ", h.stage_drift(self.REPRO, 30.0, replica)[0])

    def test_rejects_a_replica_that_never_ends(self):
        self.assertEqual(h.stage_drift(self.REPRO, 30.0, self.replica(20.0, 9.0)[:-1]),
                         ["the replica never announced its end"])


class Smoke(unittest.TestCase):
    def test_every_workload_runs_once_at_reduced_size(self):
        done = subprocess.run([sys.executable, str(h.BENCH_DIR / "run.py"), "--smoke"],
                              cwd=h.ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])
        self.assertIn("smoke: 6 of 6 runs correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
