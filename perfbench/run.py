#!/usr/bin/env python3
"""Cold-process benchmark of the reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # every workload once, reduced size
    python3 perfbench/run.py --write-doc    # WHERE_THE_TIME_GOES.md from traced runs

Workloads (closed loop: one client runs one job at a time, back to back;
every job uses two worker threads):

  paper_full     `repro all --threads 2`, a cold full regeneration of the paper
  conform_quick  `repro conform --quick --threads 2`, the conformance gate
  fleet_chaos    a 52M-CPU campaign under a fault plan, killed halfway
                 through and resumed from its checkpoint in a fresh process
                 (runs and is checked, but is not listed in BENCHMARK.json;
                 see harness.REPORT_ONLY)

With `--trace 0` every sample is a fresh, untraced process whose output is
checked; the end-to-end metrics are medians over the samples. With
`--trace 1` the workload runs once untraced, once as a traced replica whose
spans give per-layer self times, and the layer probes run in a process of
their own. The traced run fails when the replica's stages drift from those
of the untraced `repro` (harness.stage_drift) or its counts differ from an
earlier traced run of the same inputs and sources. The last stdout line is
the JSON result.
"""

import argparse
import json
import signal
import sys
import time

import harness as h
from harness import BenchError

# Set-up probes before each sample and again after the last one.
SETUP_PROBES = {"paper_full": 30, "conform_quick": 20, "fleet_chaos": 5}

LAYERS = ("toolchain", "fleet", "analysis", "farron", "ftol", "conformance")


# ------------------------------------------------------------ untraced


def sample(workload, inputs, reference, smoke):
    if workload == "fleet_chaos":
        return h.sample_fleet(inputs, reference)
    return h.sample_repro(workload, smoke)


def untraced(workload, seed, seconds, smoke=False):
    inputs = h.fleet_inputs(seed, smoke) if workload == "fleet_chaos" else None
    reference = h.fleet_reference(inputs) if inputs else None
    probes = 2 if smoke else SETUP_PROBES[workload]

    def setups():
        return [h.setup_time(workload, inputs, smoke) for _ in range(probes)]

    # Start-up costs milliseconds, so set-up probes run between the
    # samples and after the last one, to see the machine at several moments.
    setup, ok, failed, attempted = [], [], 0, 0
    start = time.perf_counter()
    while True:
        setup += setups()
        attempted += 1
        began = time.perf_counter()
        s = sample(workload, inputs, reference, smoke)
        if s.problems:
            failed += 1
            print(f"{workload}: sample {attempted} failed its check: {'; '.join(s.problems)}",
                  file=sys.stderr)
        else:
            ok.append(s)
        # Another sample only if one more of the same length still ends
        # within `seconds` (the first always runs).
        now = time.perf_counter()
        if smoke or now - start + (now - began) > seconds:
            break
    setup += setups()
    values = {
        "wall_s": [s.wall for s in ok],
        "cpu_s": [s.cpu for s in ok],
        "setup_s": setup,
        "peak_rss_mb": [s.rss_mb for s in ok],
    }
    return ok, attempted, failed, values, inputs


def e2e_metrics(values, units):
    print("  (closed loop: one client, one job at a time; median, quartiles, sample count)")
    metrics = {}
    for name, unit in units.items():
        xs = values.get(name) or []
        if not xs:
            continue
        st = h.summarize(xs)
        tail = ("" if st["tail"] is None
                else f"  p{st['tail'][0]:.0f} {st['tail'][1]:.6g} (10 samples beyond)")
        print(f"  {name:<14} median {st['median']:.6g} {unit}  q1 {st['q1']:.6g}  "
              f"q3 {st['q3']:.6g}  n={st['n']}{tail}")
        metrics[name] = {"value": st["median"], "unit": unit}
    return metrics


# -------------------------------------------------------------- traced


def load_trace(path):
    data = json.loads(path.read_text())
    return data["spans"], data["counts"]


def traced(workload, seed, smoke):
    """One untraced run (checked, for the overhead), the traced replica,
    then the layer probes. Returns (problems, attempted, report)."""
    problems, attempted = [], 2
    inputs = h.fleet_inputs(seed, smoke) if workload == "fleet_chaos" else None
    processes = []  # (spans, counts) of each traced workload process
    if workload == "fleet_chaos":
        ref_trace = h.scratch("trace-reference.json")
        reference = h.fleet_reference(inputs, ref_trace)
        base = h.sample_fleet(inputs, reference)
        kill, resume = h.scratch("trace-kill.json"), h.scratch("trace-resume.json")
        run = h.sample_fleet(inputs, reference, (kill, resume))
        traced_wall, problems = run.wall, run.problems
        processes = [load_trace(kill), load_trace(resume)]
        ref_spans, _ = load_trace(ref_trace)
    else:
        base = h.sample_repro(workload, smoke)
        out = h.scratch("trace-replica.json")
        name = "paper_quick" if smoke and workload == "paper_full" else workload
        p = h.run_measured([h.binary("perfbench"), "replica", name, "--trace-out", str(out)])
        traced_wall = p.wall
        if p.code != 0:
            problems.append(f"traced replica failed: {p.stderr.decode(errors='replace')}")
        else:
            processes = [load_trace(out)]
            problems += h.stage_drift(base.marks, base.wall, p.marks)
        ref_spans = []
    problems += base.problems

    probe_out = h.scratch("trace-probe.json")
    argv = [h.binary("perfbench"), "probe", "--trace-out", str(probe_out)]
    p = h.run_measured(argv + (["--stride", "16"] if smoke else []))
    if p.code != 0 or not processes:
        problems.append(f"probe failed: {p.stderr.decode(errors='replace')}")
        return problems, attempted, None
    probe_spans, probe_counts = load_trace(probe_out)

    spans_all = [s for spans, _ in processes for s in spans]
    counts = {}
    for _, c in processes:
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v
    layer_self = {}
    for spans, _ in processes:
        for layer, secs in h.layer_self_times(spans).items():
            layer_self[layer] = layer_self.get(layer, 0.0) + secs
    covered = sum(h.root_coverage(spans) for spans, _ in processes)
    extra = sum(s["end"] - s["start"] for s in spans_all if s["extra"] and s["parent"] is None)
    untraced_work = [s for s in spans_all if not s["extra"]]

    def total(name):
        return h.span_sum(untraced_work, name)

    def total_any(name):
        """Also counts the extra spans: warm re-runs and reference runs."""
        return h.span_sum(spans_all + ref_spans, name)

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    probe_self = h.self_times(probe_spans)
    softcore_self = {
        n: sum(probe_self[s["id"]] for s in probe_spans if s["name"] == f"softcore.{n}")
        for n in ("contended", "single")
    }
    per_layer = {
        "softcore.contended.minst_per_s": (rate(probe_counts["softcore.contended.steps"],
                                                softcore_self["contended"]) / 1e6, "Minst/s"),
        "softcore.single.minst_per_s": (rate(probe_counts["softcore.single.steps"],
                                             softcore_self["single"]) / 1e6, "Minst/s"),
        "softcore.steps": (probe_counts["softcore.contended.steps"]
                           + probe_counts["softcore.single.steps"], "count"),
        "toolchain.profile.unit_cold_s": (total("toolchain.profile.unit"), "s"),
        "toolchain.profile.unit_computed": (counts.get("toolchain.profile.unit_computed", 0), "count"),
        "toolchain.profile.unit_hits": (counts.get("toolchain.profile.unit_hits", 0), "count"),
        "toolchain.profile.unit_mt_s": (h.span_sum(probe_spans, "toolchain.profile.unit_mt.cold")
                                        - h.span_sum(probe_spans, "toolchain.profile.unit_mt.warm"), "s"),
        "toolchain.profile.unit_st_s": (h.span_sum(probe_spans, "toolchain.profile.unit_st.cold")
                                        - h.span_sum(probe_spans, "toolchain.profile.unit_st.warm"), "s"),
        "toolchain.executor.chunk_loop_s": (total_any("toolchain.executor.chunk_loop"), "s"),
        "fleet.population.sample_s": (total("fleet.population.sample"), "s"),
        "fleet.screening.suite_profile_s": (h.span_sum(probe_spans, "fleet.screening.suite_profile"), "s"),
        "fleet.screening.suite_computed": (counts.get("fleet.screening.suite_computed", 0), "count"),
        "fleet.screening.suite_hits": (counts.get("fleet.screening.suite_hits", 0), "count"),
        "fleet.campaign.screen_s": (total_any("fleet.campaign.screen"), "s"),
        "fleet.checkpoint.write_s": (max(0.0, total("fleet.campaign.until_kill")
                                         + total("fleet.checkpoint.resume")
                                         - total_any("fleet.campaign.screen"))
                                     if workload == "fleet_chaos" else 0.0, "s"),
        "fleet.checkpoint.load_s": (total("fleet.checkpoint.load"), "s"),
        "fleet.checkpoint.resume_s": (total("fleet.checkpoint.resume"), "s"),
        "fleet.checkpoint.bytes": (counts.get("fleet.checkpoint.bytes", 0), "bytes"),
        "fleet.campaign.slots": (counts.get("fleet.campaign.slots", 0), "count"),
        "fleet.supervisor.retries": (counts.get("fleet.supervisor.retries", 0), "count"),
        "fleet.supervisor.lost": (counts.get("fleet.supervisor.lost", 0), "count"),
        "analysis.study.cold_s": (total("analysis.study"), "s"),
        "analysis.corpus_s": (total("analysis.corpus"), "s"),
        "analysis.temperature.sweep_s": (total("analysis.temperature.sweep"), "s"),
        "farron.eval_s": (total("farron.eval"), "s"),
        "farron.online_s": (total("farron.online"), "s"),
        "conformance.metrics_s": (total("conformance.metrics"), "s"),
        "conformance.metamorphic_s": (total("conformance.metamorphic"), "s"),
        "conformance.oracle.streams_per_s": (rate(counts.get("conformance.oracle.streams", 0),
                                                  total("conformance.oracle")), "1/s"),
    }
    for layer in LAYERS:
        per_layer[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    per_layer["trace.coverage_pct"] = (100.0 * covered / traced_wall, "%")
    per_layer["trace.overhead_s"] = (traced_wall - extra - base.wall, "s")

    deterministic = dict(counts)
    deterministic["softcore.steps"] = per_layer["softcore.steps"][0]
    count_problems, compared = compare_counts(workload, inputs, smoke, deterministic)
    problems += count_problems
    report = {
        "workload": workload, "smoke": smoke, "inputs": inputs,
        "untraced_wall_s": base.wall, "traced_wall_s": traced_wall,
        "extra_s": extra, "layer_self_s": layer_self, "counts": deterministic,
        "counts_compared": compared,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }
    return problems, attempted, report


def compare_counts(workload, inputs, smoke, counts):
    """Compares the counts with those an earlier traced run of the same
    inputs and the same sources recorded in this checkout, or records
    them. Returns (problems, whether an earlier run was compared)."""
    key = json.dumps([workload, smoke, inputs, h.source_digest()], sort_keys=True)
    path = h.OUT / "counts" / f"{workload}-{h.digest(key.encode())[:16]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
            return [f"counts differ from an earlier traced run: {diff}"], True
        return [], True
    path.write_text(json.dumps(counts, sort_keys=True, indent=1))
    return [], False


# ---------------------------------------------------------------- main


def save(kind, workload, seed, payload):
    payload = dict(payload, host=h.host_info(), workload=workload, seed=seed,
                   time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    path = h.OUT / "results" / f"{workload}-{kind}-seed{seed}-{time.time_ns()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def run_workload(cfg, workload, seed, seconds, trace, smoke=False):
    print(f"workload {workload} seed {seed} trace {trace}{' (smoke)' if smoke else ''}")
    if trace:
        problems, attempted, report = traced(workload, seed, smoke)
        for p in problems:
            print(f"{workload}: {p}", file=sys.stderr)
        metrics = {}
        if report is not None:
            listed = {m["name"] for m in cfg["per_layer"]}
            print("  (* = report only, not in BENCHMARK.json)")
            for name, m in report["per_layer"].items():
                print(f"  {' ' if name in listed else '*'} {name:<36} {m['value']:.6g} {m['unit']}")
                if name in listed:
                    metrics[name] = m
            save("trace", workload, seed, dict(report, correct=not problems))
        return {"correct": not problems and report is not None, "attempted": attempted,
                "failed": 1 if problems else 0, "metrics": metrics}
    ok, attempted, failed, values, inputs = untraced(workload, seed, seconds, smoke)
    metrics = e2e_metrics(values, {m["name"]: m["unit"] for m in cfg["end_to_end"]})
    save("untraced", workload, seed, {"values": values, "inputs": inputs, "smoke": smoke,
                                      "attempted": attempted, "failed": failed})
    return {"correct": failed == 0 and bool(ok), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv):
    # SIGTERM unwinds like Ctrl-C, so the child being measured is killed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-doc", action="store_true")
    args = ap.parse_args(argv)
    try:
        cfg = h.load_config()
        names = [w["name"] for w in cfg["workloads"]] + list(h.REPORT_ONLY)
        if args.write_doc:
            import report
            report.write(cfg)
            return 0
        h.build()
        if args.smoke:
            results = [run_workload(cfg, w, args.seed, 0, t, smoke=True)
                       for w in names for t in (0, 1)]
            bad = [r for r in results if not r["correct"]]
            print(f"smoke: {len(results) - len(bad)} of {len(results)} runs correct")
            return 1 if bad else 0
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        result = run_workload(cfg, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
