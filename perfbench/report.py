"""Writes perfbench/WHERE_THE_TIME_GOES.md from the stored traced runs.

Shape per workload: scenario -> numbers -> what was verified. The numbers
come from the newest full-size traced run of each workload, and the
end-to-end medians from every stored untraced run of the same checkout.
"""

import json
import statistics

import harness as h

SCENARIO = {
    "paper_full": "`repro all --threads 2`, cold: the 1.05M-CPU campaign (Tables 1-2), "
                  "the 27-processor deep study (Table 3, Figures 2-7 and 9, observations), "
                  "the temperature sweeps (Figure 8), the Farron evaluation (Table 4, "
                  "Figure 11), the fault-tolerance audit and the extensions. Its seeds "
                  "(27, 711, 2021) are fixed inside `repro`.",
    "conform_quick": "`repro conform --quick --threads 2`, cold: a 200k-CPU campaign, the "
                     "quick deep study and evaluation, the golden-statistics check (57 "
                     "metrics), five metamorphic invariants and 10,000 differential oracle "
                     "streams.",
    "fleet_chaos": "a 52M-CPU fleet sampled from the workload seed, screened under the fault "
                   "plan `offline=0.05,preempt=0.10,read_error=0.05` with a checkpoint every "
                   "64 items; the process stops after half the slots, and a fresh process "
                   "loads the checkpoint and finishes the campaign.",
}

WHY = {
    "fleet_chaos": "fleet, supervisor and checkpoint work with no softcore VM at all; its wall "
                   "time, mostly one serial thread rewriting the checkpoint, varied by more "
                   "than the largest bound the benchmark may set (25%) between runs on the "
                   "shared two-vCPU host, so it is measured and checked but not gated.",
}

DRIFT = (" The traced replica announced the same stages as the untraced `repro`, and "
         "each stage took within {share:.0%} (or {floor:g} s) of repro's time for it, so the "
         "breakdown still describes what `repro` does.")

CHECKS = {
    "paper_full": "stdout digest equals the one recorded from the seed commit; exit status 0."
                  + DRIFT,
    "conform_quick": "stdout digest equals the recorded one; `conformance gate: PASSED` "
                     "with 57 metrics, 0 failing and 0 oracle divergences; exit status 0."
                     + DRIFT,
    "fleet_chaos": "the resumed run's Tables 1-2 and attrition report equal those of an "
                   "uninterrupted run of the same inputs; both processes exit 0.",
}


# Which end-to-end metric each per-layer metric should move, on which
# workload. Looked up by exact name, then by the longest dotted prefix.
EFFECTS = {
    "softcore": "wall_s and cpu_s on paper_full and conform_quick; nothing on fleet_chaos",
    "toolchain": "wall_s on paper_full and conform_quick; nothing on fleet_chaos",
    "toolchain.profile.unit_computed": "fewer computed: wall_s down on paper_full, "
                                       "peak_rss_mb may rise",
    "toolchain.profile.unit_hits": "more hits: wall_s down on paper_full, peak_rss_mb may rise",
    "toolchain.executor.chunk_loop_s": "paper_full wall_s by under 1%",
    "fleet": "wall_s on fleet_chaos; paper_full only negligibly",
    "fleet.checkpoint": "wall_s on fleet_chaos only",
    "analysis": "wall_s on paper_full and conform_quick (the cold study)",
    "analysis.corpus_s": "paper_full wall_s by under 1%",
    "analysis.temperature.sweep_s": "paper_full wall_s by under 1%",
    "farron": "wall_s on paper_full (about 22%) and conform_quick (about 38%)",
    "farron.online_s": "paper_full wall_s by under 1%",
    "ftol": "paper_full wall_s by under 1%",
    "conformance": "wall_s on conform_quick only",
    "trace": "nothing: it describes the traced run itself",
}


def effect_of(metric):
    parts = metric.split(".")
    for n in range(len(parts), 0, -1):
        key = ".".join(parts[:n])
        if key in EFFECTS:
            return EFFECTS[key]
    return ""


def newest(kind, workload):
    paths = sorted((h.OUT / "results").glob(f"{workload}-{kind}-*.json"),
                   key=lambda p: int(p.stem.rsplit("-", 1)[1]))
    runs = [json.loads(p.read_text()) for p in paths]
    return [r for r in runs if not r.get("smoke")]


def fmt(v, unit):
    if unit in ("count", "bytes"):
        return f"{int(v):,}"
    return f"{v:.4g}"


def section(cfg, workload, why):
    traces = newest("trace", workload)
    if not traces:
        return [f"## {workload}\n", "No traced run stored yet.\n"]
    t = traces[-1]
    untraced = newest("untraced", workload)
    lines = [f"## {workload}\n", f"**Why:** {why}\n", f"**Scenario:** {SCENARIO[workload]}\n"]
    lines.append("Closed loop: one client runs one job at a time; every job uses 2 threads.\n")

    if untraced:
        lines.append(f"**End to end** (untraced, medians over {len(untraced)} stored runs):\n")
        lines.append("| metric | median | q1 | q3 | runs | highest percentile with "
                     "10 runs beyond |\n|---|---|---|---|---|---|")
        for m in cfg["end_to_end"]:
            xs = [statistics.median(r["values"][m["name"]]) for r in untraced
                  if r["values"].get(m["name"])]
            if xs:
                st = h.summarize(xs)
                tail = "-" if st["tail"] is None else f"p{st['tail'][0]:.0f} {st['tail'][1]:.4g}"
                lines.append(f"| {m['name']} | {st['median']:.4g} {m['unit']} | "
                             f"{st['q1']:.4g} | {st['q3']:.4g} | {st['n']} | {tail} |")
        lines.append("")

    wall = t["traced_wall_s"]
    lines.append(f"**Where the time goes** (traced run, seed {t['seed']}, {t['time']}): "
                 f"traced wall {wall:.2f} s, untraced wall {t['untraced_wall_s']:.2f} s, "
                 f"tracing overhead {t['per_layer']['trace.overhead_s']['value']:+.2f} s "
                 f"(traced minus untraced, without {t['extra_s']:.2f} s of extra re-runs); "
                 f"spans cover {t['per_layer']['trace.coverage_pct']['value']:.1f}% "
                 f"of the traced wall.\n")
    lines.append("| layer | self time (s) | share of traced wall |\n|---|---|---|")
    for layer, secs in sorted(t["layer_self_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"| {layer} | {secs:.3f} | {100 * secs / wall:.1f}% |")
    cold = (t["layer_self_s"].get("softcore", 0.0)
            + t["per_layer"]["toolchain.profile.unit_cold_s"]["value"])
    lines.append(f"\nCold profiling (`toolchain.profile` plus `softcore`): {cold:.2f} s, "
                 f"{100 * cold / wall:.1f}% of the traced wall.\n")

    listed = {m["name"] for m in cfg["per_layer"]}
    lines.append("| per-layer metric | value | should move |\n|---|---|---|")
    for name, m in t["per_layer"].items():
        mark = "" if name in listed else " (report only)"
        lines.append(f"| {name}{mark} | {fmt(m['value'], m['unit'])} {m['unit']} | "
                     f"{effect_of(name)} |")
    lines.append("")
    counts = ("matched those of an earlier traced run of the same inputs and sources"
              if t["counts_compared"] else "were recorded")
    checks = CHECKS[workload].format(share=h.DRIFT_SHARE, floor=h.DRIFT_FLOOR_S)
    lines.append(f"**What was verified:** {checks} The traced run "
                 f"{'passed' if t['correct'] else 'FAILED'} its checks, and its counts "
                 f"{counts}; a traced run whose counts differ from an earlier one of the "
                 f"same inputs and sources in the checkout fails.\n")
    return lines


def write(cfg):
    host = None
    body = []
    workloads = [(w["name"], w["why"]) for w in cfg["workloads"]]
    workloads += [(name, f"report only, not in `BENCHMARK.json`: {WHY[name]}")
                  for name in h.REPORT_ONLY]
    for name, why in workloads:
        body += section(cfg, name, why)
        traces = newest("trace", name)
        host = host or (traces[-1]["host"] if traces else None)
    head = [
        "# Where the time goes\n",
        "Generated by `python3 perfbench/run.py --write-doc` from the newest traced run "
        "of each workload (`--trace 1`) and the stored untraced runs. Layer self time is a "
        "span's duration minus what its child spans cover; the layer is the first "
        "component of the span name. `toolchain.profile.unit` under the cold study is "
        "derived: the cold study minus a warm re-run on the same caches. Probe metrics "
        "(`softcore.*`, `toolchain.profile.unit_mt_s`/`unit_st_s`, "
        "`fleet.screening.suite_profile_s`) come from a separate probe process and are the "
        "same measurement on every workload. Metrics marked *report only* are left out of "
        "`BENCHMARK.json`: most read 0 on a workload that never calls their layer; "
        "`fleet.campaign.slots` is fixed by the inputs; `trace.overhead_s` comes from one "
        "traced/untraced pair and its noise is larger than its value.\n",
    ]
    if host:
        head.append(f"Host: nproc {host['nproc']}, {host['rustc']}, sources sha256 "
                    f"`{host['source_sha256']}`.\n")
    (h.BENCH_DIR / "WHERE_THE_TIME_GOES.md").write_text("\n".join(head + body) + "\n")
