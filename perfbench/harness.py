"""Measurement, output checks and trace analysis for the cold-process benchmark.

Everything here is plain functions over processes, bytes and span lists so
the tests in `perfbench/tests` can exercise it without a build.
"""

import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
THREADS = "2"

# fleet_chaos runs and is checked like the workloads BENCHMARK.json lists,
# but is left out of it: its wall time, mostly one serial thread rewriting
# the checkpoint, moved by more than the largest allowed bound (25%)
# between runs on a shared two-vCPU host.
REPORT_ONLY = ("fleet_chaos",)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchError(Exception):
    """A failure that leaves no result to report."""


def valid_name(name):
    """Metric and workload names: letters, digits, `_`, `.`, `-`; at most
    64 characters; starting with a letter or digit."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def load_config():
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in cfg["workloads"]]
    names += [m["name"] for m in cfg["end_to_end"] + cfg["per_layer"]]
    bad = [n for n in names if not valid_name(n)]
    if bad or len(set(names)) != len(names):
        raise BenchError(f"invalid or repeated names in BENCHMARK.json: {bad or names}")
    return cfg


# ---------------------------------------------------------------- build


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds `repro` and the benchmark's own program from source."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError("the repository's sources are missing beside the benchmark")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for extra in (["--bin", "repro"], ["--manifest-path", str(BENCH_DIR / "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def binary(name):
    return str(target_dir() / "release" / name)


# ---------------------------------------------------------- processes


class Proc:
    """One finished child: host-time costs plus its output."""

    def __init__(self, wall, cpu, rss_mb, marks, code, stdout, stderr):
        self.wall, self.cpu, self.rss_mb, self.marks = wall, cpu, rss_mb, marks
        self.code, self.stdout, self.stderr = code, stdout, stderr


def run_measured(argv):
    """Runs `argv` in a fresh process and measures it alone.

    `wait4` gives the rusage of that one child, so its peak RSS is not the
    running maximum `RUSAGE_CHILDREN` keeps over every child. `marks` are
    the child's stage announcements: (line, seconds since spawn) for every
    stderr line that starts with `[`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    marks, err, out = [], [], []

    def read_err():
        for line in proc.stderr:
            if line.startswith(b"["):
                marks.append((line.decode(errors="replace").rstrip("\n"),
                              time.perf_counter() - t0))
            err.append(line)

    threads = [threading.Thread(target=read_err),
               threading.Thread(target=lambda: out.append(proc.stdout.read()))]
    for t in threads:
        t.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in threads:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return Proc(t1 - t0, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                marks, proc.returncode, out[0], b"".join(err))


def time_to_ready(argv, ready):
    """Spawns `argv`, returns seconds until its first `ready` stderr line,
    then kills it and waits for it to end.

    The child is started with `posix_spawn` and its stderr read straight
    from the pipe, with no reader thread, so that little but the child's
    own start-up lies between the two clock reads.
    """
    r, w = os.pipe()
    devnull = os.open(os.devnull, os.O_WRONLY)
    actions = [(os.POSIX_SPAWN_DUP2, devnull, 1), (os.POSIX_SPAWN_DUP2, w, 2),
               (os.POSIX_SPAWN_CLOSE, r)]
    setup, seen = None, b""
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(w)
        os.close(devnull)
    try:
        while setup is None:
            chunk = os.read(r, 4096)
            if not chunk:
                break
            seen += chunk
            if any(line.startswith(ready) for line in seen.split(b"\n")[:-1]):
                setup = time.perf_counter() - t0
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(r)
    if setup is None:
        raise BenchError(f"no start-up line from {' '.join(argv)}")
    return setup


# ------------------------------------------------------------- checks


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check_repro(workload, proc, expected_digest):
    """Returns a list of problems with a `repro` run (empty when correct)."""
    problems = []
    if proc.code != 0:
        problems.append(f"exit status {proc.code}")
    if digest(proc.stdout) != expected_digest:
        problems.append(f"stdout digest {digest(proc.stdout)} != recorded {expected_digest}")
    if workload == "conform_quick":
        for needle in (b"conformance gate: PASSED", b": 57 metrics, 0 failing",
                       b"10000 defect-free streams, 0 divergences"):
            if needle not in proc.stdout:
                problems.append(f"stdout lacks {needle.decode()!r}")
    return problems


# ---------------------------------------------------------- workloads


def fleet_inputs(seed, smoke):
    """The fleet_chaos inputs, generated from the workload seed."""
    rng = random.Random(seed)
    fleet_seed, plan_seed = rng.randrange(1, 2**32), rng.randrange(1, 2**32)
    return {
        "cpus": 1_000_000 if smoke else 52_000_000,
        "fleet_seed": fleet_seed,
        "plan": f"offline=0.05,preempt=0.10,read_error=0.05,seed={plan_seed}",
    }


def fleet_argv(inputs, phase, checkpoint, trace_out=None):
    argv = [binary("perfbench"), "fleet-chaos", "--phase", phase,
            "--cpus", str(inputs["cpus"]), "--fleet-seed", str(inputs["fleet_seed"]),
            "--plan", inputs["plan"], "--checkpoint", str(checkpoint)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    return argv


FLEET_READY = b"[perfbench] population sampled"
REPRO_READY = b"[repro]"


def repro_argv(workload, smoke):
    if workload == "paper_full":
        return [binary("repro"), "all", "--threads", THREADS] + (["--quick"] if smoke else [])
    return [binary("repro"), "conform", "--quick", "--threads", THREADS]


def expected_digest(workload, smoke):
    recorded = json.loads((BENCH_DIR / "expected.json").read_text())
    return recorded[workload]["smoke" if smoke and workload == "paper_full" else "full"]


class Sample:
    def __init__(self, wall, cpu, rss_mb, problems, marks=()):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.problems, self.marks = problems, marks


def scratch(name):
    """A fresh path under perfbench/out/tmp (runs in one checkout are
    sequential, so fixed names keep the directory small)."""
    path = OUT / "tmp" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    return path


def sample_repro(workload, smoke):
    p = run_measured(repro_argv(workload, smoke))
    problems = check_repro(workload, p, expected_digest(workload, smoke))
    return Sample(p.wall, p.cpu, p.rss_mb, problems, p.marks)


def sample_fleet(inputs, reference, traces=(None, None)):
    """One killed process plus one resuming process, costs summed."""
    ck = scratch("fleet-checkpoint.json")
    a = run_measured(fleet_argv(inputs, "kill", ck, traces[0]))
    b = run_measured(fleet_argv(inputs, "resume", ck, traces[1]))
    problems = [f"{phase} phase: exit status {p.code}: {p.stderr.decode(errors='replace')}"
                for phase, p in (("kill", a), ("resume", b)) if p.code != 0]
    if b.stdout != reference:
        problems.append("resumed outcome differs from the uninterrupted run")
    return Sample(a.wall + b.wall, a.cpu + b.cpu, max(a.rss_mb, b.rss_mb), problems)


def fleet_reference(inputs, trace_out=None):
    p = run_measured(fleet_argv(inputs, "reference", scratch("unused.json"), trace_out))
    if p.code != 0:
        raise BenchError(f"uninterrupted fleet_chaos run failed: {p.stderr.decode(errors='replace')}")
    return p.stdout


def setup_time(workload, inputs, smoke):
    if workload == "fleet_chaos":
        return time_to_ready(fleet_argv(inputs, "kill", scratch("probe.json")), FLEET_READY)
    return time_to_ready(repro_argv(workload, smoke), REPRO_READY)


# -------------------------------------------------------------- stats


def summarize(values):
    """Median, quartiles, sample count and the highest percentile that
    still has ten samples beyond it (None below eleven samples)."""
    xs = sorted(values)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (xs[0], xs[0], xs[0])
    tail = None
    if n >= 11:
        tail = (100.0 * (n - 10) / n, xs[n - 11])
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": n, "tail": tail}


# -------------------------------------------------------------- trace


def self_times(spans):
    """Self time per span id: duration minus the union of its children's
    intervals, clipped to the span."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        out[s["id"]] = (s["end"] - s["start"]) - covered(
            [(c["start"], c["end"]) for c in children.get(s["id"], [])], s["start"], s["end"])
    return out


def covered(intervals, lo, hi):
    """Length of the union of `intervals` inside [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_of(name):
    return name.split(".", 1)[0]


def layer_self_times(spans):
    """Self time summed per layer (first name component), leaving out the
    extra spans: work the untraced workload does not do."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        if s["extra"]:
            continue
        out[layer_of(s["name"])] = out.get(layer_of(s["name"]), 0.0) + selfs[s["id"]]
    return out


def span_sum(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def root_coverage(spans):
    """Seconds covered by root spans."""
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return covered(roots, 0.0, float("inf"))


# -------------------------------------------------------------- drift

# A replica stage may take this share of the same `repro` stage longer or
# shorter, and at least DRIFT_FLOOR_S seconds, before the traced run fails.
DRIFT_SHARE = 0.25
DRIFT_FLOOR_S = 1.0
REPLICA_DONE = "[perfbench] replica done"


def stages(marks, end):
    """(announcement, seconds until the next one or `end`) per stage."""
    times = [t for _, t in marks[1:]] + [end]
    return [(line, stop - t) for (line, t), stop in zip(marks, times)]


def stage_drift(repro_marks, repro_wall, replica_marks):
    """Problems when the traced replica no longer does what `repro` does:
    its stage announcements differ from repro's, or a stage's duration
    differs by more than DRIFT_SHARE (and DRIFT_FLOOR_S)."""
    lines = [line for line, _ in replica_marks]
    if REPLICA_DONE not in lines:
        return ["the replica never announced its end"]
    done = lines.index(REPLICA_DONE)
    ours = stages(replica_marks[:done], replica_marks[done][1])
    theirs = stages(repro_marks, repro_wall)
    if [line for line, _ in ours] != [line for line, _ in theirs]:
        return [f"replica stages {[line for line, _ in ours]} differ from repro's "
                f"{[line for line, _ in theirs]}"]
    problems = []
    for (line, replica_s), (_, repro_s) in zip(ours, theirs):
        if abs(replica_s - repro_s) > max(DRIFT_SHARE * repro_s, DRIFT_FLOOR_S):
            problems.append(f"stage {line!r} took {replica_s:.2f} s in the replica and "
                            f"{repro_s:.2f} s in repro")
    return problems


# --------------------------------------------------------- provenance


def host_info():
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "source_sha256": source_digest(),
    }


def source_digest():
    """Content hash of the sources the benchmark builds. It names the code
    measured in a checkout that is not a git repository, and it covers
    uncommitted edits, which a commit id does not."""
    h = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for sub in ("src", "crates", "shims", "perfbench/src"):
        paths += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()
