#!/usr/bin/env python3
"""End-to-end MDP benchmark: seeded mask workloads through mbf_cli.

    python3 mdpbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 mdpbench/run.py --smoke [--workload W] [--seed N]

Run from the root of a source checkout. The script builds mbf_cli,
mdpbench_tool and the reference kernel mdpbench_ref from source (CMake
package in this directory, build tree under $CARGO_TARGET_DIR or
.bench_build/), generates the workload's inputs from the seed, and
then:

  --trace 0  sets up five times (input generation, cell-cache
             pre-population, one warm-up run) and reports the median as
             setup_s; then, for S seconds, runs the workload's mbf_cli
             command as a child process, one at a time, each run between
             two runs of the fixed reference kernel mdpbench_ref, and
             reports the end-to-end metrics: wall and CPU time in
             multiples of the adjacent reference runs' (medians),
             throughput, peak RSS, shot count.
  --trace 1  sets up once, runs the CLI at PARALLEL_THREADS for a third
             of S to read its manifest, then alternates untraced and
             traced in-process passes (mdpbench_tool pass) and reports
             the per-layer metrics, with tracing overhead as
             trace.overhead_frac.
  --smoke    small inputs, one CLI run and one traced pass per workload,
             every correctness check; for the benchmark's own tests.

Correctness is checked inside the run: exit codes outside {0, 4} fail,
every repetition's .shots SHA-256 must equal the warm-up's, the
manifest must report a completed run with no degraded or interrupted
shapes, `mbf_cli --verify` must pass, and the traced pass must write
byte-identical .shots. Shapes of a run that fails a check count as
failed. Human-readable lines go first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is
0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ilt_flat", "contact_flat", "hier_revision")
SETUP_REPEATS = 5
MIN_REPS = 5
CHILD_TIMEOUT_S = 150.0
OK_EXIT_CODES = (0, 4)  # 4: completed with failing pixels (data, not error)


class BenchError(Exception):
    """A failure that leaves no result to report (build, generation)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# Every timed child runs at --threads=THREADS. The parallel.* per-layer
# metrics compare CLI runs at PARALLEL_THREADS with the serial pass.
THREADS = 1
PARALLEL_THREADS = 3


def threads(wanted=THREADS):
    """min(wanted, nproc)."""
    return max(1, min(wanted, os.cpu_count() or 1))


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build():
    """Configures (a no-op when nothing changed), then builds
    incrementally; returns the three tools."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no mbf sources next to {BENCH_DIR}")
    bdir = build_dir() / "mdpbench-cmake"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(bdir), "--target", "mbf_cli",
              "mdpbench_tool", "mdpbench_ref", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    tools = (bdir / "tools" / "mbf_cli", bdir / "mdpbench_tool",
             bdir / "mdpbench_ref")
    for exe in tools:
        if not os.access(exe, os.X_OK):
            raise BenchError(f"build produced no {exe}")
    return tools


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spawn(cmd, cwd, stdout=subprocess.DEVNULL):
    """Runs one child; returns (exit code, wall s, cpu s, peak RSS MB).

    Wall is spawn to exit; CPU and RSS come from the child's own rusage
    (wait4), so this script's own work never enters them.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd, stdout=stdout,
                            stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


class Workload:
    """Inputs and the CLI command of one workload in one work directory."""

    def __init__(self, name, tools, workdir, seed, smoke):
        self.name = name
        self.cli, self.tool, self.ref = tools
        self.dir = workdir
        self.seed = seed
        self.smoke = smoke
        self.hier = name == "hier_revision"
        self.input = "input.gds" if self.hier else "input.poly"

    def run_tool(self, *args):
        proc = subprocess.run([str(self.tool), *args], cwd=self.dir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"mdpbench_tool {args[0]} failed "
                             f"({proc.returncode}): {proc.stderr.strip()}")
        return proc.stdout

    def cli_cmd(self, input_name, shots, manifest, cache, t=THREADS):
        cmd = [self.cli, input_name, shots, f"--threads={threads(t)}",
               f"--metrics-json={manifest}"]
        if self.hier:
            cmd += ["--hier", f"--cell-cache={cache}", "--journal=run.jrnl"]
        return cmd

    def setup(self):
        """Generates inputs, fills the cell cache from the earlier
        revision (hier_revision) and makes one warm-up run. Returns the
        warm-up's outcome, the reference for every later run."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        gen = ["gen", f"--workload={self.name}", f"--seed={self.seed}",
               "--dir=."]
        if self.smoke:
            gen.append("--smoke")
        self.run_tool(*gen)
        if self.hier:
            code, *_ = spawn([self.cli, "earlier.gds", "earlier.shots",
                              "--hier", "--cell-cache=cache0",
                              f"--threads={threads()}"], self.dir)
            if code not in OK_EXIT_CODES:
                raise BenchError(f"cache pre-population exited {code}")
            os.remove(self.dir / "earlier.shots")
        return self.run_cli()

    def restore(self):
        """Puts back the state a run starts from (outside any timing):
        the pre-populated cache and no journal."""
        if not self.hier:
            return
        shutil.rmtree(self.dir / "cache", ignore_errors=True)
        shutil.copytree(self.dir / "cache0", self.dir / "cache")
        for name in ("run.jrnl", "run.jrnl.sha256"):
            (self.dir / name).unlink(missing_ok=True)

    def run_ref(self):
        """One run of the reference kernel: its wall and CPU seconds and
        the checksum it printed."""
        with open(self.dir / "ref.out", "w+") as out:
            code, wall, cpu, _ = spawn([self.ref], self.dir, stdout=out)
            out.seek(0)
            checksum = out.read().strip()
        if code != 0 or not checksum:
            raise BenchError(f"mdpbench_ref exited {code}")
        return {"wall": wall, "cpu": cpu, "checksum": checksum}

    def run_cli(self, t=THREADS):
        self.restore()
        cmd = self.cli_cmd(self.input, "out.shots", "run.manifest.json",
                           "cache", t)
        code, wall, cpu, rss = spawn(cmd, self.dir)
        return check_run(self.dir, code, wall, cpu, rss, self.hier)

    def verify(self):
        """mbf_cli --verify on one manifest of this workload. For
        hier_revision the verified run is a 2x2-instance companion of
        the timed layout with the same unique cells (same cache state),
        since re-checking all instances densely takes minutes."""
        manifest = "run.manifest.json"
        if self.hier:
            self.restore()
            cmd = self.cli_cmd("verify.gds", "verify.shots",
                               "verify.manifest.json", "cache")
            code, *_ = spawn(cmd, self.dir)
            if code not in OK_EXIT_CODES:
                return False
            manifest = "verify.manifest.json"
        code, *_ = spawn([self.cli, "--verify", manifest,
                          f"--threads={threads(PARALLEL_THREADS)}"], self.dir)
        return code == 0

    def inputs_digest(self):
        names = ["input.gds", "earlier.gds", "verify.gds"] if self.hier \
            else ["input.poly"]
        return [sha256_file(self.dir / n) for n in names]

    def sizes(self):
        return {name: (self.dir / name).stat().st_size / 1e6
                for name in ("run.manifest.json", "run.jrnl")
                if (self.dir / name).exists()}


def check_run(workdir, code, wall, cpu, rss, hier):
    """One CLI run's outcome with the checks that need only its files."""
    run = {"code": code, "wall": wall, "cpu": cpu, "rss": rss,
           "ok": code in OK_EXIT_CODES, "shapes": 0, "bad_shapes": 0}
    try:
        run["sha"] = sha256_file(workdir / "out.shots")
        with open(workdir / "run.manifest.json") as f:
            manifest = json.load(f)
    except (OSError, ValueError):
        run["ok"] = False
        return run
    totals = manifest.get("totals", {})
    shapes = manifest.get("shapes", [])
    run["shapes"] = manifest.get("input", {}).get("shapes", len(shapes))
    run["shots"] = totals.get("shots", 0)
    run["fail_px"] = totals.get("failing_pixels", 0)
    run["batch_wall"] = totals.get("wall_seconds", 0.0)
    run["refine_s"] = manifest.get("refiner", {}).get(
        "stage_seconds", {}).get("total", 0.0)
    run["bad_shapes"] = sum(
        1 for s in shapes
        if s.get("degraded") or s.get("status", {}).get("code") != "OK")
    if manifest.get("status") != "completed" or run["bad_shapes"] or \
            len(shapes) != run["shapes"]:
        run["ok"] = False
    if hier and not (workdir / "run.jrnl").exists():
        run["ok"] = False
    return run


def percentile_beyond(values, min_beyond=10):
    """Highest percentile with at least `min_beyond` samples above it,
    as (percent, value); None when there are too few samples."""
    n = len(values)
    if n < 2 * min_beyond:
        return None
    s = sorted(values)
    k = n - min_beyond - 1  # 0-based index with min_beyond values beyond
    return int(100 * (k + 1) / n), s[k]


def tally(runs, reference):
    """Shapes attempted and failed over runs checked against the
    reference run (same digest, same shot count)."""
    attempted = failed = 0
    for r in runs:
        shapes = r["shapes"] or reference["shapes"]
        attempted += shapes
        same = r.get("sha") == reference.get("sha") and \
            r.get("shots") == reference.get("shots")
        failed += shapes if not (r["ok"] and same) else r["bad_shapes"]
    return attempted, failed


def scaled(runs, refs, key):
    """Each run's `key` time over the mean of the reference runs just
    before and just after it (refs has one more entry than runs)."""
    return [r[key] / ((a[key] + b[key]) / 2)
            for r, a, b in zip(runs, refs, refs[1:])]


def measure_e2e(w, seconds):
    setups = []
    digests = set()
    reference = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        reference = w.setup()
        setups.append(time.perf_counter() - t0)
        digests.add(tuple(w.inputs_digest()))
    runs, refs = [], [w.run_ref()]
    t0 = time.perf_counter()
    while len(runs) < MIN_REPS or time.perf_counter() - t0 < seconds:
        runs.append(w.run_cli())
        refs.append(w.run_ref())
    attempted, failed = tally(runs, reference)
    verified = w.verify()
    problems = []
    if not reference["ok"]:
        problems.append(f"warm-up run failed (exit {reference['code']})")
    if len(digests) != 1:
        problems.append("input generation is not deterministic")
    if len({r["checksum"] for r in refs}) != 1:
        problems.append("mdpbench_ref checksums differ between runs")
    if not verified:
        problems.append("mbf_cli --verify failed")
        failed += reference["shapes"]
    if failed:
        problems.append(f"{failed} of {attempted} shapes failed a check")

    wall_ratios = scaled(runs, refs, "wall")
    wall_ref = statistics.median(wall_ratios)
    shapes = reference["shapes"]
    metrics = {
        "wall_ref": wall_ref,
        "shapes_per_ref": shapes / wall_ref,
        "cpu_ref": statistics.median(scaled(runs, refs, "cpu")),
        "peak_rss_mb": statistics.median(r["rss"] for r in runs),
        "setup_s": statistics.median(setups),
        "shots": float(reference.get("shots", 0)),
    }
    walls = [r["wall"] for r in runs]
    ref_s = statistics.median(r["wall"] for r in refs)
    print(f"workload {w.name}: seed {w.seed}, --threads={threads()}, "
          f"{len(runs)} timed runs, {shapes} flat-equivalent shapes, "
          f".shots sha256 {reference.get('sha', '?')}")
    units = declared_metrics("end_to_end")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:14.6g} {units[name]}")
    print(f"  {'wall_s':<14} {statistics.median(walls):14.6g} s "
          f"(raw, host-speed dependent; reference kernel {ref_s:.4g} s)")
    print(f"  {'cpu_s':<14} "
          f"{statistics.median(r['cpu'] for r in runs):14.6g} s (raw)")
    hi = percentile_beyond(wall_ratios)
    if hi:
        print(f"  wall_ref p{hi[0]:<5} {hi[1]:14.6g} ref "
              f"({len(wall_ratios)} samples)")
    else:
        print(f"  wall_ref p-hi  {'n/a':>14}     ({len(wall_ratios)} "
              f"samples; a percentile with 10 samples beyond needs 20)")
    print(f"  {'fail_px':<14} {reference.get('fail_px', 0):14d} px")
    print(f"  {'failed_frac':<14} {failed / max(attempted, 1):14.6g} "
          f"({failed} of {attempted} shapes)")
    return problems, attempted, failed, metrics


def run_pass(w, trace, cache_copy="pass_cache"):
    args = ["pass", f"--workload={w.name}", f"--input={w.input}",
            "--out-dir=."]
    if w.hier:
        shutil.rmtree(w.dir / cache_copy, ignore_errors=True)
        shutil.copytree(w.dir / "cache0", w.dir / cache_copy)
        args.append(f"--cache-dir={cache_copy}")
    if not trace:
        args.append("--no-trace")
    return json.loads(w.run_tool(*args).strip().splitlines()[-1])


def measure_layers(w, seconds):
    reference = w.setup()
    runs = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds / 3:
        runs.append(w.run_cli(PARALLEL_THREADS))
    attempted, failed = tally(runs, reference)
    sizes = w.sizes()

    traced, untraced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds * 2 / 3:
        untraced.append(run_pass(w, trace=False))
        traced.append(run_pass(w, trace=True))
    # Per-layer figures from the traced pass with the median total.
    traced.sort(key=lambda p: p["total_s"])
    passed = traced[len(traced) // 2]
    problems = []
    if not reference["ok"]:
        problems.append(f"warm-up run failed (exit {reference['code']})")
    if any(p["shots_sha256"] != reference.get("sha")
           for p in traced + untraced):
        problems.append("traced pass .shots differ from the CLI's")
        failed += reference["shapes"]
    if failed:
        problems.append(f"{failed} of {attempted} shapes failed a check")

    m = dict(passed["metrics"])
    t = threads(PARALLEL_THREADS)
    batch_wall = statistics.median(r["batch_wall"] for r in runs)
    refine_cli = statistics.median(r["refine_s"] for r in runs)
    serial = m["fracture.serial_s"]
    m["parallel.efficiency"] = serial / (t * batch_wall) if batch_wall else 0
    m["parallel.inflation"] = refine_cli / m["fracture.stage2_s"] \
        if m["fracture.stage2_s"] else 0
    m["fracture.fail_px"] = float(passed["fail_px"])
    m["mdp.journal_mb"] = sizes.get("run.jrnl", 0.0)
    m["support.manifest_mb"] = sizes.get("run.manifest.json", 0.0)
    traced_s = statistics.median(p["total_s"] for p in traced)
    untraced_s = statistics.median(p["total_s"] for p in untraced)
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    total = passed["total_s"]
    shares = {
        "fracture.stage2": m["fracture.stage2_s"] / total,
        "fracture.problem+ebeam.lth":
            (m["fracture.problem_s"] + m["ebeam.lth_s"]) / total,
        "support.manifest+analysis.shot_stats":
            (m["support.manifest_s"] + m["analysis.shot_stats_s"]) / total,
    }
    spans_dir = build_dir() / "mdpbench-traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_out = spans_dir / f"{w.name}-seed{w.seed}.spans.json"
    shutil.copyfile(w.dir / "spans.json", spans_out)  # the last traced pass

    print(f"workload {w.name}: seed {w.seed}, traced pass "
          f"{total:.4g} s serial ({passed['spans']} spans -> {spans_out}), "
          f"untraced {untraced_s:.4g} s, {len(traced)} pass pairs, "
          f"{len(runs)} CLI runs at --threads={t}")
    print("  layer self time (s):  " + ", ".join(
        f"{k} {v:.4g}" for k, v in sorted(passed["layer_self_s"].items())))
    print("  shares of the traced pass: " + ", ".join(
        f"{k} {v:.1%}" for k, v in shares.items()))
    units = declared_metrics("per_layer")
    for name in sorted(m):
        print(f"  {name:<28} {m[name]:14.6g} {units.get(name, '')}")
    return problems, attempted, failed, m


def declared_metrics(kind):
    """Name -> unit of the metrics BENCHMARK.json declares for `kind`."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def smoke(tools, workloads, seed, work_root):
    """One small CLI run between two reference runs, --verify and one
    traced pass per workload."""
    all_problems = []
    attempted = failed = 0
    metrics = {}
    for name in workloads:
        w = Workload(name, tools, work_root / f"smoke-{name}", seed, True)
        reference = w.setup()
        refs = [w.run_ref()]
        run = w.run_cli()
        refs.append(w.run_ref())
        a, f = tally([run], reference)
        problems = [] if reference["ok"] else ["warm-up run failed"]
        if refs[0]["checksum"] != refs[1]["checksum"]:
            problems.append("mdpbench_ref checksums differ between runs")
        if not w.verify():
            problems.append("mbf_cli --verify failed")
            f += reference["shapes"]
        p = run_pass(w, trace=True)
        if p["shots_sha256"] != reference.get("sha"):
            problems.append("traced pass .shots differ from the CLI's")
            f += reference["shapes"]
        if p["spans"] < 3 or not p["layer_self_s"]:
            problems.append("traced pass recorded no spans")
        attempted += a
        failed += f
        all_problems += [f"{name}: {x}" for x in problems]
        print(f"smoke {name}: exit {run['code']}, {run['shapes']} shapes, "
              f"{run.get('shots', 0)} shots, traced {p['spans']} spans, "
              f"{'ok' if not problems else '; '.join(problems)}")
        metrics[f"{name}.shots"] = {"value": float(run.get("shots", 0)),
                                    "unit": "count"}
    return all_problems, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    work_root = build_dir() / "mdpbench-work"
    workdir = work_root / f"{args.workload or 'smoke'}-{os.getpid()}"
    try:
        tools = build()
        if args.smoke:
            names = [args.workload] if args.workload else list(WORKLOADS)
            problems, attempted, failed, metrics = smoke(
                tools, names, args.seed, workdir)
        else:
            w = Workload(args.workload, tools, workdir, args.seed, False)
            measure = measure_layers if args.trace else measure_e2e
            problems, attempted, failed, raw = measure(w, args.seconds)
            declared = declared_metrics(
                "per_layer" if args.trace else "end_to_end")
            metrics = {name: {"value": float(raw[name]), "unit": unit}
                       for name, unit in declared.items()}
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"mdpbench: {e}")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        log(f"mdpbench: CHECK FAILED: {p}")
    correct = not problems
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
