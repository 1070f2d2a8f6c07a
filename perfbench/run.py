#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `tracon dynamic`.

Run from the root of a source tree:

    python3 perfbench/run.py --workload fleet-1m --seed 42 --seconds 10 --trace 0

The first run configures and builds `tracon`, `telemetry_check` and the
traced harness (perfbench_traced) under .bench_build/. Each run then

* with --trace 0: times `tracon predict` (the set-up every invocation
  pays) three times, then repeats the workload's `tracon dynamic`
  invocation until --seconds of child wall time have passed (at least
  the workload's `invocations` times), and reports the end-to-end
  metrics;
* with --trace 1: makes the same untraced invocations, then one traced
  invocation of perfbench_traced, and reports the per-layer metrics.

Every invocation is checked: exit status, the summary lines and the
metrics fingerprint against the workload definition, the exports against
telemetry_check (first invocation) and against each other (masked
SHA-256), and, for a seed with recorded values in expected.json, the
summary, counters and digests against those values. The last line of
stdout is the result object; the lines before it give the host shape,
every metric with its unit and base, and the observed values.
"""
import argparse
import concurrent.futures
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cmake")
WORK_DIR = os.path.join(".bench_build", "work")
EXPECTED_FILE = os.path.join(HERE, "expected.json")

NPROC = len(os.sched_getaffinity(0))
THREADS = min(4, NPROC)
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 165.0
MIN_COVERAGE = 0.90

COMMON_ARGS = ["--host", "paper", "--model", "nlm", "--mix", "medium"]

# Export name -> CLI flag, and the telemetry_check flag that validates it
# (the task-event JSONL has no validator).
EXPORTS = {
    "metrics": ("--metrics-out", "--metrics"),
    "series": ("--series-out", "--series"),
    "decisions": ("--decisions-out", "--decisions"),
    "spans": ("--spans-out", "--spans"),
    "trace": ("--trace-out", "--trace"),
    "events": ("--events-jsonl", None),
}

# Why each workload exists is in README.md. `invocations` is the least
# number of timed invocations per run, set so the run's median holds
# still on a noisy shared host within the time BENCHMARK.json allows.
WORKLOADS = {
    "paper-mix": {
        "machines": 64, "lambda": 120, "hours": 10, "scheduler": "MIX8-RT",
        "args": ["--scheduler", "mix", "--confidence-weighting"],
        "exports": ["metrics", "series"],
        "sharded": False, "invocations": 6,
    },
    "fleet-1m": {
        "machines": 1000000, "lambda": 1000000, "hours": 0.1667,
        "scheduler": "MIBS8-RT",
        "args": ["--scheduler", "mibs", "--queue", "8", "--candidate-index",
                 "--threads", str(THREADS)],
        "exports": ["metrics"],
        "sharded": True, "shards": 64, "invocations": 3,
    },
    "provenance-10k": {
        "machines": 10000, "lambda": 10000, "hours": 0.5,
        "scheduler": "MIBS8-RT",
        "args": ["--scheduler", "mibs", "--queue", "8", "--threads",
                 str(THREADS), "--rebalance"],
        "exports": ["metrics", "series", "decisions", "spans", "trace",
                    "events"],
        "sharded": True, "shards": 64, "invocations": 3,
    },
}

END_TO_END = [
    ("total_s", "s"), ("setup_s", "s"), ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("sim.normalized_throughput", "ratio"),
    ("sim.admitted_ratio", "ratio"), ("sim.mean_latency_s", "s"),
]


class CheckError(Exception):
    """An invocation's output disagrees with what it must be."""


# ---------------------------------------------------------------- parsing

HEADER_RE = re.compile(
    r"^(?P<scheduler>\S+): (?P<machines>\d+) machines, "
    r"(?:(?P<shards>\d+) shards, (?P<threads>\d+) threads, )?"
    r"lambda=(?P<lam>\d+)/min, (?P<hours>\d+\.\d) h, (?P<mix>\w+) mix$")
COMPLETED_RE = re.compile(
    r"^  completed (?P<completed>\d+) \(FIFO (?P<fifo>\d+), "
    r"normalized (?P<normalized>\d+\.\d+)\)$")
DROPPED_RE = re.compile(
    r"^  dropped (?P<dropped>\d+)   mean runtime (?P<runtime>\d+\.\d) s   "
    r"mean wait (?P<wait>\d+\.\d) s$")


def parse_summary(stdout):
    """The three summary lines `tracon dynamic` ends with, parsed."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        head = HEADER_RE.match(line)
        if not head or i + 2 >= len(lines):
            continue
        done = COMPLETED_RE.match(lines[i + 1])
        drop = DROPPED_RE.match(lines[i + 2])
        if done and drop:
            out = {k: v for k, v in head.groupdict().items() if v is not None}
            for k in ("machines", "shards", "threads", "lam"):
                if k in out:
                    out[k] = int(out[k])
            out.update({k: int(v) for k, v in done.groupdict().items()
                        if k != "normalized"})
            out["normalized"] = done["normalized"]
            out["dropped"] = int(drop["dropped"])
            out["lines"] = lines[i:i + 3]
            return out
    raise CheckError("no summary lines in stdout")


def parse_metrics(text):
    """Fingerprint, task counters and the wait histogram of a metrics JSON."""
    try:
        doc = json.loads(text)
        counters = doc["counters"]
        wait = doc["histograms"]["sim.task.wait_s"]
        runtime = doc["histograms"]["sim.task.runtime_s"]
        return {
            "fingerprint": dict(doc["fingerprint"]),
            "counters": {k: int(v) for k, v in counters.items()},
            "arrived": int(counters["sim.tasks.arrived"]),
            "completed": int(counters["sim.tasks.completed"]),
            "dropped": int(counters["sim.tasks.dropped"]),
            "wait_sum": float(wait["sum"]),
            "wait_count": int(wait["count"]),
            "runtime_sum": float(runtime["sum"]),
            "runtime_count": int(runtime["count"]),
        }
    except (ValueError, KeyError, TypeError) as e:
        raise CheckError(f"malformed metrics JSON: {e!r}")


FINGERPRINT_RE = re.compile(rb'"fingerprint"\s*:\s*\{[^{}]*\}')
MASKED_KEY_RE = re.compile(rb'("(?:build|threads)"\s*:\s*)"[^"]*"')
HEAD_BYTES = 1 << 16


def mask_head(head):
    """Blanks the build stamp and thread count of the first fingerprint.

    Every export header carries the `git describe` string, and `--threads N`
    may only change the thread count; nothing else is masked.
    """
    m = FINGERPRINT_RE.search(head)
    if not m:
        return head
    block = MASKED_KEY_RE.sub(rb'\1"*"', m.group(0))
    return head[:m.start()] + block + head[m.end():]


def masked_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(mask_head(f.read(HEAD_BYTES)))
        for chunk in iter(lambda: f.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------- children

class Child:
    """One finished child process: status, wall time, peak RSS, output."""

    def __init__(self, cmd, timeout_s, workdir):
        os.makedirs(workdir, exist_ok=True)
        out_path = os.path.join(workdir, "stdout.txt")
        err_path = os.path.join(workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout_s, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.timed_out = killed.is_set()
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            self.stderr = f.read()

    def require_success(self):
        if self.timed_out:
            raise CheckError("timed out")
        if self.returncode != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            raise CheckError(f"exit status {self.returncode}: {tail[0]}")


class Tally:
    """Attempted and failed invocations; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, what, fn):
        """Runs fn(); returns its value, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except (CheckError, OSError) as e:
            self.failures.append(f"{what}: {e}")
            print(f"FAILED {what}: {e}", file=sys.stderr)
            return None


# ------------------------------------------------------------------ build

def build():
    """Configures once and builds the three binaries; exits 2 on failure."""
    if not os.path.isfile("CMakeLists.txt"):
        sys.exit("run.py: no CMakeLists.txt here; run from the source root")
    os.makedirs(WORK_DIR, exist_ok=True)
    log = os.path.join(WORK_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(HERE, "hook.cmake")])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tracon",
                  "telemetry_check", "perfbench_traced", "-j", str(NPROC)])
    with open(log, "wb") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log, encoding="utf-8", errors="replace") as g:
                    sys.stderr.write("".join(g.readlines()[-30:]))
                print(f"run.py: build failed: {' '.join(cmd)}",
                      file=sys.stderr)
                sys.exit(2)


def binary(name):
    sub = {"tracon": "tools", "telemetry_check": "tools"}.get(name, "")
    return os.path.join(BUILD_DIR, sub, name)


def host_shape():
    """What pure-speed numbers are comparable across: cores, build, commit."""
    shape = {"nproc": NPROC, "threads": THREADS}
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt"),
              encoding="utf-8") as f:
        for line in f:
            m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                         line.strip())
            if m:
                cache[m[1]] = m[2]
    shape["build_type"] = cache.get("CMAKE_BUILD_TYPE") or "project default"
    shape["compiler"] = cache.get("CMAKE_CXX_COMPILER", "")
    flags = os.path.join(BUILD_DIR, "tools", "CMakeFiles", "tracon.dir",
                         "flags.make")
    if os.path.isfile(flags):
        with open(flags, encoding="utf-8") as f:
            m = re.search(r"^CXX_FLAGS = (.*)$", f.read(), re.M)
        shape["cxx_flags"] = m[1] if m else ""
    files = os.path.join(BUILD_DIR, "CMakeFiles")
    for d in sorted(os.listdir(files)):
        path = os.path.join(files, d, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                text = f.read()
            ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            shape["compiler_version"] = " ".join(
                m[1] for m in (ident, ver) if m)
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, stdin=subprocess.DEVNULL)
    shape["commit"] = git.stdout.strip() if git.returncode == 0 else "unknown"
    shape["source_sha256"] = source_digest()
    return shape


def source_digest():
    """Digest of the sources the binaries are built from; identifies the
    code where the checkout carries no commit."""
    h = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "tools", "cmake"):
        for root, dirs, names in os.walk(top):
            dirs.sort()
            paths += [os.path.join(root, n) for n in sorted(names)]
    for p in paths:
        if os.path.isfile(p):
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


# ------------------------------------------------------------ invocations

def dynamic_args(wl, seed, outdir):
    """`tracon dynamic` arguments of a workload, exports under outdir."""
    args = ["dynamic"] + COMMON_ARGS + [
        "--seed", str(seed), "--machines", str(wl["machines"]),
        "--lambda", str(wl["lambda"]), "--hours", str(wl["hours"]),
    ] + wl["args"]
    paths = {}
    for name in wl["exports"]:
        paths[name] = os.path.join(outdir, name)
        args += [EXPORTS[name][0], paths[name]]
    return args, paths


def check_shape(wl, seed, summary, fingerprint):
    """Guards against silently ignored flags: the header and fingerprint
    must describe exactly the workload that was asked for."""
    want = {"scheduler": wl["scheduler"], "machines": wl["machines"],
            "lam": wl["lambda"], "hours": f"{wl['hours']:.1f}",
            "mix": "medium"}
    if wl["sharded"]:
        want.update(shards=wl["shards"], threads=THREADS)
    got = {k: summary.get(k) for k in want}
    if got != want:
        raise CheckError(f"summary header {got} != workload {want}")
    want_fp = {"machines": str(wl["machines"]),
               "scheduler": wl["scheduler"], "mix": "medium",
               "seed": str(seed)}
    if wl["sharded"]:
        want_fp.update(shards=str(wl["shards"]), threads=str(THREADS))
    got_fp = {k: fingerprint.get(k) for k in
              ("machines", "scheduler", "mix", "seed", "shards", "threads")}
    want_fp = {k: want_fp.get(k) for k in got_fp}
    if got_fp != want_fp:
        raise CheckError(f"metrics fingerprint {got_fp} != workload {want_fp}")


def digests(paths):
    with concurrent.futures.ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = {n: pool.submit(masked_digest, p) for n, p in paths.items()}
    return {n: f.result() for n, f in futures.items()}


def validate(paths):
    """telemetry_check on every export it knows, two at a time (the trace
    check alone holds several GB at 10^4 machines)."""
    def one(name):
        cmd = [binary("telemetry_check"), "--metrics", paths["metrics"]]
        if name != "metrics":
            cmd += [EXPORTS[name][1], paths[name]]
        r = subprocess.run(cmd, capture_output=True, text=True,
                           stdin=subprocess.DEVNULL)
        return name, r.returncode, r.stderr.strip()

    names = [n for n in paths if EXPORTS[n][1]]
    names.sort(key=lambda n: -os.path.getsize(paths[n]))
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for name, rc, err in pool.map(one, names):
            if rc != 0:
                raise CheckError(f"telemetry_check rejects {name}: {err}")


def any_threads(line):
    """A summary line with its worker count blanked, so values recorded on
    a host with another core count still compare."""
    return re.sub(r", \d+ threads,", ", * threads,", line)


def compare(what, got, want):
    if got != want:
        raise CheckError(f"{what}: got {got}, want {want}")


def measure_dynamic(child, paths):
    """What the metrics need from one `tracon dynamic` invocation."""
    child.require_success()
    summary = parse_summary(child.stdout)
    with open(paths["metrics"], encoding="utf-8") as f:
        metrics = parse_metrics(f.read())
    return {"summary": summary, "metrics": metrics,
            "digests": digests(paths), "wall_s": child.wall_s,
            "maxrss_mb": child.maxrss_mb}


def check_dynamic(wl, seed, result, paths, recorded, reference):
    """All checks of one measured invocation. `reference` is the run's
    first invocation (None for the first itself)."""
    summary, metrics = result["summary"], result["metrics"]
    check_shape(wl, seed, summary, metrics["fingerprint"])
    if (metrics["completed"], metrics["dropped"]) != (
            summary["completed"], summary["dropped"]):
        raise CheckError("summary and metrics counters disagree")
    if recorded is not None:
        compare("summary lines differ from expected.json",
                [any_threads(l) for l in summary["lines"]],
                [any_threads(l) for l in recorded["summary"]])
        compare("counters differ from expected.json", metrics["counters"],
                recorded["counters"])
        compare("export digests differ from expected.json",
                result["digests"], recorded["digests"])
    if reference is None:
        validate(paths)
    else:
        compare("summary lines differ from the first invocation's",
                summary["lines"], reference["summary"]["lines"])
        compare("export digests differ from the first invocation's",
                result["digests"], reference["digests"])


def check_predict(child, recorded):
    child.require_success()
    lines = [l for l in child.stdout.splitlines() if l.strip()]
    if len(lines) != 3 or not lines[0].startswith("video next to blastn"):
        raise CheckError("unexpected `tracon predict` output")
    if recorded is not None:
        compare("predict output differs from expected.json", lines, recorded)
    return child.wall_s, lines


def run_invocations(wl_name, seed, seconds, tally, recorded, deadline):
    """The timed `tracon dynamic` loop: at least the workload's number of
    invocations, then on until `seconds` of child wall time, ending at the
    first failure.
    Returns the measured invocations (a failed check still measured the
    time) and the checked ones."""
    wl = WORKLOADS[wl_name]
    outdir = os.path.join(WORK_DIR, "dynamic")
    measured, done = [], []

    def invoke():
        shutil.rmtree(outdir, ignore_errors=True)
        args, paths = dynamic_args(wl, seed, outdir)
        child = Child([binary("tracon")] + args, CHILD_TIMEOUT_S, outdir)
        result = measure_dynamic(child, paths)
        measured.append(result)
        check_dynamic(wl, seed, result, paths,
                      recorded and recorded.get("dynamic"),
                      done[0] if done else None)
        return result

    while len(done) < wl["invocations"] or \
            sum(d["wall_s"] for d in done) < seconds:
        longest = max([d["wall_s"] for d in done] or [0.0])
        if done and time.monotonic() + 3 * longest > deadline:
            break
        got = tally.attempt(f"dynamic #{len(done) + 1}", invoke)
        shutil.rmtree(outdir, ignore_errors=True)
        if got is None:
            break
        done.append(got)
    return measured, done


# ---------------------------------------------------------------- metrics

def end_to_end(done, setup):
    first = done[0]
    total_s = statistics.median(d["wall_s"] for d in done)
    m = first["metrics"]
    s = first["summary"]
    values = {
        "total_s": total_s,
        "setup_s": statistics.median(setup),
        "tasks_per_s": m["completed"] / total_s,
        "peak_rss_mb": statistics.median(d["maxrss_mb"] for d in done),
        "sim.normalized_throughput": s["completed"] / max(1, s["fifo"]),
        "sim.admitted_ratio": 1.0 - m["dropped"] / max(1, m["arrived"]),
        "sim.mean_latency_s": m["wait_sum"] / max(1, m["wait_count"]) +
                              m["runtime_sum"] / max(1, m["runtime_count"]),
    }
    bases = {
        "total_s": f"median of {len(done)} invocations",
        "setup_s": f"median of {len(setup)} `tracon predict` runs",
        "tasks_per_s": f"{m['completed']} completed / total_s",
        "peak_rss_mb": f"median ru_maxrss of {len(done)} invocations",
        "sim.normalized_throughput":
            f"{s['completed']} completed / {s['fifo']} FIFO completed",
        "sim.admitted_ratio": f"1 - {m['dropped']} dropped / "
                              f"{m['arrived']} arrived",
        "sim.mean_latency_s": f"wait {m['wait_sum']:.6g} s / "
                              f"{m['wait_count']} started + runtime "
                              f"{m['runtime_sum']:.6g} s / "
                              f"{m['runtime_count']} completed (virtual time)",
    }
    return values, bases


PER_LAYER_UNITS = {
    "model.profile.s": "s", "model.profile.runs": "count",
    "sim.perf_table.s": "s", "sim.perf_table.pairs": "count",
    "model.train.s": "s", "model.train.fits": "count",
    "sched.predictor_build.s": "s", "sched.index_build.s": "s",
    "sim.baseline.s": "s", "sim.run.s": "s", "sim.run.ns_per_task": "ns",
    "sim.tasks.arrived": "count", "sim.tasks.placed": "count",
    "sim.tasks.completed": "count", "sim.tasks.dropped": "count",
    "sim.tasks.migrated": "count", "sim.shards": "count",
    "sim.drop_ratio": "ratio", "sim.mean_wait_s": "s",
    "util.parallel.cpu_util": "ratio",
    "sched.schedule.calls": "count", "sched.schedule.busy_s": "s",
    "sched.schedule.share": "ratio", "sched.schedule.us_per_call": "us",
    "sched.placed_per_call": "ratio", "sched.empty_call_ratio": "ratio",
    "sched.predict.queries": "count", "sched.predict.batch_calls": "count",
    "sched.cache.hit_ratio": "ratio", "sched.cache.invalidations": "count",
    "migrate.moves": "count",
    "obs.record.s": "s", "obs.buffered_mb": "MB", "obs.export.s": "s",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}
for _store in ("decisions", "spans", "tracer", "task_events"):
    PER_LAYER_UNITS.update({f"obs.{_store}.records": "count",
                            f"obs.{_store}.write_s": "s",
                            f"obs.{_store}.bytes": "bytes"})


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(phases, fig, wall_s, untraced_total_s):
    """Per-layer metrics from the traced harness's phases and figures."""
    ph = lambda name: phases.get(name, 0.0)
    run_s = ph("sim.run")
    threads = fig["sim.threads"]
    v = {
        "model.profile.s": ph("model.profile"),
        "sim.perf_table.s": ph("sim.perf_table"),
        "model.train.s": ph("model.train"),
        "sched.predictor_build.s": ph("sched.predictor_build"),
        "sched.index_build.s": ph("sched.index_build"),
        "sim.baseline.s": ph("sim.baseline"),
        "sim.run.s": run_s,
        "sim.run.ns_per_task": ratio(run_s * 1e9, fig["sim.tasks.arrived"]),
        "sim.drop_ratio": ratio(fig["sim.tasks.dropped"],
                                fig["sim.tasks.arrived"]),
        "sim.mean_wait_s": ratio(fig["sim.wait.sum_s"], fig["sim.wait.count"]),
        "util.parallel.cpu_util": ratio(fig["sim.run.cpu_s"],
                                        run_s * threads),
        "sched.schedule.share": ratio(fig["sched.schedule.busy_s"],
                                      run_s * threads),
        "sched.schedule.us_per_call": ratio(fig["sched.schedule.busy_s"] * 1e6,
                                            fig["sched.schedule.calls"]),
        "sched.placed_per_call": ratio(fig["sched.schedule.placed"],
                                       fig["sched.schedule.calls"]),
        "sched.empty_call_ratio": ratio(fig["sched.schedule.empty_calls"],
                                        fig["sched.schedule.calls"]),
        "sched.cache.hit_ratio": ratio(fig["sched.cache.hits"],
                                       fig["sched.cache.lookups"]),
        "obs.export.s": ph("obs.export"),
        "trace.coverage": ratio(sum(phases.values()), wall_s),
        "trace.overhead_s":
            wall_s - ph("obs.sinks_off_run") - untraced_total_s,
    }
    v = {k: v[k] if k in v else fig[k] for k in PER_LAYER_UNITS}
    calls = fig["sched.schedule.calls"]
    bases = {
        "sim.run.ns_per_task": f"sim.run.s / {fig['sim.tasks.arrived']:.0f} "
                               "arrived tasks",
        "sim.drop_ratio": f"{fig['sim.tasks.dropped']:.0f} dropped / "
                          f"{fig['sim.tasks.arrived']:.0f} arrived",
        "sim.mean_wait_s": f"{fig['sim.wait.sum_s']:.6g} s / "
                           f"{fig['sim.wait.count']:.0f} started tasks",
        "util.parallel.cpu_util": f"{fig['sim.run.cpu_s']:.4g} CPU s / "
                                  f"({run_s:.4g} s x {threads:.0f} threads)",
        "sched.schedule.share": f"{fig['sched.schedule.busy_s']:.4g} busy s / "
                                f"({run_s:.4g} s x {threads:.0f} threads)",
        "sched.schedule.us_per_call": f"busy time / {calls:.0f} calls",
        "sched.placed_per_call": f"{fig['sched.schedule.placed']:.0f} placed "
                                 f"/ {calls:.0f} calls",
        "sched.empty_call_ratio": f"{fig['sched.schedule.empty_calls']:.0f} "
                                  f"empty / {calls:.0f} calls",
        "sched.cache.hit_ratio": f"{fig['sched.cache.hits']:.0f} hits / "
                                 f"{fig['sched.cache.lookups']:.0f} lookups",
        "trace.coverage": f"sum of {len(phases)} phases / {wall_s:.4g} s "
                          "traced wall time",
        "trace.overhead_s": f"traced {wall_s - ph('obs.sinks_off_run'):.4g} s"
                            f" - untraced median {untraced_total_s:.4g} s",
        "obs.record.s": "sim.run.s with the record stores on - off",
    }
    return v, bases


def run_traced(wl_name, seed, tally, reference, untraced_total_s):
    """One perfbench_traced invocation, checked against the CLI's."""
    wl = WORKLOADS[wl_name]
    outdir = os.path.join(WORK_DIR, "traced")
    shutil.rmtree(outdir, ignore_errors=True)
    args, paths = dynamic_args(wl, seed, outdir)

    def check():
        child = Child([binary("perfbench_traced")] + args, CHILD_TIMEOUT_S,
                      outdir)
        child.require_success()
        summary = parse_summary(child.stdout)
        compare("traced summary lines differ from the CLI's",
                summary["lines"], reference["summary"]["lines"])
        compare("traced export digests differ from the CLI's",
                digests(paths), reference["digests"])
        try:
            raw = json.loads(child.stdout.strip().splitlines()[-1])
            values, bases = per_layer(raw["phases"], raw["figures"],
                                      child.wall_s, untraced_total_s)
        except (ValueError, KeyError, IndexError) as e:
            raise CheckError(f"malformed traced figures: {e!r}")
        if values["trace.coverage"] < MIN_COVERAGE:
            raise CheckError(f"trace.coverage {values['trace.coverage']:.3f}"
                             f" < {MIN_COVERAGE}")
        return values, bases

    got = tally.attempt("traced", check)
    shutil.rmtree(outdir, ignore_errors=True)
    return got


# ------------------------------------------------------------------- main

def load_expected(workload, seed):
    with open(EXPECTED_FILE, encoding="utf-8") as f:
        return json.load(f).get(workload, {}).get(str(seed))


def print_metrics(title, values, units, bases):
    print(f"{title}:")
    for name, value in values.items():
        base = f"   ({bases[name]})" if name in bases else ""
        print(f"  {name:34s} {value:16.6g} {units[name]:6s}{base}")


def run_workload(name, seed, seconds, trace):
    """One workload's run: prints its metrics and returns the result
    object, or None when nothing could be measured."""
    deadline = time.monotonic() + RUN_BUDGET_S
    recorded = load_expected(name, seed)
    if recorded is None:
        print(f"seed {seed} has no recorded values: validators only")
    tally = Tally()

    setup = []
    predict_lines = None
    if trace == 0:
        cmd = [binary("tracon"), "predict", "--fg", "video", "--bg",
               "blastn", "--seed", str(seed)] + COMMON_ARGS[:4]
        for i in range(SETUP_REPEATS):
            t = tally.attempt(f"predict #{i + 1}", lambda: check_predict(
                Child(cmd, CHILD_TIMEOUT_S, os.path.join(WORK_DIR, "predict")),
                recorded and recorded.get("predict")))
            if t is not None:
                setup.append(t[0])
                predict_lines = t[1]

    measured, done = run_invocations(name, seed, seconds, tally, recorded,
                                     deadline)
    if not measured or (trace == 0 and not setup) or (trace and not done):
        print(f"run.py: {name}: nothing measured", file=sys.stderr)
        return None
    first = measured[0]
    observed = {"dynamic": {"summary": first["summary"]["lines"],
                            "counters": first["metrics"]["counters"],
                            "digests": first["digests"]}}
    if predict_lines:
        observed["predict"] = predict_lines
    print("observed:", json.dumps(observed, sort_keys=True))

    if trace == 0:
        values, bases = end_to_end(measured, setup)
        units = dict(END_TO_END)
    else:
        total_s = statistics.median(d["wall_s"] for d in done)
        got = run_traced(name, seed, tally, first, total_s)
        if got is None:
            print(f"run.py: {name}: the traced invocation failed",
                  file=sys.stderr)
            return None
        values, bases = got
        units = PER_LAYER_UNITS

    print_metrics(f"{name} seed {seed}", values, units, bases)
    failed = len(tally.failures)
    print(f"{name}: attempted {tally.attempted}, failed {failed}")
    return {"correct": failed == 0, "attempted": tally.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    build()
    print("host:", json.dumps(host_shape(), sort_keys=True))
    if a.workload != "all":
        result = run_workload(a.workload, a.seed, a.seconds, a.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    # Every workload in turn; metrics are named <workload>/<metric>.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = run_workload(name, a.seed, a.seconds, a.trace)
        if result is None:
            return 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v
                                 for k, v in result["metrics"].items()})
    print(f"all: attempted {total['attempted']}, failed {total['failed']}")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
