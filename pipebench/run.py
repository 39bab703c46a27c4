#!/usr/bin/env python3
"""Whole-pipeline benchmark of fstg: gen-suite, sim-large and serve-mixed.

Run one workload (the form the benchmark catalog in BENCHMARK.json names):

    python3 pipebench/run.py --workload gen-suite --seed 1 --seconds 20 --trace 0

--trace 0 times the real `fstg` binary from outside, one child process per
CLI job (or one `fstg serve` daemon for serve-mixed), and prints every
end-to-end metric. --trace 1 makes the traced in-process replay instead and
prints every per-layer metric. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Every output is checked
after the timed region; a failed check makes the exit code nonzero.

Other modes:

    run.py ab --fstg-a A --fstg-b B --workload W [--pairs 10]
        alternate two fstg binaries, each run BENCHMARK.json's run_seconds
        long, and apply the nine-in-ten rule
    run.py compare RESULTS_A.jsonl RESULTS_B.jsonl
        compare two result logs written with --result-out; refuses when
        their environment stamps differ
    run.py pin --fstg F
        rewrite golden.json's digests from binary F (only when outputs are
        meant to change); refuses when a test file's cycles newly exceed the
        per-transition baseline

The benchmark builds `fstg` and its companion `pipebench` tool from the
sources around this directory into $CARGO_TARGET_DIR (default .bench_build).
See README.md here for the workloads, the metrics and what they predict.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_PATH = os.path.join(HERE, "golden.json")
CATALOG_PATH = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("gen-suite", "sim-large", "serve-mixed")
SIM_CIRCUITS = ("rie", "dvram", "fetch")
# Set-ups per run; setup_s is their median. gen-suite's set-up takes a few
# milliseconds, so it is repeated more to steady the median.
SETUP_REPS = {"gen-suite": 25, "sim-large": 3, "serve-mixed": 5}
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, build failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build fstg and pipebench (a no-op when fresh)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "tools"))):
        raise BenchError("the fstg sources (CMakeLists.txt, src/, tools/) "
                         "are not next to " + os.path.basename(HERE))
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "pipebench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", bdir, "--target", "fstg_cli",
                  "pipebench", "-j", str(os.cpu_count() or 1)])
    with open(logf, "ab") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                raise BenchError("build failed: " + " ".join(cmd) +
                                 " (log: " + logf + ")")
    return (os.path.join(bdir, "fstg", "tools", "fstg"),
            os.path.join(bdir, "pipebench"))


# --- environment stamp --------------------------------------------------------

def cmake_cache_near(binary):
    """CMakeCache.txt of the build tree that holds `binary`, if any."""
    d = os.path.dirname(os.path.abspath(binary))
    for _ in range(4):
        path = os.path.join(d, "CMakeCache.txt")
        if os.path.isfile(path):
            return path
        d = os.path.dirname(d)
    return None


def binary_stamp(binary):
    """Build type, compiler and source tree of the build that made `binary`.

    The source tree is fstg_SOURCE_DIR of the binary's CMakeCache.txt, None
    when there is no cache.
    """
    build_type, compiler, source = "unknown", "unknown", None
    cache = cmake_cache_near(binary)
    if cache:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip() or "unknown"
                elif line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("fstg_SOURCE_DIR:"):
                    source = line.split("=", 1)[1].strip()
    if build_type == "unknown" and source:
        # Configured without a build type: the project's CMakeLists.txt
        # picks its default.
        try:
            with open(os.path.join(source, "CMakeLists.txt")) as f:
                m = re.search(r"set\(CMAKE_BUILD_TYPE\s+(\w+)\)", f.read())
            build_type = m.group(1) if m else build_type
        except OSError:
            pass
    if compiler != "unknown":
        try:
            compiler = subprocess.run([compiler, "--version"],
                                      capture_output=True, text=True,
                                      timeout=30).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            pass
    return {"build_type": build_type, "compiler": compiler,
            "fstg": os.path.abspath(binary)}, source


def source_rev(source):
    """Git revision of the source tree `source`, or a content digest."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=source, capture_output=True, text=True,
                             timeout=30)
        lines = out.stdout.split()
        # Only a repository rooted there names these sources.
        if out.returncode == 0 and os.path.realpath(lines[0]) == \
                os.path.realpath(source):
            return lines[1]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    # A plain checkout: name the sources by content instead.
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(source, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(dp, f) for dp, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, source).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(fstg):
    """The environment of a result. git_rev names the sources `fstg` was
    built from; git_rev_of says whether they were found through the
    binary's build tree or, failing that, are this benchmark's own."""
    s, source = binary_stamp(fstg)
    if source and os.path.isdir(source):
        s["git_rev"], s["git_rev_of"] = source_rev(source), "binary build tree"
    else:
        s["git_rev"] = source_rev(ROOT)
        s["git_rev_of"] = "benchmark checkout (no build tree found)"
    s.update({"nproc": os.cpu_count(), "cpu": cpu_model()})
    return s


# Stamp fields two results must share to be compared at all.
ENV_KEYS = ("nproc", "cpu", "build_type", "compiler")


def env_of(s):
    return {k: s.get(k) for k in ENV_KEYS}


# --- small helpers ------------------------------------------------------------

def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(values, q):
    """Inclusive-method percentile (q in 0..100); 0 for no values."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def load_catalog():
    with open(CATALOG_PATH) as f:
        return json.load(f)


def run_child(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion; returns (exit code, seconds, max RSS MB).

    wait4 reports the child's own peak RSS, whichever other children ran.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def serve_circuits(tool):
    """The serve-mixed circuit set, in the order the request stream's
    generator names them (every block of the stream holds all of them)."""
    out = subprocess.run([tool, "stream", "--seed", "1"], cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return sorted({line.split()[2] for line in out.stdout.splitlines()})


def run_tool(argv):
    """Run a pipebench subcommand; returns (exit code, parsed JSON or None).

    Each subcommand prints exactly one JSON document on stdout.
    """
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.stderr:
        log(out.stderr.rstrip())
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        doc = None
    return out.returncode, doc


class Checks:
    """Counts output checks; every failure is logged with its reason."""

    def __init__(self):
        self.failed = 0
        self.checked = 0

    def expect(self, ok, what):
        self.checked += 1
        if not ok:
            self.failed += 1
            log("CHECK FAILED: " + what)
        return ok


# --- output checks ------------------------------------------------------------

def check_gen_files(checks, golden, directory, circuits):
    for c in circuits:
        path = os.path.join(directory, c + ".tst")
        digest = sha256_file(path) if os.path.isfile(path) else "missing"
        checks.expect(digest == golden["gen"].get(c),
                      "test file for %s differs from the pinned digest" % c)


def check_coverage_text(checks, golden, circuit, text):
    """A `fstg sim` stdout: pinned digest and 100% detectable coverage.

    Returns the lowest detectable coverage on it (0 when unparsable).
    """
    checks.expect(sha256_text(text) == golden["sim"].get(circuit),
                  "coverage lines for %s differ from the pinned digest"
                  % circuit)
    covs = []
    for line in text.splitlines():
        if "detectable coverage" in line:
            try:
                covs.append(float(line.split("detectable coverage")[1]
                                  .split("%")[0]))
            except (IndexError, ValueError):
                pass
    cov = min(covs) if len(covs) == 2 else 0.0
    checks.expect(cov == 100.0,
                  "detectable coverage of %s is %s, not 100" % (circuit, cov))
    return cov


def run_check_gen(checks, golden, tool, directory, circuits, seed, notes):
    """State-transition coverage and the cycle bound, in the library.

    Test-application cycles must not exceed the per-transition baseline.
    golden.json pins the circuits that already exceed it at the pinned
    commit, with their cycle counts: those are reported in the notes on
    every run (a known defect, not hidden), and fail only if they grow.
    Returns app_cycles_pct over `circuits`.
    """
    rc, doc = run_tool([tool, "check-gen", "--dir", directory, "--circuits",
                        ",".join(circuits), "--seed", str(seed)])
    if not checks.expect(rc == 0 and doc is not None,
                         "check-gen failed (exit %d)" % rc):
        return 0.0
    known = golden["cycles_over_baseline"]
    over = []
    for c in circuits:
        cycles, base = doc[c]["cycles"], doc[c]["per_transition_cycles"]
        if cycles > base:
            over.append("%s %d > %d" % (c, cycles, base))
        checks.expect(cycles <= max(base, known.get(c, 0)),
                      "%s needs %d test-application cycles, above the "
                      "per-transition baseline %d" % (c, cycles, base))
    if over:
        notes["cycles_over_baseline"] = ", ".join(over)
    cycles = sum(doc[c]["cycles"] for c in circuits)
    base = sum(doc[c]["per_transition_cycles"] for c in circuits)
    return 100.0 * cycles / base if base else 0.0


def run_check_sim(checks, tool, directory, circuits, seed):
    rc, doc = run_tool([tool, "check-sim", "--dir", directory, "--circuits",
                        ",".join(circuits), "--seed", str(seed)])
    checks.expect(rc == 0 and doc is not None and all(
        doc[c]["agree"] == doc[c]["checked"] > 0 for c in circuits),
        "engine and reference simulator disagree (exit %d)" % rc)


def serve_sim_key(circuit, static_prune):
    return "%s/%d" % (circuit, 1 if static_prune else 0)


SIM_FIELDS = ("sa_detected", "sa_total", "br_detected", "br_total")


def check_serve_sim(checks, golden, circuit, static_prune, result):
    want = golden["serve_sim"].get(serve_sim_key(circuit, static_prune), {})
    got = {k: result.get(k) for k in want}
    return checks.expect(want and got == want,
                         "serve sim %s (static_prune=%s) gave %s, pinned %s"
                         % (circuit, static_prune, got, want))


# --- workloads ----------------------------------------------------------------

class Context:
    def __init__(self, args, fstg, tool):
        self.args = args
        self.fstg = fstg
        self.tool = tool
        self.golden = load_golden()
        self.work = os.path.join(".bench_work", "%s-%d-%d" % (
            args.workload, args.seed, os.getpid()))
        os.makedirs(os.path.join(ROOT, self.work), exist_ok=True)
        self.checks = Checks()

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def abspath(self, *parts):
        return os.path.join(ROOT, self.work, *parts)


def timed_setups(workload, fn):
    """Run a set-up SETUP_REPS times; returns (median seconds, last result)."""
    times, result = [], None
    for _ in range(SETUP_REPS[workload]):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def cli_passes(ctx, jobs, seconds):
    """Run the job list as passes while another pass fits in `seconds`.

    jobs: list of (name, argv, stdout path or None); "{n}" in a stdout
    path becomes the pass number. Returns per-pass wall seconds, per-job
    latencies in ms, exit failures and the peak RSS.
    """
    walls, lat, failures, rss = [], [], 0, 0.0
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for name, argv, out_path in jobs:
            out = open(os.path.join(ROOT, out_path.format(n=len(walls))),
                       "wb") if out_path else subprocess.DEVNULL
            try:
                rc, sec, mb = run_child(argv, stdout=out)
            finally:
                if out_path:
                    out.close()
            lat.append(sec * 1000.0)
            rss = max(rss, mb)
            if rc != 0:
                failures += 1
                log("job %s exited %d" % (name, rc))
        walls.append(time.perf_counter() - p0)
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    return walls, lat, failures, rss


def gen_suite_setup(ctx):
    out = subprocess.run([ctx.fstg, "list"], cwd=ROOT, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S)
    names = [line.split()[0] for line in out.stdout.splitlines()[1:]
             if line.strip()]
    if out.returncode != 0 or sorted(names) != sorted(ctx.golden["gen"]):
        raise BenchError("`fstg list` does not name the pinned circuit set")
    order = list(names)
    random.Random(ctx.args.seed).shuffle(order)
    os.makedirs(ctx.abspath("gen"), exist_ok=True)
    return order


def sim_large_setup(ctx):
    order = list(SIM_CIRCUITS)
    random.Random(ctx.args.seed).shuffle(order)
    os.makedirs(ctx.abspath("tests"), exist_ok=True)
    for c in order:
        rc, _, _ = run_child([ctx.fstg, "gen", c, "-o",
                              ctx.path("tests", c + ".tst")])
        if rc != 0:
            raise BenchError("set-up `fstg gen %s` exited %d" % (c, rc))
    return order


def cli_metrics(walls, lat, jobs_per_pass, failures, rss):
    return {
        "wall_s": statistics.median(walls),
        "jobs_per_s": statistics.median(
            [jobs_per_pass / w for w in walls]),
        "peak_rss_mb": rss,
    }


def run_gen_suite(ctx):
    setup_s, order = timed_setups("gen-suite", lambda: gen_suite_setup(ctx))
    jobs = [(c, [ctx.fstg, "gen", c, "-o", ctx.path("gen", c + ".tst")], None)
            for c in order]
    walls, lat, failures, rss = cli_passes(ctx, jobs, ctx.args.seconds)
    # Checks, outside the timed region.
    check_gen_files(ctx.checks, ctx.golden, ctx.abspath("gen"), order)
    notes = {"passes": len(walls), "latency_samples": len(lat),
             "job_ms_p50": percentile(lat, 50),
             "job_ms_p90": percentile(lat, 90)}
    cycles_pct = run_check_gen(ctx.checks, ctx.golden, ctx.tool,
                               ctx.path("gen"), order, ctx.args.seed, notes)
    m = {"setup_s": setup_s}
    m.update(cli_metrics(walls, lat, len(jobs), failures, rss))
    m["app_cycles_pct"] = cycles_pct
    return m, len(lat), failures, notes


def run_sim_large(ctx):
    setup_s, order = timed_setups("sim-large", lambda: sim_large_setup(ctx))
    jobs = [(c, [ctx.fstg, "sim", c, ctx.path("tests", c + ".tst")],
             ctx.path("cov-" + c + "-{n}.txt")) for c in order]
    walls, lat, failures, rss = cli_passes(ctx, jobs, ctx.args.seconds)
    covs = []
    for p in range(len(walls)):
        for c in order:
            with open(ctx.abspath("cov-%s-%d.txt" % (c, p))) as f:
                covs.append(check_coverage_text(ctx.checks, ctx.golden, c,
                                                f.read()))
    check_gen_files(ctx.checks, ctx.golden, ctx.abspath("tests"), order)
    run_check_sim(ctx.checks, ctx.tool, ctx.path("tests"), order,
                  ctx.args.seed)
    notes = {"passes": len(walls), "latency_samples": len(lat),
             "job_ms_p50": percentile(lat, 50),
             "job_ms_p90": percentile(lat, 90),
             "detectable_cov_pct": min(covs)}
    cycles_pct = run_check_gen(ctx.checks, ctx.golden, ctx.tool,
                               ctx.path("tests"), order, ctx.args.seed, notes)
    m = {"setup_s": setup_s}
    m.update(cli_metrics(walls, lat, len(jobs), failures, rss))
    m["app_cycles_pct"] = cycles_pct
    return m, len(lat), failures, notes


class Daemon:
    """One `fstg serve` child on a unix socket under the work directory."""

    def __init__(self, ctx, tag):
        self.ctx = ctx
        self.socket = ctx.path("s%d.sock" % tag)
        self.proc = None

    def start_and_warm(self):
        sock = os.path.join(ROOT, self.socket)
        if os.path.exists(sock):
            os.unlink(sock)
        self.proc = subprocess.Popen([self.ctx.fstg, "serve", "--socket",
                                      self.socket, "--log-level", "error"],
                                     cwd=ROOT, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        os.makedirs(self.ctx.abspath("warm"), exist_ok=True)
        rc, _ = run_tool([self.ctx.tool, "serve-warm", "--socket",
                            self.socket, "--out-dir", self.ctx.path("warm")])
        if rc != 0:
            raise BenchError("serve warm-up failed (exit %d)" % rc)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM, then wait; the daemon drains and exits 0."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self.proc = None
        return rc


def serve_setup(ctx, daemons):
    d = Daemon(ctx, len(daemons))
    daemons.append(d)
    d.start_and_warm()
    return d


def serve_load(ctx, daemon, seconds):
    """Run the closed-loop load; with seconds 0, exactly one stream."""
    rc, doc = run_tool([ctx.tool, "serve-load", "--socket", daemon.socket,
                        "--seed", str(ctx.args.seed), "--seconds",
                        str(seconds), "--tests-dir", ctx.path("warm"),
                        "--out", ctx.path("load.jsonl")])
    if rc != 0 or doc is None:
        raise BenchError("serve load failed (exit %d)" % rc)
    records = []
    with open(ctx.abspath("load.jsonl")) as f:
        for line in f:
            records.append(json.loads(line))
    return doc, records


def stream_windows(records, length):
    """Steady-state time for each successive `length` completions.

    The clients never drain between streams, so the span from one
    window's last completion to the next's is the host time the daemon
    took for `length` requests at full load. The first window starts when
    the clients do. Returns (seconds per full window, ok replies in each).
    """
    done = sorted(records, key=lambda r: r["done_ms"])
    walls, oks = [], []
    prev_ms = 0.0
    for end in range(length, len(done) + 1, length):
        window = done[end - length:end]
        walls.append((window[-1]["done_ms"] - prev_ms) / 1000.0)
        oks.append(sum(1 for r in window
                       if r["response"].get("status") == "ok"))
        prev_ms = window[-1]["done_ms"]
    return walls, oks


def check_serve_records(ctx, records):
    """Checks every response: status ok, and the pinned output."""
    warm = {}
    circuits = serve_circuits(ctx.tool)
    for c in circuits:
        with open(ctx.abspath("warm", c + ".tst")) as f:
            warm[c] = f.read()
    check_gen_files(ctx.checks, ctx.golden, ctx.abspath("warm"), circuits)
    for r in records:
        resp = r["response"]
        ok = ctx.checks.expect(resp.get("status") == "ok",
                               "request %d (%s %s) answered %s: %s" % (
                                   r["index"], r["type"], r["circuit"],
                                   resp.get("status"), resp.get("error")))
        if ok and r["type"] == "gen":
            ok = ctx.checks.expect(
                resp["result"].get("test_file") == warm[r["circuit"]],
                "serve gen %s differs from the warm-up test file"
                % r["circuit"])
        elif ok:
            check_serve_sim(ctx.checks, ctx.golden, r["circuit"],
                            r["static_prune"], resp["result"])


def run_serve_mixed(ctx):
    daemons = []
    try:
        setup_times = []
        reps = SETUP_REPS["serve-mixed"]
        for i in range(reps):
            t0 = time.perf_counter()
            daemon = serve_setup(ctx, daemons)
            setup_times.append(time.perf_counter() - t0)
            if i + 1 < reps:
                daemon.stop()
        doc, records = serve_load(ctx, daemon, ctx.args.seconds)
        rss = daemon.peak_rss_mb()
        ctx.checks.expect(daemon.stop() == 0, "daemon did not exit cleanly")
    finally:
        for d in daemons:
            d.stop()
    check_serve_records(ctx, records)
    notes = {}
    cycles_pct = run_check_gen(ctx.checks, ctx.golden, ctx.tool,
                               ctx.path("warm"), serve_circuits(ctx.tool),
                               ctx.args.seed, notes)
    lat = [r["latency_ms"] for r in records]
    by_type = {t: [r["latency_ms"] for r in records if r["type"] == t]
               for t in ("gen", "sim")}
    walls, oks = stream_windows(records, doc["stream_length"])
    m = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "jobs_per_s": statistics.median(
            [ok / w for ok, w in zip(oks, walls)]),
        "peak_rss_mb": rss,
        "app_cycles_pct": cycles_pct,
    }
    # The stream is half gens of about a millisecond and half sims of
    # hundreds, so the median of all requests falls in the gap between the
    # two kinds and swings from run to run: it is a note, and the per-type
    # medians beside it are the stable figures.
    notes.update({"windows": len(walls), "requests": len(records),
             "latency_samples": len(lat),
             "job_ms_p50": percentile(lat, 50),
             "job_ms_p90": percentile(lat, 90),
             "gen_ms_p50": percentile(by_type["gen"], 50),
             "gen_samples": len(by_type["gen"]),
             "sim_ms_p50": percentile(by_type["sim"], 50),
             "sim_samples": len(by_type["sim"])})
    return m, len(records), 0, notes


# --- traced runs ----------------------------------------------------------------

SERVE_LAYER_KEYS = ("serve.service_ms_p50", "serve.queue_ms_p50",
                    "serve.gen_ms_p50", "serve.sim_ms_p50",
                    "serve.hot_hit_ratio", "serve.shed", "serve.resp_bytes")


def run_trace_tool(ctx, argv):
    rc, layers = run_tool([ctx.tool, "trace", "--out",
                           ctx.path("spans.json")] + argv)
    if rc != 0 or layers is None:
        raise BenchError("traced replay failed (exit %d)" % rc)
    with open(ctx.abspath("spans.json")) as f:
        spans = json.load(f)
    return layers, spans


# Share of the traced wall time that may fall outside every layer span.
MAX_UNATTRIBUTED = 0.02


def check_attribution(ctx, layers):
    """The layer spans must cover the replay: time between them (the self
    time of the run and job spans) stays a small share of the traced wall
    time. Work moved out of the layer calls, or a call the replay makes
    without a span, fails this."""
    ctx.checks.expect(
        layers["trace.unattributed_s"]
        <= MAX_UNATTRIBUTED * layers["trace.wall_s"],
        "%.3f s of the %.3f s traced run is outside every layer span" % (
            layers["trace.unattributed_s"], layers["trace.wall_s"]))


def trace_cli(ctx, workload):
    if workload == "gen-suite":
        order = gen_suite_setup(ctx)
        jobs = [(c, [ctx.fstg, "gen", c, "-o", ctx.path("gen", c + ".tst")],
                 None) for c in order]
    else:
        order = sim_large_setup(ctx)
        jobs = [(c, [ctx.fstg, "sim", c, ctx.path("tests", c + ".tst")],
                 None) for c in order]
    walls, lat, failures, _ = cli_passes(ctx, jobs, 0)
    os.makedirs(ctx.abspath("traced"), exist_ok=True)
    argv = ["--workload", workload, "--circuits", ",".join(order),
            "--out-dir", ctx.path("traced")]
    if workload == "sim-large":
        argv += ["--tests-dir", ctx.path("tests")]
    layers, _ = run_trace_tool(ctx, argv)
    if workload == "gen-suite":
        check_gen_files(ctx.checks, ctx.golden, ctx.abspath("traced"), order)
    else:
        for c in order:
            with open(ctx.abspath("traced", c + ".cov")) as f:
                check_coverage_text(ctx.checks, ctx.golden, c, f.read())
    check_attribution(ctx, layers)
    layers["trace.untraced_s"] = walls[0]
    for key in SERVE_LAYER_KEYS:
        layers[key] = 0.0
    return layers, len(lat), failures


def trace_serve(ctx):
    daemons = []
    try:
        daemon = serve_setup(ctx, daemons)
        doc, records = serve_load(ctx, daemon, 0)
        ctx.checks.expect(daemon.stop() == 0, "daemon did not exit cleanly")
    finally:
        for d in daemons:
            d.stop()
    check_serve_records(ctx, records)
    ok = [r for r in records if r["response"].get("status") == "ok"]
    service = [r["response"]["wall_ms"] for r in ok]
    counters = {c["name"]: c["value"]
                for c in doc["metrics"]["result"].get("counters", [])}
    layers, spans = run_trace_tool(ctx, ["--workload", "serve-mixed",
                                         "--seed", str(ctx.args.seed),
                                         "--tests-dir", ctx.path("warm")])
    # The in-process replay must give the daemon's answers.
    for out in spans["outputs"]:
        if out["type"] == "sim":
            check_serve_sim(ctx.checks, ctx.golden, out["circuit"],
                            out["static_prune"], out["result"])
    check_attribution(ctx, layers)
    layers.update({
        "serve.service_ms_p50": percentile(service, 50),
        "serve.queue_ms_p50": percentile(
            [r["latency_ms"] - r["response"]["wall_ms"] for r in ok], 50),
        "serve.gen_ms_p50": percentile(
            [r["latency_ms"] for r in ok if r["type"] == "gen"], 50),
        "serve.sim_ms_p50": percentile(
            [r["latency_ms"] for r in ok if r["type"] == "sim"], 50),
        "serve.hot_hit_ratio": sum(1 for r in ok if r["response"]["result"]
                                   .get("cache_hit")) / max(1, len(ok)),
        "serve.shed": float(counters.get("serve.shed", 0)),
        "serve.resp_bytes": statistics.mean(r["bytes"] for r in records),
        # What the same requests cost inside the daemon (service time).
        "trace.untraced_s": sum(service) / 1000.0,
    })
    return layers, len(records), 0


# --- result assembly ------------------------------------------------------------

def catalog_names(catalog, trace):
    section = catalog["per_layer"] if trace else catalog["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def assemble(catalog, trace, values):
    """Map measured values onto the catalog; names must match exactly."""
    units = catalog_names(catalog, trace)
    if set(values) != set(units):
        raise BenchError("measured metrics %s do not match the catalog %s" % (
            sorted(set(values) ^ set(units)), "per_layer" if trace
            else "end_to_end"))
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in sorted(units)}


def run_workload(args, fstg, tool):
    """One run. Returns (result dict, notes dict, stamp)."""
    ctx = Context(args, fstg, tool)
    catalog = load_catalog()
    try:
        if args.trace and args.workload == "serve-mixed":
            values, attempted, failed = trace_serve(ctx)
            notes = {}
        elif args.trace:
            values, attempted, failed = trace_cli(ctx, args.workload)
            notes = {}
        else:
            runner = {"gen-suite": run_gen_suite, "sim-large": run_sim_large,
                      "serve-mixed": run_serve_mixed}[args.workload]
            values, attempted, failed, notes = runner(ctx)
    finally:
        if not args.keep:
            shutil.rmtree(os.path.join(ROOT, ctx.work), ignore_errors=True)
    # Attempted operations are the timed jobs plus the output checks; a
    # nonzero exit, a non-ok response and a failed check each count once.
    attempted += ctx.checks.checked
    failed += ctx.checks.failed
    metrics = assemble(catalog, args.trace, values)
    result = {"correct": failed == 0, "attempted": max(1, attempted),
              "failed": failed, "metrics": metrics}
    notes["failed_frac"] = failed / max(1, attempted)
    notes["checks"] = ctx.checks.checked
    notes["checks_failed"] = ctx.checks.failed
    return result, notes, stamp(fstg)


NOTE_UNITS = {"job_ms_p50": "ms", "job_ms_p90": "ms", "gen_ms_p50": "ms",
              "sim_ms_p50": "ms", "detectable_cov_pct": "%",
              "failed_frac": "ratio"}


def print_human(result, notes, st):
    print("stamp: " + json.dumps(st, sort_keys=True))
    for name, m in result["metrics"].items():
        print("%-28s %14.6f %s" % (name, m["value"], m["unit"]))
    for name, v in sorted(notes.items()):
        print("%-28s %14s %s" % (name, v, NOTE_UNITS.get(name, "")))


def cmd_run(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fstg", help="fstg binary to time (default: the one "
                   "built from these sources)")
    p.add_argument("--result-out", help="append the stamped result to this "
                   "JSONL file (for `compare`)")
    p.add_argument("--keep", action="store_true",
                   help="keep the run's work directory under .bench_work")
    args = p.parse_args(argv)
    fstg, tool = build()
    fstg = args.fstg or fstg
    result, notes, st = run_workload(args, fstg, tool)
    print_human(result, notes, st)
    if args.result_out:
        with open(args.result_out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "stamp": st,
                                "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --- comparison: compare and A/B --------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def better_of(catalog):
    return {m["name"]: m["better"] for m in catalog["end_to_end"]}


def verdict(a_vals, b_vals, better):
    """Nine-in-ten rule over paired runs (choosing-metrics guide, s. 8).

    B is claimed better (or worse) only if it wins (loses) at least 9/10 of
    the pairs, ties counting for neither, and the medians differ by more
    than A's own interquartile spread.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(a_vals, b_vals) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(a_vals, b_vals) if sign * (b - a) < 0)
    qa, qb = quartiles(a_vals), quartiles(b_vals)
    spread = qa[2] - qa[0]
    gap = abs(qb[1] - qa[1])
    n = len(a_vals)
    if wins >= 0.9 * n and gap > spread:
        return "B better", wins, losses
    if losses >= 0.9 * n and gap > spread:
        return "B worse", wins, losses
    return "no claim", wins, losses


def cmd_ab(argv):
    p = argparse.ArgumentParser(description="A/B two fstg binaries.")
    p.add_argument("--fstg-a", required=True)
    p.add_argument("--fstg-b", required=True)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 10:
        log("note: fewer than ten pairs cannot support a claim")
    _, tool = build()
    catalog = load_catalog()
    seconds = catalog["run_seconds"]
    stamps = {"A": stamp(args.fstg_a), "B": stamp(args.fstg_b)}
    if env_of(stamps["A"]) != env_of(stamps["B"]):
        log("refusing to compare: environment stamps differ:\n  A %s\n  B %s"
            % (env_of(stamps["A"]), env_of(stamps["B"])))
        return 2
    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            run_args = argparse.Namespace(
                workload=args.workload, seed=args.seed + i,
                seconds=seconds, trace=0, keep=False)
            binary = args.fstg_a if side == "A" else args.fstg_b
            result, _, _ = run_workload(run_args, binary, tool)
            if not result["correct"]:
                log("pair %d side %s failed its output checks" % (i, side))
                return 1
            runs[side].append(result["metrics"])
    better = better_of(catalog)
    report = {"workload": args.workload, "pairs": args.pairs,
              "seconds": seconds, "stamps": stamps, "metrics": {}}
    print("%-16s %-34s %-34s %s" % ("metric", "A q1/median/q3",
                                    "B q1/median/q3", "verdict (B wins)"))
    for name in sorted(better):
        a = [r[name]["value"] for r in runs["A"]]
        b = [r[name]["value"] for r in runs["B"]]
        v, wins, losses = verdict(a, b, better[name])
        qa, qb = quartiles(a), quartiles(b)
        report["metrics"][name] = {"A": qa, "B": qb, "verdict": v,
                                   "b_wins": wins, "b_losses": losses}
        print("%-16s %-34s %-34s %s (%d/%d)" % (
            name, "%.4g / %.4g / %.4g" % qa, "%.4g / %.4g / %.4g" % qb, v,
            wins, args.pairs))
    print(json.dumps(report))
    return 0


def cmd_compare(argv):
    p = argparse.ArgumentParser(description="Compare two result logs.")
    p.add_argument("a")
    p.add_argument("b")
    args = p.parse_args(argv)
    logs = {}
    for side, path in (("A", args.a), ("B", args.b)):
        with open(path) as f:
            logs[side] = [json.loads(line) for line in f if line.strip()]
        if not logs[side]:
            log("no results in " + path)
            return 2
    envs = {json.dumps(env_of(r["stamp"]), sort_keys=True)
            for side in logs for r in logs[side]}
    if len(envs) != 1:
        log("refusing to compare: environment stamps differ:\n  " +
            "\n  ".join(sorted(envs)))
        return 2
    keys = {(r["workload"], r["trace"]) for side in logs for r in logs[side]}
    if len(keys) != 1:
        log("refusing to compare different workloads or modes: %s"
            % sorted(keys))
        return 2
    names = sorted(logs["A"][0]["result"]["metrics"])
    print("%-28s %-34s %s" % ("metric", "A q1/median/q3", "B q1/median/q3"))
    for name in names:
        qs = []
        for side in ("A", "B"):
            vals = [r["result"]["metrics"][name]["value"] for r in logs[side]
                    if name in r["result"]["metrics"]]
            qs.append("%.4g / %.4g / %.4g" % quartiles(vals))
        print("%-28s %-34s %s" % (name, qs[0], qs[1]))
    return 0


# --- pinning ----------------------------------------------------------------------

def cmd_pin(argv):
    p = argparse.ArgumentParser(description="Rewrite golden.json.")
    p.add_argument("--fstg", help="binary to pin from (default: built)")
    args = p.parse_args(argv)
    fstg, tool = build()
    fstg = args.fstg or fstg
    work = os.path.join(".bench_work", "pin-%d" % os.getpid())
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    try:
        golden = pin_golden(fstg, tool, work)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    if golden is None:
        return 1
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + GOLDEN_PATH)
    return 0


def pinned_cycles(known, doc, names):
    """The cycles_over_baseline a pin may write, and what blocks it.

    It is the one tolerance of the checks, so pinning never widens it: a
    circuit may leave the list or fall in cycles, but one that newly goes
    over the per-transition baseline, or a listed one that grows, is a
    regression. Returns (new list, regressions as text).
    """
    pinned, grown = {}, []
    for c in names:
        cycles, base = doc[c]["cycles"], doc[c]["per_transition_cycles"]
        if cycles <= base:
            continue
        if cycles > known.get(c, base):
            grown.append("%s %d > %d" % (c, cycles, known.get(c, base)))
        pinned[c] = cycles
    return pinned, grown


def pin_golden(fstg, tool, work):
    """The new golden.json from `fstg`, or None when pinned_cycles refuses."""
    names = [line.split()[0] for line in subprocess.run(
        [fstg, "list"], capture_output=True, text=True,
        check=True).stdout.splitlines()[1:] if line.strip()]
    known = load_golden()["cycles_over_baseline"]
    golden = {"gen": {}, "sim": {}, "serve_sim": {},
              "cycles_over_baseline": {}}
    for c in names:
        path = os.path.join(work, c + ".tst")
        subprocess.run([fstg, "gen", c, "-o", path], cwd=ROOT, check=True,
                       stderr=subprocess.DEVNULL)
        golden["gen"][c] = sha256_file(os.path.join(ROOT, path))
    rc, doc = run_tool([tool, "check-gen", "--dir", work, "--circuits",
                        ",".join(names)])
    if rc != 0:
        raise BenchError("pin: check-gen failed (exit %d)" % rc)
    golden["cycles_over_baseline"], grown = pinned_cycles(known, doc, names)
    if grown:
        log("pin: refusing; test-application cycles above the pinned "
            "bound: " + ", ".join(grown))
        return None
    for c in SIM_CIRCUITS:
        out = subprocess.run([fstg, "sim", c, os.path.join(work, c + ".tst")],
                             cwd=ROOT, check=True, capture_output=True,
                             text=True)
        golden["sim"][c] = sha256_text(out.stdout)
    requests = os.path.join(work, "requests.jsonl")
    with open(os.path.join(ROOT, requests), "w") as f:
        for c in serve_circuits(tool):
            with open(os.path.join(ROOT, work, c + ".tst")) as t:
                tests = t.read()
            for prune in (False, True):
                req = {"schema": "fstg.serve_request.v1", "type": "sim",
                       "id": serve_sim_key(c, prune), "circuit": c,
                       "tests": tests}
                if prune:
                    req["static_prune"] = True
                f.write(json.dumps(req) + "\n")
    sock = os.path.join(work, "pin.sock")
    daemon = subprocess.Popen([fstg, "serve", "--socket", sock, "--once",
                               "--log-level", "error"], cwd=ROOT)
    try:
        out = subprocess.run([fstg, "serve", "--client", "--socket", sock,
                              "--requests", requests], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    for line in out.stdout.splitlines():
        resp = json.loads(line)
        if resp.get("status") != "ok":
            raise BenchError("pin: serve sim %s failed" % resp.get("id"))
        golden["serve_sim"][resp["id"]] = {
            k: resp["result"][k] for k in SIM_FIELDS}
    return golden


def main(argv):
    modes = {"ab": cmd_ab, "compare": cmd_compare, "pin": cmd_pin}
    try:
        if argv and argv[0] in modes:
            return modes[argv[0]](argv[1:])
        return cmd_run(argv)
    except BenchError as e:
        log("pipebench: " + str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
