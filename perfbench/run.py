#!/usr/bin/env python3
"""Benchmark of the ggpdes runtimes: one command per workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the `perfbench` worker (a Cargo
package of its own in this directory, built into $CARGO_TARGET_DIR or
`.bench_build`), runs the harness self-tests, then starts one worker process
per runtime and asks them for one section each, round-robin, pass after
pass, until --seconds have passed. A section not answered within
SECTION_DEADLINE_S is killed with its process and counts as failed; a fresh
process for that runtime carries on. Every section's committed trace is
checked against the sequential oracle inside the worker; a section that
fails the check yields no number.

With --trace 0 the last stdout line carries the end-to-end metrics, each a
median over the run's passes (latencies: percentiles over every request of
the run). With --trace 1 it carries the per-layer metrics of a traced run.
The line before it is an ungated record: the host, the thread counts, the
sample counts, the latency tails, the sequential and VM host rates and the
speedups over the sequential oracle.
"""

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("phold-balanced", "phold-imbalanced")
KINDS = ("seq", "threads", "cons", "dist", "vm", "ingest")
# One pass, in order: every runtime twice, at different points of the
# pass, around one live-ingest section (which is long enough to collect
# its requests in one go).
PASS_ORDER = ("seq", "threads", "vm", "cons", "dist", "ingest", "dist", "cons", "vm", "threads", "seq")

# A section runs for well under ten seconds; a worker silent this long is
# hung (the runtimes' own watchdogs cover GVT stalls, not a lost wake-up at
# termination) and is killed.
SECTION_DEADLINE_S = 30.0
# Set-up of one runtime's process, warm-up included.
SETUP_DEADLINE_S = 60.0
# The whole run, build excluded, must end well inside 180 s.
RUN_BUDGET_S = 150.0
# A timed run makes at least this many passes, and collects at least this
# many accepted ingest requests so the high percentile has ten beyond it
# (for up to twice --seconds).
MIN_PASSES = 3
MIN_INGEST_SAMPLES = 110
# The highest latency percentile reported, and the samples it needs: at
# least MIN_BEYOND samples must lie beyond any percentile reported.
HIGH_PCT = 90
MIN_BEYOND = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


# ---------------------------------------------------------------- statistics


def min_samples(pct):
    """Samples needed so that at least MIN_BEYOND lie beyond the pct-th
    percentile."""
    return math.ceil(MIN_BEYOND * 100 / (100 - pct) - 1e-9)


def percentile(values, pct):
    """Nearest-rank percentile, or None when fewer than MIN_BEYOND samples
    would lie beyond it."""
    n = len(values)
    if n == 0 or n < min_samples(pct):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else None


def selftest():
    """The percentile rule, checked on every run."""
    assert min_samples(50) == 20 and min_samples(90) == 100 and min_samples(99) == 1000
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(1, 21)), 50) == 10
    assert percentile(list(range(99)), 90) is None
    hundred = list(range(1, 101))
    assert percentile(hundred, 90) == 90
    assert sum(v > percentile(hundred, 90) for v in hundred) == MIN_BEYOND
    assert percentile(list(reversed(hundred)), 90) == 90
    assert percentile([5.0] * 1000, 99) == 5.0
    assert percentile([], 50) is None
    assert median([3, 1, 2]) == 2 and median([]) is None


# -------------------------------------------------------------------- build


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        die("cargo is not installed")
    if r.returncode != 0:
        die("building the perfbench worker failed (run from the root of a full checkout)")
    return os.path.join(target, "release", "perfbench"), target


# --------------------------------------------------------------- supervision


def supervise(cmd, deadline):
    """Run `cmd`, yielding each stdout JSON line as it arrives. Kills the
    process when it stays silent for SECTION_DEADLINE_S or runs past
    `deadline`; the final yielded item is ("exit", code) or ("killed",
    reason)."""
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr)
    fd = p.stdout.fileno()
    buf = b""
    last = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            if now - last > SECTION_DEADLINE_S or now > deadline:
                why = "silent too long" if now - last > SECTION_DEADLINE_S else "run budget spent"
                p.kill()
                p.wait()
                yield ("killed", why)
                return
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            last = time.monotonic()
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if line.strip():
                    try:
                        yield ("line", json.loads(line))
                    except ValueError:
                        log(f"perfbench: unparsable worker line: {line[:200]!r}")
        yield ("exit", p.wait())
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        p.stdout.close()


class Run:
    """Everything the workers of one run printed."""

    def __init__(self):
        self.host = None
        self.calib = []
        self.setups = []
        self.sections = []
        self.ladder = []
        self.layers = {}
        self.failures = []
        self.wrong = 0
        self.attempted = 0

    def take(self, d):
        if d is None:
            return
        kind = d.get("kind")
        if kind == "host":
            self.host = d
        elif kind == "calib":
            self.calib.append(d)
        elif kind == "setup":
            self.setups.append(d)
        elif kind == "section":
            self.attempted += 1
            self.sections.append(d)
            if not d["ok"]:
                self.failures.append(f"{d['name']}: {d.get('why', 'failed')}")
                self.wrong += d.get("wrong", False)
        elif kind == "ladder":
            self.attempted += 1
            self.ladder.append(d)
            if not d["ok"]:
                self.failures.append(f"ladder {d['rate_per_s']}/s: {d.get('why', 'failed')}")
                self.wrong += d.get("wrong", False)
        elif kind == "layer":
            self.layers.setdefault(d["name"], (d["unit"], []))[1].append(d["value"])

    def timed(self, name):
        return [
            s
            for s in self.sections
            if s["name"] == name and s["ok"] and "pass" in s and not s["traced"]
        ]



class Server:
    """One `perfbench serve` process, holding one runtime."""

    def __init__(self, binary, scratch, args, kind):
        self.kind = kind
        self.p = subprocess.Popen(
            [binary, "serve", "--kind", kind, "--workload", args.workload,
             "--seed", str(args.seed), "--scratch", scratch],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=sys.stderr,
        )
        self.buf = b""

    def read(self, deadline):
        """The next stdout line as JSON, or None on timeout or exit."""
        fd = self.p.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], min(left, 0.5))
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return None
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        try:
            return json.loads(line)
        except ValueError:
            log(f"perfbench: unparsable {self.kind} line: {line[:200]!r}")
            return None

    def ask(self, cmd, deadline):
        try:
            self.p.stdin.write(cmd.encode() + b"\n")
            self.p.stdin.flush()
        except OSError:
            return None
        return self.read(deadline)

    def close(self):
        try:
            self.p.stdin.close()
            self.p.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        self.p.stdout.close()

    def kill(self):
        self.p.kill()
        self.p.wait()


def start_server(binary, scratch, args, kind, run, deadline):
    """Start one runtime's process and wait for its set-up; None if it
    failed (recorded)."""
    srv = Server(binary, scratch, args, kind)
    limit = min(time.monotonic() + SETUP_DEADLINE_S, deadline)
    while True:
        d = srv.read(limit)
        if d is None:
            srv.kill()
            srv.p.stdout.close()
            run.attempted += 1
            run.failures.append(f"{kind}: set-up did not finish")
            return None
        run.take(d)
        if d.get("kind") == "setup":
            return srv


def run_timed(binary, scratch, args):
    run = Run()
    deadline = time.monotonic() + RUN_BUDGET_S
    servers = {}
    try:
        for kind in KINDS:
            servers[kind] = start_server(binary, scratch, args, kind, run, deadline)
        if servers["seq"] is not None:
            run.take(servers["seq"].ask("host", deadline))
            calib = servers["seq"].ask("calib", deadline)
            if calib is not None:
                run.take(dict(calib, at="start"))
        t0 = time.monotonic()
        passes = accepted = 0
        while True:
            for kind in PASS_ORDER:
                srv = servers[kind]
                if srv is None:
                    continue
                limit = min(time.monotonic() + SECTION_DEADLINE_S, deadline)
                d = srv.ask(f"run {passes}", limit)
                if d is None:
                    srv.kill()
                    srv.p.stdout.close()
                    run.attempted += 1
                    run.failures.append(f"{kind}: pass {passes} killed after {SECTION_DEADLINE_S:.0f} s")
                    log(f"perfbench: {kind} section of pass {passes} killed; restarting it")
                    servers[kind] = None
                    if time.monotonic() + SETUP_DEADLINE_S < deadline:
                        servers[kind] = start_server(binary, scratch, args, kind, run, deadline)
                    continue
                run.take(d)
                accepted += len(d.get("accept_ms", []))
            passes += 1
            elapsed = time.monotonic() - t0
            enough = passes >= MIN_PASSES and accepted >= MIN_INGEST_SAMPLES
            if (enough and elapsed >= args.seconds) or elapsed >= 2 * args.seconds:
                break
            if time.monotonic() + 2 * SECTION_DEADLINE_S > deadline:
                break
        if servers["seq"] is not None:
            calib = servers["seq"].ask("calib", deadline)
            if calib is not None:
                run.take(dict(calib, at="end"))
    finally:
        for srv in servers.values():
            if srv is not None:
                srv.close()
    return run


def run_traced(binary, scratch, args):
    run = Run()
    cmd = [binary, "trace", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds}", "--scratch", scratch]
    for kind, val in supervise(cmd, time.monotonic() + RUN_BUDGET_S):
        if kind == "line":
            run.take(val)
        elif (kind, val) != ("exit", 0):
            run.attempted += 1
            run.failures.append(f"traced run {kind} ({val})")
    return run


# ------------------------------------------------------------------ metrics


def rates(run, name, time_key="wall_s"):
    return [s["events"] / s[time_key] for s in run.timed(name) if s[time_key] > 0]


def pooled(run, key):
    return [v for s in run.timed("ingest") for v in s.get(key, [])]


def end_to_end(run):
    m = {}

    def put(name, value, unit):
        if value is not None:
            m[name] = {"value": value, "unit": unit}

    # Each runtime's process: median set-up of three, plus its warm-up;
    # summed over the runtimes (restarted processes excluded).
    first = {}
    for d in run.setups:
        first.setdefault(d["name"], statistics.median(d["build_s"]) + d["warmup_s"])
    put("setup_s", sum(first.values()) if first else None, "s")
    put("seq_events_per_s", median(rates(run, "seq")), "1/s")
    put("threads_events_per_s", median(rates(run, "threads")), "1/s")
    put("cons_events_per_s", median(rates(run, "cons")), "1/s")
    put("dist_events_per_s", median(rates(run, "dist")), "1/s")
    put("vm_sim_events_per_s", median(rates(run, "vm", "virt_s")), "1/s")
    put("vm_host_events_per_s", median(rates(run, "vm")), "1/s")
    # The largest peak of one section in a fresh process (the warm-ups).
    # Later sections would also count what earlier ones leaked, which grows
    # with the number of passes a run happens to fit.
    warm = [s["rss_mb"] for s in run.sections if s.get("warmup") and s["ok"]]
    put("peak_rss_mb", max(warm) if warm else None, "MiB")
    put("ingest_events_per_s", median(rates(run, "ingest")), "1/s")
    accept, commit = pooled(run, "accept_ms"), pooled(run, "commit_ms")
    put("ingest_accept_p50_ms", percentile(accept, 50), "ms")
    put("ingest_commit_p50_ms", percentile(commit, 50), "ms")
    return m


def ladder_max_rate(run):
    """Highest ladder rate whose accept latency, at the highest percentile
    its samples support, met the limit while the generator kept up (its
    lateness over the last quarter of the step stayed under one period)."""
    best = 0.0
    for step in sorted(run.ladder, key=lambda d: d["rate_per_s"]):
        acc = step["accept_ms"]
        hi = percentile(acc, HIGH_PCT)
        if hi is None:
            hi = percentile(acc, 50)
        late = step["late_ms"][-max(1, len(step["late_ms"]) // 4) :]
        kept_up = bool(late) and median(late) < 1e3 / step["rate_per_s"]
        if step["ok"] and hi is not None and hi <= step["limit_ms"] and kept_up:
            best = max(best, step["rate_per_s"])
        else:
            break
    return best


def per_layer(run):
    m = {name: {"value": median(vals), "unit": unit} for name, (unit, vals) in run.layers.items()}
    ingest = [s for s in run.sections if s["name"] == "ingest" and s["ok"] and "pass" in s]
    for key in ("admitted", "rejected", "busy", "shed"):
        m[f"ingest.{key}"] = {"value": median([s[key] for s in ingest]) if ingest else 0, "unit": "count"}
    late = [v for s in ingest for v in s["late_ms"]]
    if late:
        m["ingest.gen_late_max_ms"] = {"value": max(late), "unit": "ms"}
    sent = sum(s["sent"] for s in ingest)
    if sent:
        m["ingest.first_try_frac"] = {
            "value": sum(s["first_try"] for s in ingest) / sent,
            "unit": "ratio",
        }
    m["ingest.max_rate_per_s"] = {"value": ladder_max_rate(run), "unit": "1/s"}
    calib = {c["at"]: c["ms"] for c in run.calib}
    if "start" in calib:
        m["host.calib_ms"] = {"value": calib["start"], "unit": "ms"}
    if "end" in calib:
        m["host.calib_end_ms"] = {"value": calib["end"], "unit": "ms"}
    m["host.leftover_threads"] = {
        "value": sum(s["leftover_threads"] for s in run.sections + run.ladder),
        "unit": "count",
    }
    return m


def record(run, metrics):
    """Ungated context printed before the result: host, threads, samples,
    speedups over the sequential oracle."""
    rec = {"host": run.host, "calib_ms": {c["at"]: c["ms"] for c in run.calib}}
    rec["samples"] = {
        name: len(run.timed(name)) for name in KINDS
    }
    rec["samples"]["ingest_accept"] = len(pooled(run, "accept_ms"))
    rec["samples"]["ingest_commit"] = len(pooled(run, "commit_ms"))
    # The tails move by 20-50% between runs on a 2-vCPU host (scheduling
    # and host phases): recorded here, ungated.
    for key in ("accept_ms", "commit_ms"):
        rec[f"ingest_{key[:-3]}_p{HIGH_PCT}_ms"] = percentile(pooled(run, key), HIGH_PCT)
    late = pooled(run, "late_ms")
    if late:
        rec["ingest_gen_late_ms"] = {"p50": percentile(late, 50), "max": max(late)}
    # Measured every run but not gated: single-threaded, they swing with
    # this host's fast and slow phases by more than any allowed bound.
    for name in ("seq_events_per_s", "vm_host_events_per_s"):
        if name in metrics:
            rec[name] = metrics[name]["value"]
    seq = metrics.get("seq_events_per_s", {}).get("value")
    if seq:
        rec["speedup_over_seq"] = {
            rt: metrics[f"{rt}_events_per_s"]["value"] / seq
            for rt in ("threads", "cons", "dist")
            if f"{rt}_events_per_s" in metrics
        }
    rec["ladder"] = [
        {
            "rate_per_s": s["rate_per_s"],
            "ok": s["ok"],
            "accepted": len(s["accept_ms"]),
            "accept_p50_ms": percentile(s["accept_ms"], 50),
            f"accept_p{HIGH_PCT}_ms": percentile(s["accept_ms"], HIGH_PCT),
            "late_last_quarter_ms": median(s["late_ms"][-max(1, len(s["late_ms"]) // 4) :]),
        }
        for s in run.ladder
    ]
    rec["leftover_threads"] = sum(s["leftover_threads"] for s in run.sections)
    rec["failures"] = run.failures
    return rec


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# --------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    selftest()
    binary, target = build()
    scratch = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    st = subprocess.run([binary, "selftest"], cwd=ROOT, stdout=subprocess.PIPE, timeout=60)
    if st.returncode != 0:
        die(f"harness self-test failed: {st.stdout.decode(errors='replace').strip()}", 1)

    run = run_traced(binary, scratch, args) if args.trace else run_timed(binary, scratch, args)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    expected = expected_metrics(args.trace)
    missing = [n for n in expected if n not in metrics]
    for name in missing:
        run.failures.append(f"no value for {name}")
    rec = record(run, metrics)
    metrics = {n: v for n, v in metrics.items() if n in expected}
    print(json.dumps({"record": rec}), flush=True)
    result = {
        "correct": run.wrong == 0 and not missing,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": metrics,
    }
    for f in run.failures:
        log(f"perfbench: FAILED {f}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
