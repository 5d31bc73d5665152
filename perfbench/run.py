#!/usr/bin/env python3
"""perfbench: what a user of `tce optimize` waits for, on three request mixes.

    python3 perfbench/run.py --workload interactive|enlarged|warm_shared \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/expected.json

Run from the repository root. The harness builds `tce` and the in-process
probe (`perfbench/probe`) into `$CARGO_TARGET_DIR` (default `.bench_build`),
then drives closed loops of spawned `tce optimize` requests. `--trace 0`
reports the end-to-end metrics; `--trace 1` reports the per-layer metrics
from a traced in-process replay of the same requests. Every output is
checked against `perfbench/expected.json`. The last stdout line is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`. See
perfbench/README.md for the workloads, metrics, and predictions.
"""

import argparse
import itertools
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXPECTED = os.path.join(BENCH, "expected.json")
INPUTS = os.path.join(BENCH, "inputs")

FILES = ["ccsd", "ccsd_tiny", "ladder", "transform", "fig1", "repeated"]
PROCS = [4, 16, 64]
MEMS = ["2", "4", "100"]
ENLARGED_FILES = ["ccsd_tiny", "ladder", "repeated", "transform", "ccsd"]
ENLARGED_FLAGS = ["--procs", "64", "--replication", "--unrelated-rotation"]
WORKLOADS = ["interactive", "enlarged", "warm_shared"]
# Setup repetitions per run; setup_s is their median.
SETUP_REPEATS = 3
# The paper-table goldens the expected ccsd plans at 4 GB/node must match.
GOLDENS = {"ccsd/p16/m4": "golden/table2.txt", "ccsd/p64/m4": "golden/table1.txt"}
# Shift of the shifted geometric mean behind plan_comm_s (modelled s).
COMM_SHIFT_S = 1.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Req:
    """One `tce optimize` request of a mix."""

    def __init__(self, file, procs, mem, json_mode, flags=()):
        self.file, self.procs, self.mem = file, procs, mem
        self.json, self.flags = json_mode, list(flags)
        if flags:
            self.key = f"{file}/p{procs}/enlarged"
        else:
            self.key = f"{file}/p{procs}/m{mem}"

    def argv(self, tce, inputs):
        argv = [tce, "optimize", os.path.join(inputs, self.file + ".tce")]
        argv += self.flags if self.flags else ["--procs", str(self.procs)]
        if self.mem is not None:
            argv += ["--mem-gb", self.mem]
        if self.json:
            argv.append("--json")
        return argv

    def tsv(self, inputs, cache):
        mem = self.mem if self.mem is not None else "-"
        flags = "replication,unrelated-rotation" if self.flags else "-"
        mode = "json" if self.json else "text"
        path = os.path.join(inputs, self.file + ".tce")
        return f"{self.key}\t{path}\t{self.procs}\t{mem}\t{mode}\t{cache}\t{flags}"


def interactive_mix():
    return [Req(f, p, m, False) for f in FILES for p in PROCS for m in MEMS]


def enlarged_mix():
    return [Req(f, 64, None, True, ENLARGED_FLAGS) for f in ENLARGED_FILES]


# ---------------------------------------------------------------- build


def build():
    """Build `tce` and the probe from source; return their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise SystemExit(f"perfbench: no Cargo.toml in {ROOT}; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in ([], ["--manifest-path", os.path.join(BENCH, "probe", "Cargo.toml")]):
        argv = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if not extra:
            argv += ["--bin", "tce"]
        r = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, timeout=1500)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(argv)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "tce"), os.path.join(release, "tce-perfprobe")


# ---------------------------------------------------------------- spawning


class Done:
    __slots__ = ("req", "lat", "rc", "out", "err", "rss_kb")


def spawn(req, argv, env):
    """Run one request to exit; wall time covers spawn to reaped exit."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    out = p.stdout.read()
    err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    t1 = time.perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    d = Done()
    d.req, d.lat, d.rc, d.out, d.err, d.rss_kb = req, t1 - t0, p.returncode, out, err, usage.ru_maxrss
    return d


def closed_loop(rounds, argv_of, env, seconds):
    """One client: whole rounds, in order, until `seconds` have passed."""
    done = []
    start = time.perf_counter()
    for rnd in rounds:
        if done and time.perf_counter() - start >= seconds:
            break
        for req in rnd:
            done.append(spawn(req, argv_of(req), env))
    return done


# ---------------------------------------------------------------- checking

TOTAL_RE = re.compile(r"^Total communication: (\S+) sec\.", re.M)
STEP_RE = re.compile(r"^  (\S+) in (<[^>]*>)(?: fused \((.*)\))? — step comm ", re.M)


def parse_output(req, rc, out):
    """(status, comm, steps) of one stdout, in the expected file's terms."""
    if rc != 0:
        return rc, None, []
    text = out.decode()
    if req.json:
        plan = json.loads(text)
        steps = [
            [s["result_name"], s["result_dist"]["d1"], s["result_dist"]["d2"], s["result_fusion"]]
            for s in plan["steps"]
        ]
        return 0, plan["comm_cost"], steps
    total = TOTAL_RE.search(text)
    steps = [[m[0], m[1], m[2] or ""] for m in STEP_RE.findall(text)]
    return 0, (total.group(1) if total else None), steps


def mismatch(req, exp, rc, out):
    """Why a spawned output differs from the expected outcome, or None."""
    try:
        status, comm, steps = parse_output(req, rc, out)
    except (ValueError, KeyError, TypeError) as e:
        return f"unparseable output ({e})"
    if status != exp["status"]:
        return f"exit status {status}, expected {exp['status']}"
    if status != 0:
        return None
    if req.json:
        if comm != exp["comm"]:
            return f"comm {comm!r}, expected {exp['comm']!r}"
        if steps != exp["steps_json"]:
            return f"steps {steps}, expected {exp['steps_json']}"
    else:
        if comm != exp["total_text"]:
            return f"total {comm}, expected {exp['total_text']}"
        if steps != exp["steps_text"]:
            return f"steps {steps}, expected {exp['steps_text']}"
    return None


def golden_total(path):
    with open(os.path.join(ROOT, path)) as f:
        m = TOTAL_RE.search(f.read())
    if not m:
        raise SystemExit(f"perfbench: no total communication line in {path}")
    return m.group(1)


def load_expected(mix):
    with open(EXPECTED) as f:
        exp = json.load(f)["requests"]
    missing = [r.key for r in mix if r.key not in exp]
    if missing:
        raise SystemExit(f"perfbench: expected.json lacks {missing}")
    for key, golden in GOLDENS.items():
        if exp[key]["total_text"] != golden_total(golden):
            raise SystemExit(f"perfbench: expected {key} disagrees with {golden}")
    return exp


def recheck(probe, work, plans):
    """Re-check `(req, stdout)` `--json` plans with the full check registry,
    the cost model, and the memory limit; True when all pass."""
    lines = []
    for n, (req, out) in enumerate(plans):
        plan = json.loads(out)
        plan.pop("observability", None)
        path = os.path.join(work, f"plan-{n}.json")
        with open(path, "w") as f:
            json.dump(plan, f)
        lines.append(req.tsv(INPUTS, "off") + "\t" + path)
    if not lines:
        return True
    reqs = os.path.join(work, "recheck.tsv")
    with open(reqs, "w") as f:
        f.write("\n".join(lines) + "\n")
    r = subprocess.run(
        [probe, "recheck", "--requests", reqs, "--work", work,
         "--gate-file", os.path.join(INPUTS, "ccsd.tce")],
        capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        log(r.stdout + r.stderr)
    return r.returncode == 0


# ---------------------------------------------------------------- statistics


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile that
    still has at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def shifted_geomean(values, shift=COMM_SHIFT_S):
    return math.exp(statistics.fmean(math.log(v + shift) for v in values)) - shift


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- workloads


class Run:
    """One benchmark run: its work directory, binaries, and request mix."""

    def __init__(self, workload, seed, seconds, tce, probe):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tce, self.probe = tce, probe
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
        self.clients = 1
        if workload == "enlarged":
            self.mix = enlarged_mix()
        else:
            self.mix = interactive_mix()
        if workload == "warm_shared":
            self.clients = min(2, len(os.sched_getaffinity(0)))
        self.exp = load_expected(self.mix)
        if workload == "warm_shared":
            self.mix = [r for r in self.mix if self.exp[r.key]["status"] == 0]
        self.inputs = os.path.join(self.work, "inputs")
        self.shared = os.path.join(self.work, "shared-cache")
        # Names the per-request cache directories of `interactive`.
        self.fresh = itertools.count()
        # Children get a private XDG cache home, so even a request that
        # lost its cache flag could never reach the user's cache.
        self.env = dict(os.environ, XDG_CACHE_HOME=os.path.join(self.work, "xdg"))

    def cache_flags(self):
        if self.workload == "enlarged":
            return ["--no-plan-cache"]
        if self.workload == "warm_shared":
            return ["--plan-cache", self.shared]
        return ["--plan-cache", os.path.join(self.fresh_root, str(next(self.fresh)))]

    def rounds(self, stream):
        """Endless seeded rounds: each a shuffle of the whole mix."""
        rng = random.Random(f"{self.seed}/{self.workload}/{stream}")
        while True:
            yield rng.sample(self.mix, len(self.mix))

    def setup_once(self):
        """Write the inputs, (warm_shared) fill the cache in a seeded order,
        and run one untimed warm-up round per client, so that page caches
        are warm and lazy set-up is done before timing."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.inputs)
        for f in FILES:
            shutil.copyfile(os.path.join(INPUTS, f + ".tce"), os.path.join(self.inputs, f + ".tce"))
        if self.workload == "warm_shared":
            for req in next(self.rounds("fill")):
                d = spawn(req, req.argv(self.tce, self.inputs) + self.cache_flags(), self.env)
                why = mismatch(req, self.exp[req.key], d.rc, d.out)
                if why or b"plan cache: stored" not in d.err:
                    raise SystemExit(f"perfbench: cache fill {req.key}: {why or d.err.decode()}")
        self.drive(0, "warmup")

    def setup(self):
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def drive(self, seconds, phase):
        """The spawned closed loops; returns (requests done, wall seconds)."""
        self.fresh_root = os.path.join(self.work, "fresh", phase)
        results = [None] * self.clients

        def client(i):
            argv_of = lambda req: req.argv(self.tce, self.inputs) + self.cache_flags()  # noqa: E731
            results[i] = closed_loop(self.rounds(f"client{i}"), argv_of, self.env, seconds)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        if any(r is None for r in results):
            raise SystemExit("perfbench: a client thread died")
        return [d for r in results for d in r], wall

    def timed_drive(self, seconds):
        """The timed loops and their plan-cache audit."""
        base = self.cache_counted([self.shared]) if self.workload == "warm_shared" else 0
        done, wall = self.drive(seconds, "timed")
        return done, wall, self.audit(done, base)

    def verify(self, done):
        """Check every output against the expected outcome. Returns the
        failure count, the reasons with their counts, the modelled
        communication of every returned plan, and the distinct outputs that
        passed, as `(key, exit status, stdout)`."""
        failed, reasons, comms, seen = 0, {}, [], {}
        for d in done:
            ident = (d.req.key, d.rc, d.out)
            if ident not in seen:
                why = mismatch(d.req, self.exp[d.req.key], d.rc, d.out)
                comm = None if why or d.rc else float(parse_output(d.req, d.rc, d.out)[1])
                seen[ident] = (why, comm)
            why, comm = seen[ident]
            if why is None and b"plan cache: store failed" in d.err:
                why = "plan cache store failed"
            if why:
                failed += 1
                reasons[f"{d.req.key}: {why}"] = reasons.get(f"{d.req.key}: {why}", 0) + 1
            elif comm is not None:
                comms.append(comm)
        return failed, reasons, comms, [k for k, (why, _) in seen.items() if why is None]

    def json_plans(self, ok_outputs):
        by_key = {r.key: r for r in self.mix}
        return [(by_key[key], out) for key, rc, out in ok_outputs if by_key[key].json and rc == 0]

    def audit(self, done, base):
        """Plan-cache audit of a spawned phase: lookups issued against the
        hit+miss totals `PlanCache::stats()` gained, store failures and
        evictions from stderr (see README)."""
        lookups = sum(1 for d in done if self.workload != "enlarged" and b"lint error" not in d.err)
        if self.workload == "warm_shared":
            counted = self.cache_counted([self.shared]) - base
        elif self.workload == "interactive" and os.path.isdir(self.fresh_root):
            root = self.fresh_root
            counted = self.cache_counted([os.path.join(root, d) for d in os.listdir(root)])
        else:
            counted = 0
        return {"lookups": lookups, "counted": counted, "stats_lost": lookups - counted,
                "store_failures": sum(d.err.count(b"plan cache: store failed") for d in done),
                "evictions": sum(d.err.count(b"plan cache: evicted") for d in done)}

    def cache_counted(self, dirs):
        """hit + miss summed over the `PlanCache::stats()` of `dirs`."""
        r = subprocess.run([self.probe, "audit"] + dirs, capture_output=True, text=True,
                           timeout=170, check=True)
        totals = json.loads(r.stdout)
        return totals.get("cache.hit", 0) + totals.get("cache.miss", 0)

    def probe_phase(self, seconds, traced, rounds_hint):
        """In-process replay of the same mix; returns the probe records."""
        cache = {"enlarged": "off", "warm_shared": self.shared}.get(self.workload, "fresh")
        stream = self.rounds("probe")
        lines = []
        for _ in range(rounds_hint):
            lines += [r.tsv(self.inputs, cache) for r in next(stream)]
        reqs = os.path.join(self.work, "probe.tsv")
        out = os.path.join(self.work, "probe.jsonl")
        with open(reqs, "w") as f:
            f.write("\n".join(lines) + "\n")
        argv = [self.probe, "run", "--requests", reqs, "--out", out, "--work", self.work,
                "--traced", "1" if traced else "0",
                "--seconds", str(seconds), "--round-len", str(len(self.mix)),
                "--gate-file", os.path.join(self.inputs, "ccsd.tce")]
        r = subprocess.run(argv, capture_output=True, text=True, timeout=175)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: probe failed: {r.stderr.strip()}")
        with open(out) as f:
            return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------- the two modes


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def equivalence(run, records, ok_outputs):
    """Failures where the in-process pipeline differs from the spawned one:
    comm bits and steps against the expected outcome (recorded from the
    binary), and the rendered text byte for byte against spawned stdout."""
    spawned_text = {}
    for key, rc, out in ok_outputs:
        spawned_text.setdefault((key, rc), set()).add(out)
    digests = {k: {fnv1a(o) for o in outs} for k, outs in spawned_text.items()}
    bad = []
    for rec in records:
        exp = run.exp[rec["id"]]
        req = next(r for r in run.mix if r.key == rec["id"])
        why = None
        if rec["status"] != exp["status"]:
            why = f"exit status {rec['status']}, expected {exp['status']}"
        elif rec["status"] == 0:
            if rec["comm"] != exp["comm"]:
                why = f"comm {rec['comm']!r}, expected {exp['comm']!r}"
            elif rec["steps_json"] != exp["steps_json"] or (
                    exp["steps_text"] is not None and rec["steps_text"] != exp["steps_text"]):
                why = "steps differ"
            elif rec["recheck"] != "ok":
                why = f"full check registry: {rec['recheck']}"
            elif not req.json and rec["stdout_fnv"] not in digests.get((rec["id"], 0), {rec["stdout_fnv"]}):
                why = "rendered text differs from the spawned binary's stdout"
        if rec["store_failed"]:
            why = why or "plan cache store failed"
        if why:
            bad.append(f"{rec['id']} (in-process): {why}")
    return bad


def span_self_ms(rec):
    """Per-layer self time of one traced request, ms (summed per name)."""
    spans = rec["spans"]
    child_total = {}
    for name, sid, parent, start, end in spans:
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0) + (end - start)
    out = {}
    for name, sid, parent, start, end in spans:
        self_ns = (end - start) - child_total.get(sid, 0)
        out[name] = out.get(name, 0.0) + self_ns / 1e6
    return out


def med(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def paired_ms(a, b):
    """Median over request keys of (median a - median b): a difference of
    two phases that is immune to which requests sit at each median.
    `a` and `b` map request key to a list of ms."""
    return med([statistics.median(a[k]) - statistics.median(b[k]) for k in a if b.get(k)])


def by_key(pairs):
    out = {}
    for key, ms in pairs:
        out.setdefault(key, []).append(ms)
    return out


def ratio(num, den):
    return num / den if den else None


def end_to_end(run, setup_s):
    done, wall, audit = run.timed_drive(run.seconds)
    failed, reasons, comms, ok_outputs = run.verify(done)
    correct = recheck(run.probe, run.work, run.json_plans(ok_outputs))
    lat = [d.lat * 1e3 for d in done]
    tail_ms, pct, beyond = tail(lat)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_ms": metric(statistics.median(lat), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "throughput_rps": metric(len(done) / wall, "1/s"),
        "peak_rss_mb": metric(max(d.rss_kb for d in done) / 1024.0, "MB"),
        "plan_comm_s": metric(shifted_geomean(comms), "model_s"),
    }
    print(f"workload {run.workload}: {len(done)} requests, {run.clients} client(s), "
          f"{wall:.2f} s wall")
    print(f"latency_tail_ms is p{pct:.2f} of {len(done)} samples ({beyond} beyond it)")
    print(f"fail_rate {failed / len(done):.6f} ({failed} of {len(done)})")
    for why, count in sorted(reasons.items()):
        print(f"  failed x{count}: {why}")
    print("cache audit: " + ", ".join(f"{k} {v}" for k, v in audit.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return correct, len(done), failed, metrics


def per_layer(run):
    third = run.seconds / 3.0
    done, _, audit = run.timed_drive(third)
    failed, reasons, _, ok_outputs = run.verify(done)
    correct = recheck(run.probe, run.work, run.json_plans(ok_outputs))
    # In process, a request skips the spawn, so allow more rounds than the
    # spawned phase managed; the probe stops on time at a round boundary.
    rounds_done = 2 * (len(done) // len(run.mix)) + 1
    plain = run.probe_phase(third, False, rounds_done)
    traced = run.probe_phase(third, True, rounds_done)
    bad = equivalence(run, plain + traced, ok_outputs)
    for why in reasons:
        print(f"failed (spawned): {why}")
    for why in sorted(set(bad)):
        print(f"failed: {why}")

    rows = [(r, span_self_ms(r)) for r in traced]
    # (counters, core.plan self ms) of every request that ran a search.
    searched = [(r["counters"], s["core.plan"]) for r, s in rows if r["counters"]]

    def span(name):
        return med([s.get(name) for _, s in rows])

    def count(name):
        return med([c.get(name, 0) for c, _ in searched])

    def counter_ratio(num, *den):
        return med([ratio(c.get(num, 0), sum(c.get(d, 0) for d in den)) for c, _ in searched])

    # A warm hit validates inside the lookup, where no outside span can
    # reach; the same full-registry call, timed after the request, stands in.
    validate = [s.get("check.validate", r["recheck_ns"] / 1e6 if r["cache"] == "hit" else None)
                for r, s in rows]
    serial = [ratio(r["serial_plan_ns"] / 1e6, s["core.plan"])
              for r, s in rows if r["serial_plan_ns"]]
    lookups = [r for r in traced if r["cache"] != "off"]
    e2e_ms = by_key((d.req.key, d.lat * 1e3) for d in done)
    plain_ms = by_key((r["id"], r["total_ns"] / 1e6) for r in plain)
    traced_ms = by_key((r["id"], r["total_ns"] / 1e6) for r in traced)
    m = {
        "expr.parse_ms": (span("expr.parse"), "ms"),
        "opmin.lower_ms": (span("opmin.lower"), "ms"),
        "lint.ms": (span("lint"), "ms"),
        "lint.rejects": (sum(r["lint_rejected"] for r in traced), "count"),
        "cost.model_ms": (span("cost.model"), "ms"),
        "cost.memo_hit_ratio": (counter_ratio("dp.memo_hit", "dp.memo_hit", "dp.memo_miss"), "ratio"),
        "core.plan_ms": (span("core.plan"), "ms"),
        "core.candidates": (count("dp.candidates"), "count"),
        "core.live": (count("dp.frontier"), "count"),
        "core.pruned_inferior": (count("dp.pruned_inferior"), "count"),
        "core.pruned_memory": (count("dp.pruned_memory"), "count"),
        "core.candidates_per_ms": (med([ratio(c.get("dp.candidates", 0), ms)
                                        for c, ms in searched]), "1/ms"),
        "core.bnb_skip_ratio": (counter_ratio("dp.bnb_skip", "dp.candidates"), "ratio"),
        "core.subtree_hit_ratio": (counter_ratio("dp.subtree_hit", "dp.subtree_hit",
                                                 "dp.subtree_miss"), "ratio"),
        "core.thread_speedup": (med(serial), "x"),
        "core.extract_ms": (span("core.extract"), "ms"),
        "core.explain_ms": (span("core.explain"), "ms"),
        "core.render_ms": (span("core.render"), "ms"),
        "core.cache_key_ms": (span("core.cache_key"), "ms"),
        "core.cache_lookup_ms": (span("core.cache_lookup"), "ms"),
        "core.cache_store_ms": (span("core.cache_store"), "ms"),
        "core.cache_hit_ratio": (ratio(sum(r["cache"] == "hit" for r in lookups), len(lookups))
                                 or 0.0, "ratio"),
        "core.cache_evictions": (audit["evictions"], "count"),
        "core.cache_store_failures": (audit["store_failures"], "count"),
        "core.cache_stats_lost": (audit["stats_lost"], "count"),
        "check.validate_ms": (med(validate), "ms"),
        "cli.overhead_ms": (paired_ms(e2e_ms, plain_ms), "ms"),
        "obs.trace_overhead_ms": (paired_ms(traced_ms, plain_ms), "ms"),
        "request.unaccounted_ms": (span("request"), "ms"),
    }
    ccsd = [s for r, s in rows if r["id"].startswith("ccsd/") and "core.plan" in s]
    if ccsd:
        ex, pl = med([s.get("core.explain") for s in ccsd]), med([s["core.plan"] for s in ccsd])
        front = med([s.get("lint", 0) + s.get("expr.parse", 0) + s.get("opmin.lower", 0)
                     for s in ccsd])
        print(f"ccsd split over {len(ccsd)} searched ccsd requests: explain {ex:.3f} ms, "
              f"plan {pl:.3f} ms, lint+parse+lower {front:.3f} ms")
    print(f"workload {run.workload}: spawned {len(done)}, in-process {len(plain)} untraced "
          f"+ {len(traced)} traced requests")
    print("cache audit (spawned phase): " + ", ".join(f"{k} {v}" for k, v in audit.items()))
    for name, (v, unit) in m.items():
        print(f"{name} {v:.6g} {unit}")
    attempted = len(done) + len(plain) + len(traced)
    return correct, attempted, failed + len(bad), {k: metric(v, u) for k, (v, u) in m.items()}


# ---------------------------------------------------------------- recording


def record(tce, probe):
    """Record the expected outcome of every request from the spawned binary."""
    work = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(work, "xdg"))
    os.makedirs(work, exist_ok=True)
    expected = {}
    try:
        for req in interactive_mix() + enlarged_mix():
            as_json = Req(req.file, req.procs, req.mem, True, req.flags)
            j = spawn(as_json, as_json.argv(tce, INPUTS) + ["--no-plan-cache"], env)
            status, comm, steps_json = parse_output(as_json, j.rc, j.out)
            entry = {"status": status, "comm": comm, "steps_json": steps_json,
                     "total_text": None, "steps_text": None}
            if not req.json:
                t = spawn(req, req.argv(tce, INPUTS) + ["--no-plan-cache"], env)
                t_status, entry["total_text"], entry["steps_text"] = parse_output(req, t.rc, t.out)
                if t_status != status:
                    raise SystemExit(f"{req.key}: text and JSON exit statuses differ")
            if status == 0:
                entry["comm_hex"] = float(comm).hex()
                if not recheck(probe, work, [(as_json, j.out)]):
                    raise SystemExit(f"{req.key}: plan fails the full check registry")
            expected[req.key] = entry
            log(f"recorded {req.key}: status {status}, comm {comm}")
        for key, golden in GOLDENS.items():
            if expected[key]["total_text"] != golden_total(golden):
                raise SystemExit(f"{key} disagrees with {golden}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED, "w") as f:
        json.dump({"schema": "perfbench-expected/v1", "requests": expected}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    log(f"wrote {EXPECTED} ({len(expected)} requests)")


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")
    tce, probe = build()
    if args.record:
        record(tce, probe)
        return
    run = Run(args.workload, args.seed, args.seconds, tce, probe)
    try:
        setup_s = run.setup()
        if args.trace:
            correct, attempted, failed, metrics = per_layer(run)
        else:
            correct, attempted, failed, metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        parent = os.path.dirname(run.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    print(json.dumps({"correct": bool(correct) and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
