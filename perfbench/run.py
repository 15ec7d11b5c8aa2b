#!/usr/bin/env python3
"""End-to-end benchmark of `motto run` and `motto serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --fingerprint-table FIRST-LAST

Run from the root of a checkout. The first run builds motto (Release) and
the benchmark's programs under .bench_build/. Every run generates its inputs
from --seed, checks their fingerprints, computes reference counts apart from
the program, then repeats whole rounds of the workload for --seconds and
checks every round's output. With --trace 0 the end-to-end metrics are
measured on the real binary from outside; with --trace 1 the traced
in-process run (perfbench/tracer) gives the per-layer metrics instead. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import os
import re
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array

import harness
from harness import BUILD, MOTTO, REFCOUNT, RELEASES, TRACER, BenchError, log

# Fixed rate of serve-dc-paced: about half of what `motto serve` ingests
# when frames come as fast as the pipe takes them, on the 4-CPU reference
# host (README).
PACED_RATE = 200_000

# Query workloads are generated from a fixed seed; only the streams follow
# --seed. A seed-dependent query set would change the DSMT instance, so
# seeds would measure different optimizer problems rather than repeat one.
QUERY_SEED = 7
RATIO = 75
NESTED_LEVEL = 2

WORKLOADS = {
    "run-stock-100q": dict(kind="run", scenario="stock", queries=100,
                           events=200_000, shards=1, threads=1),
    "run-stock-30q-sharded": dict(kind="run", scenario="stock", queries=30,
                                  events=1_000_000, shards=4, threads=4),
    "serve-dc-paced": dict(kind="serve", scenario="dc", queries=30,
                           events=1_000_000, rate=PACED_RATE),
}

SETUP_REPEATS = 3        # Input generations timed per run-* run.
EXTRA_SERVE_SETUPS = 20  # Spawn-to-ready samples beyond one per round.
CHILD_TIMEOUT = 150


def input_names(spec):
    events = "200k" if spec["events"] == 200_000 else f"{spec['events'] // 1_000_000}m"
    return (f"{spec['scenario']}-{spec['queries']}q.ccl",
            f"{spec['scenario']}-{events}.csv")


def gen_workload(spec, path):
    harness.run_checked([MOTTO, "gen-workload", f"--scenario={spec['scenario']}",
                         f"--queries={spec['queries']}", f"--ratio={RATIO}",
                         f"--nested_level={NESTED_LEVEL}",
                         f"--seed={QUERY_SEED}", f"--out={path}"])


def gen_stream(spec, seed, path):
    harness.run_checked([MOTTO, "gen-stream", f"--scenario={spec['scenario']}",
                         f"--events={spec['events']}", f"--seed={seed}",
                         f"--out={path}"])


def make_inputs(spec, seed, work, timed):
    """Generates and fingerprints the inputs. With `timed`, generates them
    SETUP_REPEATS times and returns the wall times (the run-* setup_s)."""
    ccl_name, csv_name = input_names(spec)
    ccl, csv = work / ccl_name, work / csv_name
    times = []
    digests = set()
    for _ in range(SETUP_REPEATS if timed else 1):
        start = time.monotonic()
        gen_workload(spec, ccl)
        gen_stream(spec, seed, csv)
        times.append(time.monotonic() - start)
        digests.add((harness.sha256_file(ccl), harness.sha256_file(csv)))
    if len(digests) != 1:
        raise BenchError("input generation is not deterministic for one seed")
    harness.check_fingerprint(ccl, ccl_name, "-")
    harness.check_fingerprint(csv, csv_name, str(seed))
    harness.flush_to_disk(ccl, csv)
    return ccl, csv, times


def reference_counts(ccl, csv):
    """Independent counts (refcount): query -> count, for covered queries."""
    counts, uncovered = {}, []
    for line in harness.run_checked([REFCOUNT, ccl, csv]).splitlines():
        name, rest = line.split(" ", 1)
        if rest.startswith("uncovered"):
            uncovered.append(name)
        else:
            counts[name] = int(rest)
    if uncovered:
        log(f"refcount: {len(uncovered)} queries outside the counter: "
            f"{' '.join(uncovered)}")
    return counts


def unshared_counts(ccl, csv):
    """Counts of the unshared (NA) plan, recomputed for these inputs."""
    out = harness.run_checked([TRACER, "unshared", f"--workload={ccl}",
                               f"--stream={csv}"])
    report = json.loads(out.splitlines()[-1])
    return report["unshared"], report["user_queries"]


def check_counts(counts, queries, refcount, unshared):
    """One operation per user query: its count must equal the independent
    counter's (when it covers the query) and the unshared plan's."""
    failed = 0
    for name in queries:
        got = counts.get(name)
        bad = got is None
        if name in refcount and got != refcount[name]:
            bad = True
        if unshared is not None and got != unshared.get(name):
            bad = True
        if bad:
            failed += 1
            log(f"check: {name} counted {got}, independent "
                f"{refcount.get(name)}, unshared "
                f"{None if unshared is None else unshared.get(name)}")
    return len(queries), failed


def percentile(values, q):
    """Nearest-rank percentile of an unsorted list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# --- motto run ------------------------------------------------------------------

MATCH_LINE = re.compile(r"^\s+(\S+)\s+(\d+) matches$", re.M)


def run_round(spec, ccl, csv, work):
    args = [MOTTO, "run", f"--workload={ccl}", f"--stream={csv}"]
    if spec["shards"] > 1:
        args += [f"--shards={spec['shards']}", f"--threads={spec['threads']}"]
    out_path, result = work / "run.out", work / "run.rusage"
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = harness.spawn_measured(args, result, stdout=out,
                                      stderr=subprocess.DEVNULL)
        code, rss = harness.measured_result(proc, result, CHILD_TIMEOUT)
        total = time.monotonic() - start
    if code != 0:
        raise BenchError(f"motto run exited {code}")
    counts = {m.group(1): int(m.group(2))
              for m in MATCH_LINE.finditer(out_path.read_text())}
    return total, rss, counts


def bench_run(spec, seed, seconds, work):
    ccl, csv, setup_times = make_inputs(spec, seed, work, timed=True)
    refcount = reference_counts(ccl, csv)
    unshared, queries = unshared_counts(ccl, csv)
    totals, rss = [], []
    attempted = failed = 0
    while sum(totals) < seconds:
        total, peak, counts = run_round(spec, ccl, csv, work)
        a, f = check_counts(counts, queries, refcount, unshared)
        attempted += a
        failed += f
        totals.append(total)
        rss.append(peak)
    log(f"rounds: {len(totals)}, total_s {' '.join(f'{t:.3f}' for t in totals)}")
    metrics = {
        "total_s": statistics.median(totals),
        "setup_s": statistics.median(setup_times),
        "events_per_s": statistics.median(spec["events"] / t for t in totals),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, attempted, failed, failed


# --- motto serve ----------------------------------------------------------------

def serve_args(ccl, spec, work):
    return [MOTTO, "serve", f"--workload={ccl}", "--stdin",
            f"--scenario={spec['scenario']}",
            f"--checkpoint-dir={work / 'ckpt'}", f"--out-dir={work / 'out'}"]


def start_serve(ccl, spec, work):
    """Spawns `motto serve`; returns (process, spawn time, seconds to
    'serve: ready')."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.monotonic()
    with open(work / "stderr", "wb") as err:
        proc = harness.spawn_measured(
            serve_args(ccl, spec, work), work / "rusage",
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)  # Hung set-up.
    watchdog.start()
    try:
        while True:
            line = proc.stdout.readline()
            if not line:
                raise BenchError("motto serve exited before 'serve: ready'")
            if line.startswith(b"serve: ready"):
                return proc, start, time.monotonic() - start
    finally:
        watchdog.cancel()


def extra_setup(ccl, spec, work):
    """One more spawn-to-ready sample: the server is then closed without an
    end frame, so it suspends (final checkpoint) and exits."""
    proc, _, setup = start_serve(ccl, spec, work)
    proc.stdin.close()
    code, _ = harness.measured_result(proc, work / "rusage", CHILD_TIMEOUT)
    proc.stdout.close()
    if code != 0:
        raise BenchError(f"motto serve (setup sample) exited {code}")
    return setup


def feed(stdin, frames, layout, rate, t0, writes, errors):
    """Writer thread, open loop: writes every event frame once it is due at
    t0 + index / rate, whether or not the server keeps up (the write blocks
    only when the pipe is full). Appends (time, bytes written so far) per
    write."""
    first, size, count = layout
    view = memoryview(frames)
    sent = 0
    try:
        while sent < len(frames):
            due = int((time.monotonic() - t0) * rate) + 1
            target = len(frames) if due >= count else first + due * size
            if target <= sent:
                time.sleep(0.0002)
                continue
            sent += os.write(stdin.fileno(), view[sent:target])
            writes.append((time.monotonic(), sent))
        stdin.close()
    except OSError as error:
        errors.append(error)


def serve_round(spec, ccl, frames, layout, work):
    """One session of `motto serve --stdin`: a writer thread feeds the
    frames while this thread watches the output file grow and waits for
    the end-of-stream report."""
    proc, spawn_time, setup = start_serve(ccl, spec, work)
    out_path = work / "out" / "conn0.matches"
    stdout_fd = proc.stdout.fileno()
    os.set_blocking(stdout_fd, False)
    writes, errors = [], []
    seen = array("d")   # (time, size) each time the output file grew.
    out_fd = None
    stdout_text = b""
    end_report = None
    sel = selectors.DefaultSelector()
    sel.register(stdout_fd, selectors.EVENT_READ)
    t0 = time.monotonic()
    writer = threading.Thread(target=feed, args=(proc.stdin, frames, layout,
                                                 spec["rate"], t0, writes,
                                                 errors))
    writer.start()
    while True:
        if out_fd is None and out_path.exists():
            out_fd = os.open(out_path, os.O_RDONLY)
        if out_fd is not None:
            grown = os.fstat(out_fd).st_size
            if not seen or grown > seen[-1]:
                seen.extend((time.monotonic(), grown))
        try:
            chunk = os.read(stdout_fd, 65536)
        except BlockingIOError:
            chunk = None
        if chunk == b"":
            break  # The server closed stdout: it is exiting.
        if time.monotonic() - spawn_time > CHILD_TIMEOUT:
            proc.kill()
            raise BenchError(f"motto serve did not finish in {CHILD_TIMEOUT}s")
        if chunk:
            stdout_text += chunk
            if end_report is None and b"serve: end of stream" in stdout_text:
                end_report = time.monotonic()
        sel.select(timeout=0.0005)
    sel.close()
    writer.join()
    code, rss = harness.measured_result(proc, work / "rusage", CHILD_TIMEOUT)
    total = time.monotonic() - spawn_time
    if out_fd is not None:
        os.close(out_fd)
    if errors or code != 0 or end_report is None:
        raise BenchError(f"motto serve exited {code} without an end report "
                         f"{errors}")
    return dict(setup=setup, total=total, rss=rss, first_write=t0,
                end_report=end_report, stdout=stdout_text, writes=writes,
                seen=seen, out=out_path)


def generator_lag_ms(result, layout, rate):
    """Per write of the paced generator: how late its oldest frame went out."""
    first, size, _ = layout
    lag, done = [], 0
    for t, end in result["writes"]:
        lag.append((t - result["first_write"] - done / rate) * 1000.0)
        done = max(0, (end - first) // size)
    return lag


def release_latencies(result, spec, frames_path, work, queries):
    """Per-sink line counts of the round's output file, and release latency
    percentiles of user-query lines (perfbench/releases)."""
    seen_path = work / "seen.f64"
    with open(seen_path, "wb") as f:
        result["seen"].tofile(f)
    out = harness.run_checked([RELEASES, result["out"], frames_path, seen_path,
                               spec["rate"], repr(result["first_write"]),
                               *queries])
    counts = {}
    for line in out.splitlines():
        kind, *fields = line.split()
        if kind == "count":
            counts[fields[0]] = int(fields[1])
        else:
            p50, p99, samples = float(fields[0]), float(fields[1]), int(fields[2])
    return counts, p50, p99, samples


def check_serve(counts, stdout, spec, queries, reference):
    """Operations of one serve round: one per user query (released count
    equals the reference), one for the ingest (every event ingested, none
    shed), and one per internal sink found in the output. Those last fail
    every time, a known fault: `motto serve` releases the internal sinks of
    nested sub-queries ("<query>#in<k>") to the client. They are counted per
    sink, not per line, because the line count follows the seed.
    Returns (attempted, failed, unexpected failures, internal sinks)."""
    released = {q: counts.get(q, 0) for q in queries}
    attempted, failed = check_counts(released, queries, reference, None)
    attempted += 1
    ingested = re.search(rb"serve: end of stream: (\d+) events", stdout)
    if (not ingested or int(ingested.group(1)) != spec["events"]
            or b"serve: shed" in stdout):
        failed += 1
        log("check: server did not ingest every event")
    unexpected = failed
    internal = sorted(s for s, n in counts.items() if n and s not in queries)
    attempted += len(internal)
    failed += len(internal)
    return attempted, failed, unexpected, internal


def serve_inputs(spec, seed, work):
    ccl, csv, _ = make_inputs(spec, seed, work, timed=False)
    reference = reference_counts(ccl, csv)
    queries = [line.split(":", 1)[0] for line in ccl.read_text().splitlines()
               if line.strip() and not line.startswith("#")]
    missing = [q for q in queries if q not in reference]
    if missing:  # Fall back to the unshared plan for what refcount skips.
        unshared, _ = unshared_counts(ccl, csv)
        reference.update({q: unshared.get(q) for q in missing})
    frames_path = work / "frames.bin"
    harness.run_checked([MOTTO, "wire-encode", f"--stream={csv}",
                         f"--out={frames_path}"])
    harness.flush_to_disk(frames_path)
    return ccl, csv, frames_path, queries, reference


def bench_serve(spec, seed, seconds, work):
    ccl, csv, frames_path, queries, reference = serve_inputs(spec, seed, work)
    frames = frames_path.read_bytes()
    layout = harness.event_frame_offsets(frames)
    if layout[2] != spec["events"]:
        raise BenchError("wire file event count differs from the stream")

    setups = [extra_setup(ccl, spec, work / "setup")
              for _ in range(EXTRA_SERVE_SETUPS)]
    rounds = []
    attempted = failed = unexpected = 0
    # Rounds run until their own time adds up to `seconds`; checking a
    # round's output is not counted.
    while sum(r["total"] for r in rounds) < seconds:
        result = serve_round(spec, ccl, frames, layout, work / "serve")
        counts, result["p50"], result["p99"], samples = release_latencies(
            result, spec, frames_path, work, queries)
        a, f, u, internal = check_serve(counts, result["stdout"], spec,
                                        queries, reference)
        attempted += a
        failed += f
        unexpected += u
        internal_lines = sum(counts[s] for s in internal)
        rounds.append(result)
        setups.append(result["setup"])
        shutil.rmtree(work / "serve", ignore_errors=True)

    eps = [spec["events"] / (r["end_report"] - r["first_write"]) for r in rounds]
    p50 = [r["p50"] for r in rounds]
    p99 = [r["p99"] for r in rounds]
    # Release latency is printed, not reported as a metric: checkpoint
    # fsyncs set it, and their latency on a shared virtual disk drifts
    # between runs by more than any bound allowed (README).
    log(f"rounds: {len(rounds)}, events_per_s "
        f"{' '.join(f'{e:.0f}' for e in eps)}, release p50 "
        f"{' '.join(f'{v:.2f}' for v in p50)} ms (median "
        f"{statistics.median(p50):.2f}), p99 "
        f"{' '.join(f'{v:.2f}' for v in p99)} ms (median "
        f"{statistics.median(p99):.2f}) over {samples} lines each")
    log(f"output: {internal_lines} of {sum(counts.values())} lines in the "
        f"last round came from internal sinks {' '.join(internal)}")
    lags = [generator_lag_ms(r, layout, spec["rate"]) for r in rounds]
    log(f"generator lag p99: "
        f"{' '.join(f'{percentile(v, 0.99):.2f}' for v in lags)} ms over "
        f"{[len(v) for v in lags]} writes")
    metrics = {
        "total_s": statistics.median(r["total"] for r in rounds),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(eps),
        "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
    }
    return metrics, attempted, failed, unexpected


# --- Traced run -----------------------------------------------------------------

def bench_trace(spec, seed, seconds, work):
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{work.name}.json"
    if spec["kind"] == "run":
        ccl, csv, _ = make_inputs(spec, seed, work, timed=False)
        refcount = reference_counts(ccl, csv)
        args = [TRACER, "run", f"--shards={spec['shards']}",
                f"--threads={spec['threads']}"]
    else:
        ccl, csv, frames_path, queries, refcount = serve_inputs(spec, seed, work)
        args = [TRACER, "serve", f"--frames={frames_path}"]
    # The other front end runs too, on the same inputs (tracer.cc).
    args += [f"--workload={ccl}", f"--stream={csv}",
             f"--scenario={spec['scenario']}", f"--work-dir={work / 'trace'}",
             f"--rate={PACED_RATE}", f"--trace-out={trace_path}"]
    out_path, err_path = work / "tracer.out", work / "tracer.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code = harness.reap(harness.spawn(args, stdout=out, stderr=err),
                            CHILD_TIMEOUT)
    if code != 0:
        raise BenchError(f"tracer exited {code}: "
                         f"{err_path.read_text()[-2000:]}")
    log(err_path.read_text().rstrip())  # The per-layer table.
    report = json.loads(out_path.read_text().splitlines()[-1])
    for note in report["notes"]:
        log(f"trace: {note}")
    queries = report["user_queries"]
    if spec["kind"] == "run":
        attempted, failed = check_counts(report["counts"], queries, refcount,
                                         report["unshared"])
        unexpected = failed
    else:
        stdout = (f"serve: end of stream: {report['ingested']} events"
                  .encode())
        attempted, failed, unexpected, _ = check_serve(
            report["counts"], stdout, spec, queries, refcount)
    metrics = report["metrics"]
    if spec["kind"] == "serve":
        # The open loop is valid when the generator keeps its schedule:
        # measured on one real round, where it is its own thread.
        frames = frames_path.read_bytes()
        layout = harness.event_frame_offsets(frames)
        result = serve_round(spec, ccl, frames, layout, work / "serve")
        metrics["serve.generator_lag_ms_p99"] = percentile(
            generator_lag_ms(result, layout, spec["rate"]), 0.99)
    log(f"trace file: {trace_path}")
    return metrics, attempted, failed, unexpected


# --- Entry points -----------------------------------------------------------------

def fingerprint_rows(seeds):
    """Prints README fingerprint rows for the given seeds."""
    work = BUILD / "fingerprints"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rows = {}
    for spec in WORKLOADS.values():
        ccl_name, csv_name = input_names(spec)
        gen_workload(spec, work / ccl_name)
        rows[(ccl_name, "-")] = harness.sha256_file(work / ccl_name)
        for seed in seeds:
            if (csv_name, str(seed)) not in rows:
                gen_stream(spec, seed, work / csv_name)
                rows[(csv_name, str(seed))] = harness.sha256_file(work / csv_name)
    shutil.rmtree(work)
    for (name, seed), digest in rows.items():
        print(f"| `{name}` | {seed} | `{digest}` |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--fingerprint-table", metavar="FIRST-LAST")
    args = parser.parse_args()

    harness.build()
    if args.self_test:
        code = subprocess.run([str(REFCOUNT), "--self-test"]).returncode
        return code
    harness.host_stamp()
    if args.fingerprint_table:
        first, last = (int(x) for x in args.fingerprint_table.split("-"))
        fingerprint_rows(range(first, last + 1))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = WORKLOADS[args.workload]
    work = BUILD / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            measure = bench_trace
        elif spec["kind"] == "run":
            measure = bench_run
        else:
            measure = bench_serve
        metrics, attempted, failed, unexpected = measure(
            spec, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json "
                         f"declares {sorted(units)}")
    for name, value in metrics.items():
        log(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        # Failed operations are the known fault alone.
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
    finally:
        harness.stop_children()
