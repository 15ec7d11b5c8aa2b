"""Build, host stamp, inputs and process helpers for perfbench/run.py.

Everything the benchmark writes goes under .bench_build/ in the checkout.
"""

import hashlib
import os
import re
import shutil
import subprocess
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
MOTTO_BUILD = BUILD / "motto"
TOOLS_BUILD = BUILD / "perfbench"
MOTTO = MOTTO_BUILD / "tools" / "motto"
REFCOUNT = TOOLS_BUILD / "refcount"
LAUNCH = TOOLS_BUILD / "launch"
RELEASES = TOOLS_BUILD / "releases"
TRACER = TOOLS_BUILD / "tracer"
README = BENCH_DIR / "README.md"

# Every child process, so a failure or timeout never leaves one running.
_children = []


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(message, flush=True)


def spawn(args, **kwargs):
    proc = subprocess.Popen([str(a) for a in args], **kwargs)
    _children.append(proc)
    return proc


def reap(proc, timeout):
    """Waits for `proc` and returns its exit code; kills it on timeout. The
    wait blocks (no polling), so it returns the moment the process ends and
    takes no CPU from it meanwhile."""
    expired = threading.Event()

    def kill():
        expired.set()
        proc.kill()

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    _children.remove(proc)
    if expired.is_set():
        raise BenchError(f"{proc.args[:3]} did not finish in {timeout}s")
    return code


def spawn_measured(args, result_path, **kwargs):
    """Spawns `args` under perfbench/launch, which records its exit code and
    peak RSS in `result_path` (see launch.cc for why not wait4 here)."""
    return spawn([LAUNCH, result_path, *args], **kwargs)


def measured_result(proc, result_path, timeout):
    """Waits for a spawn_measured process; returns (exit code, peak RSS MB)."""
    reap(proc, timeout)
    try:
        code, rss_kb = result_path.read_text().split()
    except (OSError, ValueError):
        raise BenchError(f"launch left no result for {proc.args[2:4]}")
    return int(code), int(rss_kb) / 1024.0


def stop_children():
    for proc in list(_children):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _children.remove(proc)


def run_checked(args, timeout=170):
    """Runs a helper command to completion; returns its stdout text."""
    proc = spawn(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        _children.remove(proc)
        raise BenchError(f"{args[:2]} did not finish in {timeout}s")
    _children.remove(proc)
    if proc.returncode != 0:
        tail = (err or b"").decode(errors="replace")[-2000:]
        raise BenchError(f"{[str(a) for a in args[:3]]} exited "
                         f"{proc.returncode}: {tail}")
    return out.decode(errors="replace")


# --- Build ----------------------------------------------------------------------

def build():
    """Builds motto (Release) and the benchmark's own programs."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no motto source tree at {ROOT} (CMakeLists.txt, "
                         "src/); run from the root of a full checkout")
    BUILD.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(BUILD / "build.log", "wb") as build_log:
        steps = []
        if not (MOTTO_BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", ROOT, "-B", MOTTO_BUILD,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DMOTTO_BUILD_TESTS=OFF",
                          "-DMOTTO_BUILD_BENCHMARKS=OFF",
                          "-DMOTTO_BUILD_EXAMPLES=OFF"])
        steps.append(["cmake", "--build", MOTTO_BUILD, "--target", "motto_cli",
                      "-j", jobs])
        if not (TOOLS_BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", BENCH_DIR, "-B", TOOLS_BUILD,
                          "-DCMAKE_BUILD_TYPE=Release",
                          f"-DMOTTO_SOURCE_DIR={ROOT}",
                          f"-DMOTTO_BUILD_DIR={MOTTO_BUILD}"])
        steps.append(["cmake", "--build", TOOLS_BUILD, "-j", jobs])
        for step in steps:
            proc = spawn(step, stdout=build_log, stderr=subprocess.STDOUT)
            code = reap(proc, timeout=850)
            if code != 0:
                build_log.flush()
                tail = (BUILD / "build.log").read_text(errors="replace")
                raise BenchError(f"build step {[str(s) for s in step[:3]]} "
                                 f"failed:\n{tail[-3000:]}")


def cache_value(cache, key):
    match = re.search(rf"^{key}:[A-Z]+=(.*)$", cache, re.M)
    return match.group(1).strip() if match else ""


def source_digest():
    """sha256 over the sources that make up the motto binary."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_stamp():
    """Prints CPU count, build type, compiler and commit; refuses non-Release."""
    cache = (MOTTO_BUILD / "CMakeCache.txt").read_text(errors="replace")
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    compiler_path = cache_value(cache, "CMAKE_CXX_COMPILER")
    compiler = run_checked([compiler_path, "--version"]).splitlines()[0]
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    log(f"host: cpus={os.cpu_count()} build={build_type or '(empty)'} "
        f"compiler='{compiler}' commit={commit} source={source_digest()}")
    if build_type != "Release":
        raise BenchError(f"refusing to time a '{build_type}' build of motto; "
                         f"{MOTTO_BUILD} must be configured as Release")


# --- Inputs and fingerprints ----------------------------------------------------

def flush_to_disk(*paths):
    """fsyncs files the benchmark wrote, so their write-back does not land
    in the measured rounds (motto serve fsyncs its own checkpoints and
    output, and on ext4 those wait for other dirty data)."""
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fingerprint_table():
    """(file name, seed) -> sha256 from the README's fingerprint table; the
    seed of a seed-independent file is '-'."""
    table = {}
    row = re.compile(r"^\|\s*`([\w.-]+)`\s*\|\s*(-|\d+)\s*\|\s*`([0-9a-f]{64})`")
    for line in README.read_text().splitlines():
        match = row.match(line)
        if match:
            table[(match.group(1), match.group(2))] = match.group(3)
    return table


def check_fingerprint(path, name, seed):
    """Stops the run when a generated file differs from its recorded hash."""
    actual = sha256_file(path)
    expected = fingerprint_table().get((name, seed))
    if expected is None:
        log(f"fingerprint: {name} seed {seed} not in the README table "
            f"(sha256 {actual[:16]}), not checked")
        return actual
    if actual != expected:
        raise BenchError(
            f"input fingerprint mismatch for {name} (seed {seed}): "
            f"sha256 {actual} != recorded {expected}; workload/query_gen or "
            "workload/data_gen changed, so the baseline no longer applies")
    return actual


def event_frame_offsets(frames):
    """(first byte of event frames, frame size, count) of a wire file made
    by `motto wire-encode`: hello and registrations first, then fixed-size
    event frames, then one end frame."""
    pos = 0
    while pos + 5 <= len(frames) and frames[pos + 4] != 3:  # 3 = kEvent.
        pos += 4 + int.from_bytes(frames[pos:pos + 4], "little") + 4
    size = 4 + int.from_bytes(frames[pos:pos + 4], "little") + 4
    end_frame = 4 + 1 + 4
    body = len(frames) - pos - end_frame
    if body <= 0 or body % size != 0:
        raise BenchError("wire file layout not understood")
    count = body // size
    if frames[pos + 4:pos + body:size] != b"\x03" * count:
        raise BenchError("wire file has non-event frames between events")
    return pos, size, count
