#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The benchmark builds its measuring
program (perfbench/ucbench.exe) from source with dune, then runs it with
every file it writes kept in a fresh state directory,
.perfbench-run/<workload>-s<seed>/, which is removed when the run ends,
failed or not; a run refuses to start if that directory is there.
Where the host allows it, each process of the run gets a private mount
namespace with a tmpfs mounted over its state directory: the files stay
inside the checkout's tree but live in memory, so no run inherits an
earlier run's disk writeback (see NOTES.md).  The report says which
state mode the run used; runs of the two modes are not comparable.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; `setup_s` is the median of several set-ups, each
in a fresh process with fresh state (see NOTES.md).  With --trace 1 it
carries the per-layer metrics of a traced run, and the measuring
program writes the spans to .perfbench-out/<workload>-<seed>.spans.jsonl.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("paper-figures", "batch-cold", "serve-mixed")
EXE = os.path.join("_build", "default", "perfbench", "ucbench.exe")
STATE_ROOT = ".perfbench-run"
DEFAULT_CACHE = "_ucd_cache"  # the CLI's default cache; a run never touches it
# set-ups per run (each in a fresh process); setup_s is their median
SETUPS = {"paper-figures": 5, "batch-cold": 15, "serve-mixed": 21}
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 150
SETUP_TIMEOUT = 40


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout, env=None, capture=True):
    """Run [cmd] to completion; on timeout kill its whole process group
    and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        env=env,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build(target):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a checkout of the repository")
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_child(
        ["dune", "build", "--root", ".", target], BUILD_TIMEOUT, env=env, capture=False
    )
    if code != 0:
        sys.exit(f"run.py: building {target} failed")


# mounts a tmpfs over the state directory "$0", then runs "$@"
MOUNT_AND_EXEC = 'mount -t tmpfs -o size=1g,mode=0700 perfbench "$0" && exec "$@"'


def private_tmpfs(probe_dir):
    """The command prefix that runs a process in a private mount
    namespace, or None when this host allows none (then the state
    stays on the checkout's own filesystem)."""
    for prefix in (["unshare", "--mount"],
                   ["unshare", "--user", "--map-root-user", "--mount"]):
        try:
            code, _ = run_child(prefix + ["sh", "-c", MOUNT_AND_EXEC, probe_dir, "true"], 20)
        except (OSError, subprocess.SubprocessError):
            continue
        if code == 0:
            return prefix
    return None


def discard(path):
    """Remove a state directory and let the filesystem settle, so its
    deletion is not written back while the next process measures."""
    shutil.rmtree(path, ignore_errors=True)
    os.sync()


def tree_stamp(path):
    """Every entry under [path] with its modification time and size, or
    None when [path] does not exist: a run that writes there changes it."""
    if not os.path.exists(path):
        return None
    stamp = []
    for root, dirs, files in os.walk(path):
        for name in sorted(dirs + files):
            p = os.path.join(root, name)
            st = os.lstat(p)
            stamp.append((p, st.st_mtime_ns, st.st_size))
    st = os.lstat(path)
    return sorted(stamp) + [(path, st.st_mtime_ns, st.st_size)]


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def main():
    # a SIGTERM unwinds like an error: children are killed and waited
    # for, and the state directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.selftest:
        build("@perfbench/selftest")  # the alias runs the self-tests
        return
    if a.workload is None:
        ap.error("--workload is required")

    build("./perfbench/ucbench.exe")

    # State isolation: one directory per (workload, seed).  If it is
    # there, an earlier run of this workload and seed was killed before
    # it could clean up, or one is running now: refuse to start.
    state = os.path.join(STATE_ROOT, f"{a.workload}-s{a.seed}")
    try:
        os.makedirs(state)
    except FileExistsError:
        sys.exit(f"run.py: state directory {state} already exists (a killed or "
                 "concurrent run); remove it to run again")
    os.sync()  # nothing an earlier process wrote is still being written back
    default_cache = tree_stamp(DEFAULT_CACHE)
    try:
        result = measure(a, state)
        # every cache the run uses has an explicit directory under its state
        if tree_stamp(DEFAULT_CACHE) != default_cache:
            sys.exit(f"run.py: the run wrote to {DEFAULT_CACHE}/; it must never use it")
    finally:
        discard(state)
        try:
            os.rmdir(STATE_ROOT)
        except OSError:
            pass
    print(json.dumps(result))


def measure(a, state):
    probe = os.path.join(state, "probe")
    os.makedirs(probe)
    prefix = private_tmpfs(probe)
    print("state: " + ("a private tmpfs per process" if prefix else
                       "the checkout's filesystem (no private mount namespace here): "
                       "not comparable with runs on a private tmpfs"), flush=True)

    def child(extra, sub, timeout):
        d = os.path.join(state, sub)
        os.makedirs(d)
        env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(d, "tmp")))
        cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--state", d] + extra
        # the state directory (and TMPDIR inside it) must exist after the
        # mount, so the measuring program creates "tmp" itself
        if prefix:
            cmd = prefix + ["sh", "-c", MOUNT_AND_EXEC, d] + cmd
        code, out = run_child(cmd, timeout, env=env)
        sys.stdout.write("".join(l + "\n" for l in out.splitlines()[:-1]))
        sys.stdout.flush()
        if code != 0:
            sys.exit(f"run.py: {a.workload} exited with code {code}")
        discard(d)
        return last_json(out)

    setups = []
    if not a.trace:
        for k in range(SETUPS[a.workload] - 1):
            setups.append(child(["--setup-only"], f"setup{k}", SETUP_TIMEOUT)["setup_s"])
    result = child([], "run", RUN_TIMEOUT)
    if not a.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        log("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


if __name__ == "__main__":
    main()
