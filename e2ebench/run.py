#!/usr/bin/env python3
"""End-to-end benchmark of the asim simulator: spec text in, checked
result out. See e2ebench/README.md.

    python3 e2ebench/run.py --workload big_design|sieve|serve_sessions \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the checkout (Release, into
.bench_build) with the benchmark package in e2ebench/, runs one workload
and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the workload's end-to-end metrics, --trace 1 the
per-layer ones: a traced run measures the layers of all three workloads,
the named one's for the run's time (the span files land in .bench_out/).

Every process the run starts is stopped and waited for, and its work
directory removed, on every exit path: success, failed check,
exception, timeout or signal.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("big_design", "sieve", "serve_sessions")
BUILD_DIR = ".bench_build"
WORK_ROOT = ".bench_work"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170

# Ledger bound: the program's own lifecycle span totals against the
# benchmark's spans around the same facade calls (big_design's layer
# pass, in every traced run).
SPAN_LEDGER_BOUND = 0.05


class Interrupted(Exception):
    pass


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def on_signal(signum, _frame):
    raise Interrupted(signal.Signals(signum).name)


def die_with_parent():
    """Child side of the benchmark process: SIGTERM when run.py dies."""
    os.setsid()
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def build(root):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(root, BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "e2ebench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       cwd=root, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "e2ebench", "-j", jobs],
                   cwd=root, check=True, stdout=sys.stderr, env=env)
    return os.path.join(root, BUILD_DIR, "e2ebench")


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(proc):
    """Stop the benchmark's process group (benchmark, daemon, native
    children) and wait until every member has ended."""
    pgid = proc.pid
    # The benchmark first: its handler stops the daemon cleanly. Then
    # whatever is left in its group: SIGTERM, finally SIGKILL.
    steps = (lambda: proc.send_signal(signal.SIGTERM),
             lambda: os.killpg(pgid, signal.SIGTERM),
             lambda: os.killpg(pgid, signal.SIGKILL))
    for step in steps:
        proc.poll()  # reap it: a zombie still counts as alive
        if not group_alive(pgid):
            break
        try:
            step()
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            proc.poll()
            if not group_alive(pgid):
                break
            time.sleep(0.02)
    proc.wait()


def sweep_stale_work(root):
    """Remove work directories of runs whose wrapper was killed
    outright (SIGKILL leaves no chance to clean up); their benchmark
    process and daemon died with it."""
    base = os.path.join(root, WORK_ROOT)
    for name in os.listdir(base) if os.path.isdir(base) else ():
        try:
            os.kill(int(name.split("-", 1)[1]), 0)
        except (IndexError, ValueError, ProcessLookupError):
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)
        except PermissionError:
            pass


def span_totals(path):
    with open(path) as f:
        events = json.load(f)
    if isinstance(events, dict):
        events = events.get("traceEvents", [])
    totals = {}
    for ev in events:
        if isinstance(ev, dict) and ev.get("ph") == "X":
            totals[ev["name"]] = totals.get(ev["name"], 0.0) + ev["dur"]
    return totals


def span_ledger(root, result, workload):
    """Traced runs: the program's sim.parse_resolve + sim.build_engine
    and sim.run totals of big_design's facade pass must agree with the
    benchmark's spans around the same Simulation calls."""
    prog = span_totals(os.path.join(root, OUT_DIR,
                                    "big_design.program.json"))
    bench = span_totals(os.path.join(root, OUT_DIR,
                                     workload + ".bench.json"))
    pairs = {
        "load": (prog.get("sim.parse_resolve", 0) +
                 prog.get("sim.build_engine", 0),
                 bench.get("bench.facade.load", 0)),
        "run": (prog.get("sim.run", 0), bench.get("bench.facade.run", 0)),
    }
    for name, (p, b) in pairs.items():
        ratio = p / b if b > 0 else 0.0
        result["metrics"]["ledger.program_over_bench." + name] = {
            "value": ratio, "unit": "ratio"}
        if abs(ratio - 1) > SPAN_LEDGER_BOUND:
            print(f"e2ebench: check failed: program span total {name} "
                  f"{p:.0f}us vs benchmark {b:.0f}us", file=sys.stderr)
            result["correct"] = False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("CMakeLists.txt", "src/sim/simulation.hh",
                 "src/cli/asim_serve_main.cc"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{root} is not an asim checkout (no {need}); "
                 "nothing to build")

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, on_signal)

    sweep_stale_work(root)
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    proc = None
    try:
        binary = build(root)
        env = dict(os.environ)
        # g++ temporaries of native builds stay inside the checkout.
        tmp = os.path.join(root, work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work,
               "--out-dir", OUT_DIR]
        proc = subprocess.Popen(cmd, cwd=root, env=env,
                                stdout=subprocess.PIPE,
                                preexec_fn=die_with_parent)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"benchmark exceeded {RUN_TIMEOUT_S}s")
        if proc.returncode != 0:
            fail(f"benchmark exited with status {proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            fail("benchmark printed no result")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        if args.trace:
            span_ledger(root, result, args.workload)
        print(json.dumps(result))
    except Interrupted as e:
        print(f"e2ebench: interrupted by {e}", file=sys.stderr)
        sys.exit(3)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    finally:
        if proc is not None:
            stop_group(proc)
        shutil.rmtree(os.path.join(root, work), ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass


if __name__ == "__main__":
    main()
