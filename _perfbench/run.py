#!/usr/bin/env python3
"""Build and run sdcmd's benchmark (the Go program in this directory).

One run, from the root of a checkout:

    python3 _perfbench/run.py --workload md-paper --seed 1 --seconds 10 --trace 0

builds the program into .bench_build/ (Go build cache included, so the
build reads and writes nothing outside the checkout), runs it, and
passes its output through: the last line is the JSON result.

Steadiness report: run a workload N times with seeds seed..seed+N-1 and
print, for every metric of the result, the median, the quartiles and
the quartile spread as a share of the median and of the metric's bound
in BENCHMARK.json, and the same for the raw values of the metrics the
yardstick adjusts (see README.md):

    python3 _perfbench/run.py --workload serve-mix --repeat 10 --seconds 10
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    try:
        r = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def die_with_parent():
    """In the child before exec: ask Linux to kill it if this script dies."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def run_once(workload, seed, seconds, trace, capture):
    """Run the built program once; returns (exit code, stdout or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None,
                         preexec_fn=die_with_parent)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        p.kill()  # the program's own generator process dies with it
        p.wait()
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None
    return p.returncode, (out.decode() if capture else None)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def repeat(args):
    values = {}
    units = {}
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(args.workload, seed, args.seconds, args.trace, capture=True)
        if code != 0 or not out:
            print(f"run.py: {args.workload} seed {seed} failed (exit {code})", file=sys.stderr)
            return 1
        lines = out.strip().splitlines()
        res = json.loads(lines[-1])
        host = next((json.loads(l[len("context "):]) for l in lines if l.startswith("context ")), {})
        if not res["correct"] or res["failed"]:
            print(f"run.py: {args.workload} seed {seed}: incorrect or failed operations", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for l in lines:  # the same metrics before the host-speed adjustment
            if l.startswith("note raw "):
                name, _, rest = l[len("note raw "):].partition(": ")
                if name in res["metrics"]:
                    values.setdefault("raw " + name, []).append(float(rest.split()[0]))
                    units["raw " + name] = res["metrics"][name]["unit"]
        speed = next((l[l.index("host speed"):] for l in lines if l.startswith("note yardstick") and "host speed" in l), "")
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())) +
              f"  [host: steal {host.get('steal_frac', float('nan')):.3f},"
              f" calib {host.get('calib_serial_force_ns_per_pair', float('nan')):.1f} ns/pair; {speed}]", flush=True)
    bnd = bounds()
    print(f"\n{args.workload}: {args.repeat} runs of {args.seconds} s, trace {args.trace}")
    print(f"{'metric':34s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
    for name in sorted(values):
        vs = values[name]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        b = bnd.get(name)
        share = f"{spread / b:12.2f}" if b else f"{'-':>12s}"
        print(f"{name:34s} {units[name]:9s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{(b if b else '-'):>6} {share}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="steadiness report over this many seeds")
    args = ap.parse_args()
    if not build():
        return 2
    if args.repeat > 0:
        return repeat(args)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
