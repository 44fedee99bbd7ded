#!/usr/bin/env python3
"""End-to-end benchmark of pcmsim.

Builds perfbench/pcmbench (the pcmsim libraries from src/ plus the driver in
perfbench/pcmbench.cpp), runs one workload and prints, as the last line of
stdout, one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The line before it is a report: the
workload's configuration, its simulated digest, every repetition's times and
the host and build provenance.

    python3 perfbench/run.py --workload lifetime-milc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

--smoke runs every workload at a seconds-long scale, untraced and traced,
and checks the pinned digests, that the traced runs reproduce the plain
ones, and that every metric BENCHMARK.json names is printed.

Correctness: the plain runs call the repo's own entry points (run_lifetime;
ShardedPcmEngine::add_sampled_tenants and run). Every repetition must give
the same simulated digest, and perfbench/pins.json pins that digest per
workload and seed (0-20). A traced run drives the layers itself and must
reproduce the plain run's digest. A change that alters simulated behaviour
on purpose re-pins: run the seed without its pin and copy the report's
digest.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the repo
root; the replay workload's trace capture is written there too.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lifetime-milc", "multitenant", "replay-tier")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds pcmbench; returns the binary and its work directory."""
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "pcmbench", "-j", jobs],
    ):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    (out / "work").mkdir(exist_ok=True)
    return out / "pcmbench", out / "work"


def run_once(binary, workdir, workload, seed, seconds, trace, scale, pins):
    """Runs pcmbench once; returns (raw result, pin or None)."""
    pin = pins.get(scale, {}).get(workload, {}).get(str(seed))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
           "--workdir", str(workdir)]
    if pin:
        cmd += ["--expect-digest", pin["digest"]]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), pin


def to_result(raw, pin, spec, trace):
    """The contract's result line from pcmbench's raw output."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(raw["values"]) != names:
        raise ValueError(f"metrics printed {sorted(raw['values'])} != declared {sorted(names)}")
    failed = raw["failed"]
    attempted = raw["attempted"]
    if pin and not trace:
        # The pinned seed's lifetime is also stated plainly, so a reader can
        # compare it with lifetime_study's table.
        attempted += 1
        if raw["values"]["lifetime_writes"] != pin["lifetime_writes"]:
            failed += 1
    return {
        "correct": raw["correct"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": raw["values"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def smoke(binary, workdir, spec, pins):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                raw, pin = run_once(binary, workdir, workload, 1, 0, trace, "smoke", pins)
                result = to_result(raw, pin, spec, trace)
                passed = bool(pin) and result["correct"]
            except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as e:
                log(f"smoke {workload} trace={trace}: {e}")
                passed = False
            print(f"smoke {workload} trace={trace}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        binary, workdir = build()
        if args.smoke:
            return 0 if smoke(binary, workdir, spec, pins) else 1
        raw, pin = run_once(binary, workdir, args.workload, args.seed, seconds, args.trace,
                            "full", pins)
        result = to_result(raw, pin, spec, args.trace)
    except (OSError, subprocess.SubprocessError, ValueError, KeyError, IndexError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps({"report": raw["report"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
