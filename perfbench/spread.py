#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, judged the way the
benchmark's bounds are: run one workload several times, then for each
metric print the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and that spread as a share of the metric's
bound in BENCHMARK.json. A steady benchmark keeps every share below 1/3.

    python3 perfbench/spread.py --workload tiny-sweep --runs 10            # seeds 1..10
    python3 perfbench/spread.py --workload tiny-sweep --runs 10 --seed 24301  # one seed, repeated

By default each run takes the next seed from --first-seed, as a
comparison across seeds does; --seed repeats one seed instead, which
isolates run-to-run noise from the datasets the seeds draw.
Run it from the repository root; it calls perfbench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seed", type=int, help="repeat this seed on every run")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    seeds = ([args.seed] * args.runs if args.seed is not None
             else range(args.first_seed, args.first_seed + args.runs))
    for seed in seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stdout, out.stderr, file=sys.stderr)
            return 1
        last = json.loads(out.stdout.strip().splitlines()[-1])
        host = [l for l in out.stdout.splitlines() if l.startswith("host ")]
        print(f"seed {seed}: correct={last['correct']} failed={last['failed']}/"
              f"{last['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()))
        print(f"  {host[-1] if host else ''}")
        if not last["correct"]:
            return 1
        for k, v in last["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"\n{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}{'share':>7}")
    worst = 0.0
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        share = spread / m["bound"]
        if m["name"] != "setup_s":
            worst = max(worst, share)
        print(f"{m['name']:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{m['bound']:>7.2f}{share:>7.2f}")
    print(f"\nlargest spread share (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
