"""Run every workload over several seeds and report run-to-run spread.

    python3 perfbench/spread.py --runs 10 --seconds 20

For each end-to-end metric this prints the median over the runs and the
spread (interquartile range over median, as ``statistics.quantiles``
gives the quartiles) on the corrected clock and on the raw wall clock,
so the correction can be checked to narrow it.  Runs are sequential, one
process each, and every run's output check must pass.  Every run's values
are kept in ``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reducers  # noqa: E402

WORKLOADS = ("long_prompt", "long_decode", "shared_prefix_fleet")


def one_run(workload: str, seed: int, seconds: float) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}"
                         f"\n{proc.stderr}")
    result = json.loads(lines[-1])
    raw = next(json.loads(line[len("raw: "):]) for line in lines
               if line.startswith("raw: "))
    # run.py's "<metric>: <value> <unit> (n=...)" and request-count lines
    report = [line for line in lines
              if line.split(":")[0] in result["metrics"]
              or line.startswith("requests:")]
    return ({k: v["value"] for k, v in result["metrics"].items()}, raw,
            report, {k: v["unit"] for k, v in result["metrics"].items()})


def spread(values) -> float:
    return reducers.iqr(values) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    saved = {}
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds) for seed in
                range(args.first_seed, args.first_seed + args.runs)]
        saved[workload] = [run[:2] for run in runs]
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / "spread.json").write_text(json.dumps(saved))
        print(f"== {workload} ({args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1})")
        # The work is the same on every seed, so so are the sample counts.
        print("first run:\n  " + "\n  ".join(runs[0][2]))
        units = runs[0][3]
        for name in runs[0][0]:
            corrected = [r[0][name] for r in runs]
            raw = [r[1][name] for r in runs]
            print(f"{name:16s} median {statistics.median(corrected):.6g} "
                  f"{units[name]}  spread {spread(corrected):.4f}  "
                  f"raw spread {spread(raw):.4f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
