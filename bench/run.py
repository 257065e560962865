"""Benchmark entry point: one workload run, or all three in turn.

    python3 bench/run.py --workload score-paper --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout. A run generates the workload's inputs
from the seed (not timed), runs them in one fresh single-threaded child
process (``worker.py``), reads that child's peak RSS once it has exited,
measures set-up again in short set-up-only children, checks the outputs
(``checks.py``), and prints report lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from traced rounds.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("score-paper", "agreement", "baselines")
SETUP_SAMPLES = 5  # the measuring child's set-up plus four set-up-only children
CHILD_TIMEOUT_S = 150
# worker.calibrate() takes this long on the reference machine when it is
# not slowed by other load (a 2-core VM at 2.1 GHz); timings are reported
# at that speed
CAL_REF_S = 0.0095
# work item names of the per-command rates printed on the report lines
RATE_NAMES = {
    "evaluate": "scores_per_s",
    "compare_pairs": "pair_judgments_per_s",
    "compare_triples": "triple_judgments_per_s",
    "features": "frames_ingested_per_s",
}


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(argv: list[str], root: Path) -> None:
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv], cwd=root,
                            env=_child_env(root), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {CHILD_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")


def _at_ref(seconds: float, calibration_s: float) -> float:
    """Seconds at the reference machine speed, given the calibration time measured alongside."""
    return seconds * CAL_REF_S / calibration_s


def _ref_round(r: dict) -> float:
    return sum(_at_ref(c["s"], c["cal"]) for c in r["commands"])


def _report(rounds: list[dict]) -> dict[str, float]:
    """Per-command rates and times over all untraced rounds, for the report lines."""
    seconds: dict[str, float] = {}
    work: dict[str, int] = {}
    for r in rounds:
        for c in r["commands"]:
            seconds[c["label"]] = seconds.get(c["label"], 0.0) + c["s"]
            work[c["label"]] = work.get(c["label"], 0) + c["work"]
    out = {}
    for label, name in RATE_NAMES.items():
        if label in seconds:
            out[name] = work[label] / seconds[label]
    for label, s in sorted(seconds.items()):
        if label.startswith("summarize_"):
            out[f"{label}_s"] = s / len(rounds)
    return out


def run_one(workload: str, seed: int, seconds: int, trace: int, root: Path) -> int:
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(BENCH)]
    import checks
    import workloads

    out_dir = root / ".bench_out"
    work = out_dir / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.build(workload, seed, work, root).to_dict()
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    result_path = work / "result.json"
    argv = [str(plan_path), str(result_path), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        argv += ["--spans", str(out_dir / f"spans-{workload}-{seed}.jsonl")]
    _run_child(argv, root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result = json.loads(result_path.read_text(encoding="utf-8"))

    setups = [(result["setup_s"], result["setup_cal"])]
    setup_path = work / "setup.json"
    for _ in range(SETUP_SAMPLES - 1):
        _run_child([str(plan_path), str(setup_path), "--seconds", "0", "--setup-only"], root)
        sample = json.loads(setup_path.read_text(encoding="utf-8"))
        setups.append((sample["setup_s"], sample["setup_cal"]))

    commands = [c for r in result["rounds"] for c in r["commands"]]
    failed_labels = {c["label"] for c in result["rounds"][-1]["commands"] if not c["ok"]}
    started = time.perf_counter()
    try:
        compared, notes = checks.check(root, plan, failed_labels)
        correct = True
    except checks.CheckError as exc:
        sys.stderr.write(f"bench: check failed: {exc}\n")
        compared, notes, correct = 0, {}, False
    check_s = time.perf_counter() - started

    plain = [r for r in result["rounds"] if not r["traced"]]
    print(f"workload {workload} seed {seed}: {len(result['rounds'])} rounds "
          f"({len(plain)} untraced), {len(commands)} commands, checks {compared} comparisons "
          f"in {check_s:.1f} s")
    print("  wall s per untraced round: "
          + " ".join(f"{sum(c['s'] for c in r['commands']):.3f}" for r in plain))
    print("  calibration ms, median per untraced round: " + " ".join(
        f"{statistics.median(c['cal'] for c in r['commands']) * 1000:.2f}" for r in plain))
    print(f"  setup wall s: {' '.join(f'{s:.4f}' for s, _ in setups)}")
    for name, value in _report(plain).items():
        print(f"  {name}: {value:.4f}")
    for name, value in notes.items():
        print(f"  observed {name}: {value}")
    if trace:
        traced = [r for r in result["rounds"] if r["traced"]]
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["layers"].items()}
        overhead = (statistics.median(_ref_round(r) for r in traced)
                    / statistics.median(_ref_round(r) for r in plain))
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        print(f"  tracing overhead: traced round / untraced round = {overhead:.3f}")
    else:
        # each command's median over the rounds, summed: a burst of load
        # during one command moves only that command's median
        round_s = sum(statistics.median(_at_ref(r["commands"][i]["s"], r["commands"][i]["cal"])
                                        for r in plain)
                      for i in range(len(plain[0]["commands"])))
        metrics = {
            "round_s": {"value": round_s, "unit": "s"},
            "setup_s": {"value": statistics.median(_at_ref(s, cal) for s, cal in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(commands),
                      "failed": sum(not c["ok"] for c in commands), "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, so each child's peak RSS is its own."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for workload, row in rows.items():
        print(f"{workload}: correct {row['correct']}, attempted {row['attempted']}, "
              f"failed {row['failed']}")
        if not trace:
            for name, m in row["metrics"].items():
                print(f"  {name}: {m['value']:.4f} {m['unit']}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/vtseval/cli.py", "tests/oracles.py", "tests/data/porter_sample.txt")
               if not (root / p).is_file()]
    if missing:
        return _fail(f"not a vtseval checkout (missing {', '.join(missing)}); "
                     "run from the repository root")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace, root)


if __name__ == "__main__":
    sys.exit(main())
