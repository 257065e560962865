"""Show that every correctness check rejects a deliberately perturbed output.

    python3 bench/selfcheck.py [--seed N]

Run from the checkout root. For each workload it generates the inputs,
runs one round of its commands in this process, confirms the checks
pass, then applies one perturbation at a time to a copy of an output and
confirms the checks reject it. Exits non-zero if a check passes
perturbed output or fails unperturbed output. Takes about a minute.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import _run_round  # noqa: E402


def _edit(path: str, fn) -> None:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    fn(data)
    Path(path).write_text(json.dumps(data), encoding="utf-8")


def _scale_scores(key: str):
    """Scale both scores of every record by 1 + 1e-7: verdicts still follow, values are wrong."""
    def fn(data):
        for rec in data.get("pairs", data.get("triples")):
            rec[key]["first_score"] *= 1 + 1e-7
            rec[key]["second_score"] *= 1 + 1e-7
    return fn


def _set(getter, value):
    def fn(data):
        obj, key = getter(data)
        obj[key] = value(obj[key])
    return fn


def _flip_verdict(key: str):
    def fn(data):
        rec = data.get("pairs", data.get("triples"))[0]
        other = "first_closer" if rec[key]["verdict"] != "first_closer" else "second_closer"
        rec[key]["verdict"] = other
    return fn


def _flip_case(data):
    rec = data.get("pairs", data.get("triples"))[0]
    rec["case"] = "both_equal" if rec["case"] != "both_equal" else "both_zero"


def perturbations(plan: dict) -> list[tuple[str, str, object]]:
    """(description, output file or files, edit) per check."""
    meta = plan["meta"]
    w = plan["workload"]
    if w == "score-paper":
        reports = [r for rs in meta["reports"].values() for r in rs]
        first = reports[0]
        out = [("precision in every report off by 1e-9 (oracle P/R/F)", reports,
                _set(lambda d: (d["per_ground_truth"][0], "precision"), lambda v: v + 1e-9)),
            ("report score is not the best F", first, _set(lambda d: (d, "score"), lambda v: v / 2)),
            ("report F outside [0, 1]", first,
             _set(lambda d: (d["per_ground_truth"][-1], "f"), lambda v: 1.5)),
            ("text verdict does not follow its scores", meta["pairs"]["output"], _flip_verdict("vset")),
            ("text pair scores scaled by 1 + 1e-7 (oracle best-reference score)", meta["pairs"]["output"],
             _scale_scores("vset")),
            ("verdict_counts wrong", meta["pairs"]["output"],
             _set(lambda d: (d, "verdict_counts"), lambda v: {**v, "both_zero": 99})),
            ("spearman off by 0.01", meta["correlate"]["output"],
             _set(lambda d: (d, "spearman"), lambda v: v + 0.01)),
        ]
        return out
    if w == "agreement":
        pairs, triples = meta["pairs"][-1]["output"], meta["triples"][-1]["output"]
        return [
            ("ingested histogram differs from the constructed one", meta["ingest"]["output"],
             _set(lambda d: (d["subshots"][3]["frames"][1], 0), lambda v: v + 1e-12)),
            ("pixel pair scores scaled by 1 + 1e-7 (oracle pixel distance)", pairs, _scale_scores("pb")),
            ("pixel verdict does not follow its scores", pairs, _flip_verdict("pb")),
            ("case label does not follow its verdicts", pairs, _flip_case),
            ("a triple record missing", triples, _set(lambda d: (d, "triples"), lambda v: v[1:])),
            ("triple case label does not follow its verdicts", triples, _flip_case),
            ("triple text scores scaled by 1 + 1e-7 (oracle ROUGE-SU)", triples, _scale_scores("vset")),
            ("triple pixel scores scaled by 1 + 1e-7 (oracle min cross distance)", triples,
             _scale_scores("pb")),
            ("triple case_counts wrong", triples,
             _set(lambda d: (d, "case_counts"), lambda v: {**v, "both_zero": v.get("both_zero", 0) + 1})),
            ("triple agreement rate wrong", triples,
             _set(lambda d: (d["agreement"], "vset"), lambda v: v + 0.001)),
        ]
    outs = {(o["method"], o["n"]): o["output"] for o in meta["outputs"]}
    n, m = workloads.BASE_CONFIGS[0][0], workloads.BASE_M
    return [
        ("summary with n-1 indices", outs[("uniform", n)],
         _set(lambda d: (d, "indices"), lambda v: v[1:])),
        ("summary indices not increasing", outs[("bow", n)],
         _set(lambda d: (d, "indices"), lambda v: [v[1], v[0]] + v[2:])),
        ("summary index out of range", outs[("cluster", n)],
         _set(lambda d: (d, "indices"), lambda v: v[:-1] + [m])),
        ("dp output replaced by the uniform selection (DP optimum)", outs[("dp", n)],
         _set(lambda d: (d, "indices"), lambda v: [i * m // n for i in range(n)])),
        ("mmr output avoids its first pick", outs[("mmr", n)],
         _set(lambda d: (d, "indices"), lambda v: [i for i in range(m) if i not in v][:n])),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    bad = 0
    for workload in workloads.WORKLOADS:
        work = ROOT / ".bench_out" / f"selfcheck-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        plan = workloads.build(workload, args.seed, work, ROOT).to_dict()
        with contextlib.redirect_stdout(io.StringIO()):
            commands = _run_round(plan["steps"])
        failed = {c["label"] for c in commands if not c["ok"]}
        try:
            compared, _ = checks.check(ROOT, plan, failed)
            print(f"{workload}: unperturbed outputs pass ({compared} comparisons)")
        except checks.CheckError as exc:
            print(f"{workload}: FAIL unperturbed outputs rejected: {exc}")
            bad += 1
        for desc, paths, fn in perturbations(plan):
            paths = [paths] if isinstance(paths, str) else paths
            saved = {p: Path(p).read_bytes() for p in paths}
            for p in paths:
                _edit(p, fn)
            try:
                checks.check(ROOT, plan, failed)
                print(f"  FAIL not rejected: {desc}")
                bad += 1
            except checks.CheckError as exc:
                print(f"  rejected: {desc}\n      -> {str(exc)[:110]}")
            finally:
                for p, blob in saved.items():
                    Path(p).write_bytes(blob)
        shutil.rmtree(work, ignore_errors=True)
    if checks.objective_increases([3.0, 2.0, 2.5]) != 1 or checks.objective_increases([3.0, 2.0, 2.0]):
        print("FAIL Lloyd objective-increase counter")
        bad += 1
    else:
        print("Lloyd objective-increase counter counts a rise and ignores a plateau")
    print("all checks reject perturbed outputs" if not bad else f"{bad} selfcheck failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
