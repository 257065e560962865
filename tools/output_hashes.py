"""Hash every file the benchmark plans write, to diff the outputs of two checkouts.

    python3 tools/output_hashes.py [--seeds 1 2 3] [--output hashes.json]

For each seed and each workload of ``bench/workloads.py`` the tool
generates the plan's inputs under ``.bench_out/hashes/<workload>-<seed>/``
of this checkout, runs the plan's steps once, in order, through
``vtseval.cli.main`` in this one process (the glue steps through
``bench/worker._write_scores``), and records the sha256 of every file that
appeared in that directory while the steps ran. It writes
``{path relative to .bench_out/hashes: sha256}`` as sorted JSON, to
``--output`` or to stdout. Commands record their input and output paths,
so two checkouts give comparable hashes only at the same relative paths,
which this layout keeps.

Every file a vtseval command wrote must equal the stdlib's canonical
encoding of its own parse, ``json.dumps(..., ensure_ascii=False,
sort_keys=True, indent=2, allow_nan=False) + "\\n"``; the tool exits 1 if
one does not, so vtseval's own writer cannot drift from that form.

It then runs the last command of each label again, each in a fresh
``python -m vtseval.cli`` process with the same arguments, and exits 1 if
any output differs from the in-process run: state that one command leaves
behind in a process (the load memo, the stem memo) must not change the
next command's output. The in-process pass must hit ``corpus``'s load memo
for every loader kind its commands load, or the tool exits 1: so each
rerun compares a command that hit the memo with one that missed it. A
command that fails also exits 1.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_out" / "hashes"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(directory: Path) -> set[Path]:
    return {p for p in directory.rglob("*") if p.is_file()}


def _canonical(path: Path) -> bool:
    text = path.read_text(encoding="utf-8")
    return text == json.dumps(json.loads(text), ensure_ascii=False, sort_keys=True, indent=2,
                              allow_nan=False) + "\n"


def _run_plans(seeds: list[int]) -> tuple[dict[str, str], dict[str, list[str]], list[Path]]:
    """Hashes of every file the plans write, the last command of each label, the commands' files."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from worker import _write_scores

    from vtseval import cli

    hashes: dict[str, str] = {}
    last: dict[str, list[str]] = {}
    written: list[Path] = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            work = WORK / f"{workload}-{seed}"
            work.mkdir(parents=True)
            plan = workloads.build(workload, seed, work, ROOT)
            inputs = _files(work)
            for step in plan.steps:
                if step.kind == "scores":
                    _write_scores(step.argv[0], step.argv[1:])
                    continue
                before = _files(work)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(step.argv)
                written += sorted(_files(work) - before)
                if code != 0:
                    raise SystemExit(f"output_hashes: {workload} seed {seed}: "
                                     f"{' '.join(step.argv)} failed")
                last[step.label] = step.argv
            for path in sorted(_files(work) - inputs):
                hashes[str(path.relative_to(WORK))] = _sha256(path)
    return hashes, last, written


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--output", type=Path, help="write the hashes here (default: stdout)")
    args = parser.parse_args()
    output = args.output.resolve() if args.output else None

    # plan paths are relative to the checkout root, and commands resolve them from the cwd
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    hashes, reruns, written = _run_plans(args.seeds)
    from vtseval import corpus

    memo = corpus.load_memo_info()
    text = json.dumps(hashes, indent=2, sort_keys=True) + "\n"
    if output:
        output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    sys.stderr.write(f"output_hashes: {len(hashes)} files from seeds {args.seeds}\n")
    drifted = [path for path in written if not _canonical(path)]
    sys.stderr.write(f"output_hashes: {len(written) - len(drifted)} of {len(written)} command "
                     "outputs are the stdlib's canonical JSON\n")
    for path in drifted:
        sys.stderr.write(f"output_hashes: not canonical: {path.relative_to(ROOT)}\n")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    differ = []
    for label, argv in reruns.items():
        out = Path(argv[argv.index("--output") + 1])
        in_process = _sha256(out)
        out.unlink()
        proc = subprocess.run([sys.executable, "-m", "vtseval.cli", *argv], env=env,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0 or not out.is_file() or _sha256(out) != in_process:
            differ.append(f"{label}: {out}")
    sys.stderr.write(f"output_hashes: {len(reruns) - len(differ)} of {len(reruns)} commands "
                     "give the same bytes in a fresh process\n")
    for line in differ:
        sys.stderr.write(f"output_hashes: differs in a fresh process: {line}\n")
    unhit = sorted(set(memo["misses"]) - set(memo["hits"]))
    sys.stderr.write(f"output_hashes: load memo hits {memo['hits']}, misses {memo['misses']}\n")
    for kind in unhit:
        sys.stderr.write(f"output_hashes: the in-process pass never hit the load memo for {kind}\n")
    return 1 if differ or drifted or unhit else 0


if __name__ == "__main__":
    sys.exit(main())
