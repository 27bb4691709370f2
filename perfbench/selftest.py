#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

- a trivial op launched by run.py's launcher peaks within a few MB of a
  bare ``python -c "import hier_risk"``, so ``peak_rss_mb`` is the op's;
- check.py accepts a correct eval report and rejects one whose integer
  or float fields were altered;
- run.py exits non-zero, printing no result, where there are no sources;
- compare.py's verdicts on made-up result sets.

Exit code 0 when every test passes. Temporary files go under
``.perfbench_work/`` in the checkout and are removed afterwards.
"""

from __future__ import annotations

import json
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

RSS_SLACK_MB = 8.0


def expect(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def small_inputs(launcher, work, K, N, tree):
    hier, preds = work / f"h{K}.tsv", work / f"p{K}.csv"
    r = launcher.cli(["simulate", "--seed", "5", "--classes", str(K),
                      "--samples", str(N), "--concentration", "0.3",
                      "--tree-mode", tree, "--out-predictions", str(preds),
                      "--out-hierarchy", str(hier)])
    expect(r["rc"] == 0, "simulate failed")
    return hier, preds


def test_lean_launcher(work):
    launcher = run.Launcher(work)
    hier, _ = small_inputs(launcher, work, 32, 10, "balanced-binary")
    bare = [launcher.python(["-c", "import hier_risk"])["rss_mb"]
            for _ in range(3)]
    op = [launcher.cli(["build-costs", "--hierarchy", str(hier), "--out",
                        str(work / "costs.csv")])["rss_mb"]
          for _ in range(3)]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"    bare import {min(bare):.1f} MB, build-costs K=32 "
          f"{min(op):.1f} MB, launcher {own:.1f} MB")
    expect(min(op) - min(bare) <= RSS_SLACK_MB, "build-costs reads high")
    expect(own < min(bare), "the launcher holds more than an import")


def test_checker_rejects_altered_reports(work):
    launcher = run.Launcher(work)
    hier, preds = small_inputs(launcher, work, 64, 300, "balanced-binary")
    report = work / "eval.json"
    r = launcher.cli(["eval", "--hierarchy", str(hier), "--predictions",
                      str(preds), "--basis", "crm", "--k", "1,5,20",
                      "--out", str(report)])
    expect(r["rc"] == 0, "eval failed")
    good = report.read_text()

    def accepted(text: str) -> bool:
        art = work / "candidate.json"
        art.write_text(text)
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps({
            "hierarchy": str(hier), "predictions": str(preds),
            "val_predictions": None, "basis": "crm", "k": [1, 5, 20],
            "shuffle_seed": 0, "workdir": str(work),
            "artifacts": {"eval": str(art)}}))
        out = work / "check.json"
        r = launcher.python([str(HERE / "check.py"), str(manifest),
                             str(out)])
        expect(r["rc"] == 0, "check.py crashed")
        return json.loads(out.read_text())["ok"]["eval"]

    expect(accepted(good), "a correct report was rejected")
    # Both edits keep the emitter's exact format, so only the comparison
    # with the reference can catch them.
    more = re.sub(r'"n_mistakes": (\d+)',
                  lambda m: f'"n_mistakes": {int(m[1]) + 1}', good)
    expect(not accepted(more), "an altered count was accepted")
    nudged = re.sub(r'("5": )([0-9.e+-]+)', lambda m: m[1] + format(
        float(m[2]) * (1 + 1e-9), ".17g"), good, count=1)
    expect(nudged != good and not accepted(nudged),
           "an altered distance@5 was accepted")


def test_no_sources_exits_nonzero(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wide-crm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0, "run.py succeeded without sources")
    expect(proc.stdout == "", "run.py printed a result without sources")


def test_compare_verdicts(work):
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0]
    cases = [
        (base, [x * 0.8 for x in base], "lower", 0.1, "improved"),
        (base, [x * 1.2 for x in base], "lower", 0.1, "worse"),
        (base, [x * 1.01 for x in base], "lower", 0.1, "unchanged"),
        (noisy, [x * 1.02 for x in noisy], "lower", 0.1, "unresolved"),
        ([5, 5, 5], [6, 6, 6], "higher", None, "improved"),
        ([5, 5, 5], [4, 4, 4], "higher", None, "worse"),
    ]
    for a, b, better, bound, want in cases:
        got = compare.verdict(a, b, better, bound)
        expect(got == want, f"{a} -> {b}: {got}, expected {want}")


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failed = 0
    try:
        for name, test in list(globals().items()):
            if not name.startswith("test_"):
                continue
            case = work / name
            case.mkdir()
            try:
                test(case)
                print(f"ok   {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
