"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a reduced input size, untraced and traced, and
asserts that every metric of BENCHMARK.json is reported with its unit,
that no output check failed (fail_ratio 0, logl_excess >= -1e-6 on the
scans), that the self times of the wrapped layers add up to the untraced
wall time within the measured tracing overhead plus a noise allowance,
and that the CLI's own code outside them takes a small share of a pass.  It also
checks that the benchmark refuses to run, without printing a result,
where the program's sources are missing.  Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.01"
# Tiny inputs make passes short, so pass-to-pass noise is a larger share.
SELF_SUM_NOISE = 0.15
# CLI code outside every wrapped call (argument parsing, printing) may take
# this fixed time per pass plus this share of the pass.
CLI_SELF_FIXED_S = 0.01
CLI_SELF_SHARE = 0.05


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                           "--trace", str(trace), "--scale", SCALE])
            result = json.loads(out.strip().splitlines()[-1]) if rc == 0 else None
            label = f"{w['name']} trace={trace}"
            if result is None:
                failures.append(f"{label}: exit {rc}\n{out[-2000:]}")
                continue
            metrics = result["metrics"]
            for m in spec[group]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    failures.append(f"{label}: metric {m['name']} missing or unit != {m['unit']}")
            if sorted(metrics) != sorted(m["name"] for m in spec[group]):
                failures.append(f"{label}: unexpected metrics {sorted(set(metrics) - {m['name'] for m in spec[group]})}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: checks failed\n{out[-2000:]}")
            if trace:
                v = {k: m["value"] for k, m in metrics.items()}
                if v["fail_ratio"] != 0:
                    failures.append(f"{label}: fail_ratio {v['fail_ratio']}")
                # The layer spans must cover the pass: time no wrap accounts
                # for lands in cli.self_s and leaves the layer sum short.
                wall = v["trace.untraced_wall_s"]
                gap = abs(v["trace.layer_self_sum_s"] / wall - 1.0)
                cli_share = v["cli.self_s"] / wall
                print(f"    {label}: layer sum / untraced wall - 1 = {gap:.3f}, "
                      f"cli.self_s / untraced wall = {cli_share:.3f}, overhead {v['trace.overhead_pct']:.1f}%")
                if gap > abs(v["trace.overhead_pct"]) / 100.0 + SELF_SUM_NOISE:
                    failures.append(f"{label}: layer self times sum {v['trace.layer_self_sum_s']} vs untraced "
                                    f"wall {wall}, overhead {v['trace.overhead_pct']}%")
                if v["cli.self_s"] > CLI_SELF_FIXED_S + CLI_SELF_SHARE * wall:
                    failures.append(f"{label}: cli.self_s is {cli_share:.1%} of the untraced wall time")
            print(f"ok  {label}" if not any(f.startswith(label) for f in failures) else f"BAD {label}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1"], cwd=bare)
    if rc == 0 or '"correct"' in out:
        failures.append(f"without sources: exit {rc}, output {out[-500:]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without sources" if rc != 0 else "BAD refuses to run without sources")

    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
