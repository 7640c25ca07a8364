"""lomaxmix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bench_scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run generates the workload's inputs
from ``--seed`` (perfbench/gen.py, independent of the program) and
starts ``worker.py``, which warms up and then runs the timed passes
through ``lomaxmix.cli.main``.  Set-up (generation, worker start,
imports, warm-up) is repeated SETUP_REPS times and ``setup_s`` is the
median.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  Every
metric is printed by name with its unit and sample count; the last line
of stdout is the JSON result.  The exit code is 1 when an output check
fails and 2 when the program's sources are not there.

Workloads, metrics and units are listed in BENCHMARK.json.  Metrics that
do not apply to a workload (no ingest in a scan, no fit in replies_log)
are printed as n/a and reported as 0.  Scratch files and the span trace
go to .perfbench/<workload>/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import PROBE_REPEATS  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_REPS = 5
# One BLAS thread: lomaxmix is single-threaded, but numpy's BLAS threads
# its dot products over ~14.5k distinct values (wide_scan), which burned a
# second core without shortening the pass and made pass times depend on
# what else runs on the host.
_WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# whole run, set-up included, must end well inside 180 s
_RUN_LIMIT_S = 170.0


def _src_files(src: Path) -> list[Path]:
    return sorted(p for p in (src / "lomaxmix").rglob("*.py") if p.is_file())


def environment(src: Path) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for p in _src_files(src):
        digest.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def src_lines(src: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in _src_files(src))


def _worker(workdir: Path, src: Path, extra: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--dir", str(workdir), "--src", str(src),
             "--spawned-at", repr(time.monotonic()), *extra],
            cwd=ROOT,
            env=_WORKER_ENV,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"benchmark worker did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="input-size factor (smoke test)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lomaxmix" / "cli.py").is_file():
        print(f"error: no lomaxmix sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t_run = time.perf_counter()
    w = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / w.name
    shutil.rmtree(workdir, ignore_errors=True)

    # One set-up is input generation plus a worker's start, imports and
    # warm-up.  The last one is the timed worker's own.
    setup, attempted, errors = [], 0, []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        make_inputs(w, args.seed, workdir, args.scale)
        gen_s = time.perf_counter() - t0
        last = rep == SETUP_REPS - 1
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)] if last else ["--warmup-only"]
        res = _worker(workdir, src, extra, _RUN_LIMIT_S - (time.perf_counter() - t_run))
        setup.append(gen_s + res["warm_s"])
        attempted += res["attempted"]
        errors += res["errors"]
    failed = len(errors)
    wall = [p["s"] for p in res["passes"] if not p["traced"]]

    # name -> (value or None when not applicable, sample count)
    values: dict[str, tuple[float | None, int]] = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(wall), len(wall)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "logl_excess": (res["logl_excess"], 1),
        "fail_ratio": (failed / attempted, attempted),
        "trace.missing_wraps": (len(res["missing_wraps"]), 1),
        "repo.src_lines": (src_lines(src), 1),
    }
    n_traced = sum(p["traced"] for p in res["passes"])
    for name, v in res.get("layers", {}).items():
        values[name] = (v, n_traced)
    for name, v in res["outcomes"].items():
        values[name] = (v, 1)
    for name, v in res.get("probe", {}).items():
        values[name] = (v, PROBE_REPEATS)

    env = environment(src)
    shown = spec["per_layer"] if args.trace else spec["end_to_end"]
    # printed only: logl_excess varies with the seed and fail_ratio is 0, so
    # neither can be a bounded end-to-end metric; both gate "correct" instead
    extra = [] if args.trace else [m for m in spec["per_layer"] if m["name"] in ("logl_excess", "fail_ratio")]
    print(f"# lomaxmix benchmark  workload={w.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("# env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in shown + extra:
        value, n = values.get(m["name"], (None, 0))
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{m['name']:<40} {text:>14} {m['unit']:<8} n={n}")
        if m in shown:
            metrics[m["name"]] = {"value": 0.0 if value is None else value, "unit": m["unit"]}
    print("# passes (sample:seconds, * traced): " + " ".join(
        f"{p['sample']}:{p['s']:.3f}{'*' if p['traced'] else ''}" for p in res["passes"]))
    for name in res["missing_wraps"]:
        print(f"# missing wrap target: {name}")
    for e in errors:
        print(f"# FAILED CHECK: {e}")

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "env": env, "setup_s": setup, "passes": res["passes"],
        "metrics": metrics, "errors": errors,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
