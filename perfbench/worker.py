"""Run one workload's timed passes in a fresh process.

Started by ``run.py`` after the inputs exist, so the process's peak RSS
excludes input generation.  Every CLI step goes through
``lomaxmix.cli.main`` in process with stdout and stderr captured.  The
last line of stdout is one JSON object for ``run.py``.

Every mode first imports lomaxmix and runs the warm-up steps; the time
from ``--spawned-at`` to the end of the warm-up is the worker's share of
one set-up.

Modes:
  --warmup-only   warm up, then exit (an extra set-up repetition)
  --trace 0       untraced passes: wall time and peak RSS
  --trace 1       each sample runs untraced, then traced; the traced passes
                  give per-layer self times, each pair one overhead ratio
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, simulate_n, steps  # noqa: E402

# Stop starting passes after this long, whatever --seconds says, so a
# much slower program still ends well inside the run's time limit.
_HARD_STOP_S = 120.0
_PROBE_MIN_S = 0.05
PROBE_REPEATS = 5

# (module attribute the CLI resolves at call time, span name)
_WRAPS = [
    ("lomaxmix.cli.load_counts", "ingest.load_counts"),
    ("lomaxmix.cli.save_counts", "ingest.save_counts"),
    ("lomaxmix.cli.parse_message_log", "ingest.parse_message_log"),
    ("lomaxmix.cli.extract_reply_delays", "ingest.extract_reply_delays"),
    ("lomaxmix.cli.discretize", "ingest.discretize"),
    ("lomaxmix.cli.write_delays", "ingest.write_delays"),
    ("lomaxmix.cli.scan_orders", "fitting.scan_orders"),
    ("lomaxmix.fitting.fit_mixture", "fitting.fit_mixture"),
    ("lomaxmix.cli.fit_power_law", "fitting.fit_power_law"),
    ("lomaxmix.cli.fit_lognormal", "fitting.fit_lognormal"),
    ("lomaxmix.cli.chi_square_test", "gof.chi_square_test"),
    ("lomaxmix.cli.empirical_ccdf", "gof.empirical_ccdf"),
    ("lomaxmix.cli.mixture_ccdf", "distributions.mixture_ccdf"),
    ("lomaxmix.cli.sample_mixture", "simulate.sample_mixture"),
    ("lomaxmix.cli.build_report", "report.build_report"),
    ("lomaxmix.cli.write_report", "report.write_report"),
    ("lomaxmix.cli.sample_digest", "report.sample_digest"),
    ("lomaxmix.report.sample_digest", "report.sample_digest"),
]


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


_SPAN_ATTRS = {
    "fitting.fit_mixture": lambda a, kw: {"order": _arg(a, kw, 1, "order")},
    "ingest.extract_reply_delays": lambda a, kw: {
        "rule": _arg(a, kw, 1, "rule", "first-response")
    },
}


def _metric_of(span: dict) -> str:
    name = span["name"]
    if name.startswith("cli."):
        return "cli.self_s"
    if name == "fitting.fit_mixture":
        return f"fitting.fit_M{span['order']}_s"
    if name in ("fitting.fit_power_law", "fitting.fit_lognormal"):
        return "fitting.baselines_s"
    if name == "ingest.extract_reply_delays":
        return f"ingest.extract_{span['rule'].replace('-', '_')}_s"
    return f"{name}_s"


class Runner:
    def __init__(self, workload, manifest: dict, tracer: Tracer) -> None:
        from lomaxmix.cli import main

        self.cli_main = main
        self.w = workload
        self.manifest = manifest
        self.scale = manifest["scale"]
        self.tracer = tracer
        self.attempted = 0
        self.errors: list[str] = []
        self.last_out: dict[tuple[int, int], str] = {}
        self._reports: dict[int, bytes] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(what)

    def run_step(self, argv: list[str]) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer.enabled:
                    with self.tracer.span(f"cli.{argv[0]}"):
                        rc = self.cli_main(argv)
                else:
                    rc = self.cli_main(argv)
        except Exception:  # a traceback is a failed step, not a crashed benchmark
            return None, out.getvalue(), err.getvalue() + traceback.format_exc()
        return rc, out.getvalue(), err.getvalue()

    def warm_up(self) -> None:
        for argv in steps(self.w, self.manifest["warm"], self.scale, warm=True):
            rc, _, err = self.run_step(argv)
            self.check(rc == 0, f"warm-up {argv[0]} exit {rc}: {err.strip()[-300:]}")

    def one_pass(self, j: int) -> float:
        sample = self.manifest["samples"][j]
        argvs = steps(self.w, sample, self.scale)
        gc.collect()
        t0 = time.perf_counter()
        results = [self.run_step(argv) for argv in argvs]
        dt = time.perf_counter() - t0
        for s, (argv, (rc, out, err)) in enumerate(zip(argvs, results)):
            self.check(rc == 0, f"sample {j} {argv[0]} exit {rc}: {err.strip()[-300:]}")
            self.last_out[j, s] = out
        if self.w.is_scan:
            self._check_scan_pass(j, sample)
        else:
            self._check_replies_pass(j, sample, argvs, results)
        return dt

    def _check_scan_pass(self, j: int, sample: dict) -> None:
        report = Path(f"{sample['counts']}.report.json")
        raw = report.read_bytes() if report.exists() else b""
        body = b"".join(
            line for line in raw.splitlines(keepends=True) if not line.lstrip().startswith(b'"created_at"')
        )
        # scan_orders records a failed order and carries on, so a lost or
        # unconverged order shows only here
        parsed = _load_json(report) or {}
        failures = parsed.get("scan_failures")
        self.check(failures == {}, f"sample {j}: scan_failures {failures}")
        rows = parsed.get("scan", [])
        orders = [r.get("M") for r in rows]
        want = list(range(1, self.w.m_max + 1))
        self.check(orders == want, f"sample {j}: scan orders {orders}, want {want}")
        unconverged = [r.get("M") for r in rows if r.get("converged") is not True]
        self.check(not unconverged, f"sample {j}: orders {unconverged} did not converge")
        if j in self._reports:
            self.check(body == self._reports[j], f"sample {j}: report bytes changed between passes")
        self._reports[j] = body
        if self.w.simulate_n:
            lines = _line_count(f"{sample['counts']}.sim")
            want = simulate_n(self.w, self.scale)
            self.check(lines == want, f"sample {j}: simulate wrote {lines} counts, want {want}")

    def _check_replies_pass(self, j, sample, argvs, results) -> None:
        exp = sample["expected"]
        for argv, (_, out, _) in zip(argvs, results):
            got = _tallies(out)
            want = {
                "rows read": exp["rows_read"],
                "rows dropped": exp["rows_dropped"],
                "self messages": exp["self_messages"],
            }
            self.check(
                all(got.get(k) == v for k, v in want.items()),
                f"sample {j} {argv[5]}: tallies {got} != injected {want}",
            )
            delays, counts = argv[7], argv[9]
            n_delays, n_counts = _line_count(delays), _line_count(counts)
            self.check(
                n_delays == n_counts and n_delays > 0,
                f"sample {j} {argv[5]}: {n_counts} count lines for {n_delays} delays",
            )

    def logl_excess(self, ran: list[int]) -> float | None:
        """min over the samples that ran and fitted orders M >= generating
        order of logL_M - logL(generating model), checked against -1e-6."""
        if not self.w.is_scan:
            return None
        true_order = len(gen.parse_spec(self.w.spec))
        worst = None
        for j in ran:
            sample = self.manifest["samples"][j]
            report = _load_json(f"{sample['counts']}.report.json")
            rows = [r for r in (report or {}).get("scan", []) if r["M"] >= true_order]
            if not rows:
                self.check(False, f"sample {j}: no fitted order >= {true_order}")
                continue
            truth = gen.mixture_log_likelihood(self.w.spec, _read_counts(sample["counts"]))
            excess = min(r["log_likelihood"] for r in rows) - truth
            self.check(excess >= -1e-6, f"sample {j}: logL below the generating model by {-excess:.6g} nats")
            worst = excess if worst is None else min(worst, excess)
        return worst

    def outcomes(self) -> dict:
        """Deterministic per-layer values, read from sample 0's outputs."""
        sample = self.manifest["samples"][0]
        m: dict[str, float] = {}
        if self.w.is_scan:
            path = Path(f"{sample['counts']}.report.json")
            report = _load_json(path) or {}
            for row in report.get("scan", []):
                m[f"fitting.logl_M{row['M']}"] = row["log_likelihood"]
            m["fitting.selected_order"] = report.get("M", 0)
            m["fitting.converged_orders"] = sum(bool(r.get("converged")) for r in report.get("scan", []))
            m["gof.bins"] = len((report.get("gof") or {}).get("bins", []))
            m["report.bytes"] = path.stat().st_size if path.exists() else 0
            m["fitting.distinct_values"] = int(np.unique(_read_counts(sample["counts"])).size)
        else:
            tallies = [_tallies(self.last_out.get((0, s), "")) for s in range(2)]
            m["ingest.row_errors"] = tallies[0].get("rows dropped", 0)
            m["ingest.delays_extracted"] = sum(t.get("delays extracted", 0) for t in tallies)
        return m

    def layer_metrics(self, pass_id: int, j: int) -> dict:
        """Per-layer self times of one traced pass, plus rates."""
        m: dict[str, float] = defaultdict(float)
        n_parse = 0
        for span, self_s in self.tracer.self_times(pass_id):
            name = _metric_of(span)
            m[name] += self_s
            if name != "cli.self_s":  # time the wrapped layers account for
                m["trace.layer_self_sum_s"] += self_s
            n_parse += span["name"] == "ingest.parse_message_log"
        sample = self.manifest["samples"][j]
        if m.get("ingest.parse_message_log_s"):
            rows = sample["expected"]["rows_read"] * n_parse
            m["ingest.rows_per_s"] = rows / m["ingest.parse_message_log_s"]
        if m.get("simulate.sample_mixture_s"):
            m["simulate.draws_per_s"] = simulate_n(self.w, self.scale) / m["simulate.sample_mixture_s"]
        return m

    def log_pmf_probe(self) -> dict:
        """ns per distinct value of lomaxmix.mixture_log_pmf on sample 0's
        fitted model; runs after the timed passes."""
        if not self.w.is_scan:
            return {}
        import lomaxmix

        sample = self.manifest["samples"][0]
        ks = np.unique(_read_counts(sample["counts"]))
        report = _load_json(f"{sample['counts']}.report.json")
        fn = getattr(lomaxmix, "mixture_log_pmf", None)
        if report is None or fn is None:
            return {}
        comps = report["components"]
        model = lomaxmix.MixtureModel.from_parameters(
            [c["c"] for c in comps], [c["b"] for c in comps], [c["v"] for c in comps]
        )
        reps = 1
        while _timed(fn, model, ks, reps) < _PROBE_MIN_S:
            reps *= 2
        per_call = statistics.median(_timed(fn, model, ks, reps) for _ in range(PROBE_REPEATS)) / reps
        return {"distributions.log_pmf_ns_per_value": per_call / ks.size * 1e9}


def _peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    Read from VmHWM, not ru_maxrss: at exec Linux folds the parent's
    high-water mark into ru_maxrss, so it would count the input generation
    of run.py.  Without VmHWM the run fails rather than report a wrong peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    raise SystemExit("peak_rss_mb needs VmHWM in /proc/self/status")


def _timed(fn, model, ks, reps) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn(model, ks)
    return time.perf_counter() - t0


def _tallies(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        head, _, tail = line.rpartition(" ")
        if head.strip() and tail.isdigit():
            out[head.strip()] = int(tail)
    return out


def _line_count(path) -> int:
    p = Path(path)
    return p.read_bytes().count(b"\n") if p.exists() else -1


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _read_counts(path):
    return np.array(Path(path).read_text(encoding="ascii").split(), dtype=np.int64)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--warmup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    workdir = Path(args.dir)
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    w = WORKLOADS[manifest["workload"]]
    tracer = Tracer()
    runner = Runner(w, manifest, tracer)
    runner.warm_up()
    # spawn to warm: interpreter start, imports and warm-up steps
    warm_s = time.monotonic() - args.spawned_at
    if args.warmup_only:
        print(json.dumps({"warm_s": warm_s, "attempted": runner.attempted, "errors": runner.errors}))
        return 0

    if args.trace:
        for target, name in _WRAPS:
            tracer.wrap(target, name, _SPAN_ATTRS.get(name))
    n_samples = len(manifest["samples"])
    # Untraced: rotate over the samples, then repeat sample 0 at least once
    # so every run checks report stability.  Traced: each sample runs
    # untraced then traced, so each pair gives one overhead ratio.
    unit = 2 if args.trace else 1
    min_passes = 2 if args.trace else n_samples + 1
    passes: list[dict] = []
    t_start = time.perf_counter()
    while True:
        i = len(passes)
        j = (i // unit) % n_samples
        traced = bool(args.trace) and i % 2 == 1
        tracer.pass_id, tracer.enabled = i, traced
        dt = runner.one_pass(j)
        tracer.enabled = False
        passes.append({"sample": j, "traced": traced, "s": dt})
        if (i + 1) % unit:
            continue
        elapsed = time.perf_counter() - t_start
        next_s = statistics.median(p["s"] for p in passes) * unit
        if (i + 1 >= min_passes and elapsed + next_s > args.seconds) or elapsed > _HARD_STOP_S:
            break
    peak_rss_mb = _peak_rss_mb()

    result = {
        "warm_s": warm_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "logl_excess": runner.logl_excess(sorted({p["sample"] for p in passes})),
        "outcomes": runner.outcomes(),
        "missing_wraps": tracer.missing,
    }
    if args.trace:
        per_pass = [runner.layer_metrics(i, p["sample"]) for i, p in enumerate(passes) if p["traced"]]
        names = set().union(*per_pass)
        layers = {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in names}
        ratios = [passes[k + 1]["s"] / passes[k]["s"] for k in range(0, len(passes), 2)]
        layers["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
        layers["trace.untraced_wall_s"] = statistics.median(p["s"] for p in passes if not p["traced"])
        result["layers"] = layers
        result["probe"] = runner.log_pmf_probe()
        tracer.write_jsonl(workdir / "trace.jsonl")
    result["attempted"] = runner.attempted
    result["errors"] = runner.errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
