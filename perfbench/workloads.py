"""The benchmark's workloads: inputs, CLI steps and expected tallies.

Each run draws ``samples`` independent inputs from its seed and the
timed passes rotate over them, so one run's median covers several
inputs.  A scan's wall time depends on how many objective evaluations
the optimizer needs for that particular sample, and one sample per run
made the run-to-run spread as wide as the input-to-input spread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import gen


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int  # independent inputs per run; passes rotate over them
    size: int  # counts (scans) or message-log rows (replies_log) per sample
    spec: str = ""  # scans: generating mixture, c:b:v[,c:b:v...]
    scan_flags: tuple[str, ...] = ()
    simulate_n: int = 0  # wide_scan: draws of the simulate step

    @property
    def is_scan(self) -> bool:
        return bool(self.spec)

    @property
    def m_max(self) -> int:
        return int(self.scan_flags[self.scan_flags.index("--m-max") + 1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bench_scan",
            samples=5,
            spec="0.7:2:1.2,0.3:20:3",
            size=100_000,
            scan_flags=("--m-max", "4", "--starts", "20", "--seed", "0", "--alpha", "0.001"),
        ),
        Workload(
            name="wide_scan",
            samples=3,
            spec="0.7:5:0.9,0.3:500:1.3",
            size=1_000_000,
            scan_flags=("--m-max", "2", "--starts", "20"),
            simulate_n=1_000_000,
        ),
        Workload(
            name="replies_log",
            samples=1,  # ingest work follows the row count, not the sample
            size=400_000,
        ),
    )
}

# Tiny inputs and cheap flags for the warm-up step (imports, first calls).
_WARM_N = 2_000
_WARM_SCAN_FLAGS = ("--m-max", "1", "--starts", "2")


def _write_sample(w: Workload, base: Path, size: int, seed: tuple[int, ...]) -> dict:
    if w.is_scan:
        gen.write_lines(f"{base}.counts", map(str, gen.mixture_counts(w.spec, size, seed).tolist()))
        return {"counts": f"{base}.counts"}
    lines, expected = gen.message_log(size, seed)
    gen.write_lines(f"{base}.log", lines)
    return {"log": f"{base}.log", "expected": expected}


def make_inputs(w: Workload, seed: int, root: Path, scale: float) -> dict:
    """Generate and write every input of one run; return the manifest."""
    root.mkdir(parents=True, exist_ok=True)
    size = max(_WARM_N, int(w.size * scale))
    samples = [_write_sample(w, root / f"s{j}", size, (seed, j)) for j in range(w.samples)]
    warm_sample = _write_sample(w, root / "warm", _WARM_N, (seed, 99))
    manifest = {
        "workload": w.name,
        "seed": seed,
        "scale": scale,
        "samples": samples,
        "warm": warm_sample,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def simulate_n(w: Workload, scale: float) -> int:
    return max(1_000, int(w.simulate_n * scale))


def steps(w: Workload, sample: dict, scale: float, warm: bool = False) -> list[list[str]]:
    """The CLI argument lists of one pass over one sample."""
    if not w.is_scan:
        log = sample["log"]
        return [
            ["replies", log, "--dt", "60", "--rule", rule,
             "--out-delays", f"{log}.{rule}.delays", "--out-counts", f"{log}.{rule}.counts"]
            for rule in ("first-response", "exclusive")
        ]
    counts = sample["counts"]
    report = f"{counts}.report.json"
    flags = list(_WARM_SCAN_FLAGS if warm else w.scan_flags)
    out = [
        ["scan", counts, *flags, "--out", report],
        ["ccdf", counts, report, "--strict", "--out", f"{counts}.ccdf.tsv"],
    ]
    if w.simulate_n:
        n = 1_000 if warm else simulate_n(w, scale)
        out.append(["simulate", "--from-report", report, "-n", str(n), "--out", f"{counts}.sim"])
    return out
