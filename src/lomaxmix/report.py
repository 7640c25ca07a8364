"""Machine-readable fit reports (schema ``lomaxmix/1``).

Reports are plain dicts serialized as sorted-key JSON so that identical
inputs produce byte-identical files; the only nondeterministic field is
``created_at``, which consumers must ignore when comparing reports.  The
``input_digest`` ties a report to the count sample it was fitted on.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json

from .distributions import MixtureModel
from .errors import InputFormatError, ValidationError
from .fitting import BaselineResult, CountSample, FitResult, ScanResult
from .gof import GofReport

__all__ = [
    "SCHEMA_VERSION",
    "sample_digest",
    "model_to_dict",
    "model_from_dict",
    "gof_to_dict",
    "baseline_to_dict",
    "build_report",
    "serialize_report",
    "write_report",
    "load_report",
    "strip_timestamps",
]

SCHEMA_VERSION = "lomaxmix/1"


def sample_digest(sample: CountSample) -> str:
    """SHA-256 of the canonical distinct-value representation."""
    ks, counts = sample.distinct()
    payload = "\n".join(f"{int(k)}:{int(c)}" for k, c in zip(ks, counts))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def model_to_dict(model: MixtureModel) -> list[dict]:
    return [
        {
            "c": comp.weight,
            "b": comp.scale,
            "v": comp.shape,
            "mean_lambda": comp.shape / comp.scale,
        }
        for comp in model.components
    ]


def model_from_dict(components: list[dict]) -> MixtureModel:
    try:
        return MixtureModel.from_parameters(
            [c["c"] for c in components],
            [c["b"] for c in components],
            [c["v"] for c in components],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed components in report: {exc}") from exc


def gof_to_dict(report: GofReport) -> dict:
    return {
        "chi2": report.chi2,
        "dof": report.dof,
        "p_value": report.p_value,
        "alpha": report.alpha,
        "rejected": report.rejected,
        "n_params": report.n_params,
        "sample_size": report.sample_size,
        "bins": [
            {
                "k_lo": b.k_lo,
                "k_hi": b.k_hi,
                "observed": b.observed,
                "expected": b.expected,
            }
            for b in report.bins
        ],
    }


def baseline_to_dict(result: BaselineResult) -> dict:
    return {
        "kind": result.kind,
        "params": dict(result.params),
        "log_likelihood": result.log_likelihood,
        "n_params": result.n_params,
        "aic": result.aic,
        "sample_size": result.sample_size,
        "converged": result.converged,
        "note": result.note,
    }


def _fit_to_scan_row(fit: FitResult, best_aic: float) -> dict:
    return {
        "M": fit.order,
        "n_params": fit.n_params,
        "log_likelihood": fit.log_likelihood,
        "aic": fit.aic,
        "delta_aic": fit.aic - best_aic,
        "converged": fit.converged,
    }


def build_report(
    scan: ScanResult,
    data: CountSample,
    gof: GofReport | None = None,
    gof_error: str | None = None,
    baselines: dict[str, BaselineResult] | None = None,
    config_echo: dict | None = None,
) -> dict:
    """Assemble the full fit report for the selected model of a scan."""
    best = scan.best
    report = {
        "schema_version": SCHEMA_VERSION,
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "input_digest": sample_digest(data),
        "M": best.order,
        "components": model_to_dict(best.model),
        "log_likelihood": best.log_likelihood,
        "aic": best.aic,
        "n_params": best.n_params,
        "sample_size": best.sample_size,
        "converged": best.converged,
        "delta_aic_runner_up": scan.delta_aic_runner_up,
        "scan": [_fit_to_scan_row(f, best.aic) for f in scan.fits],
        "scan_failures": {str(m): msg for m, msg in sorted(scan.failures.items())},
        "gof": gof_to_dict(gof) if gof is not None else None,
        "gof_error": gof_error,
        "baselines": {
            name: baseline_to_dict(b) for name, b in (baselines or {}).items()
        },
        "config": dict(config_echo or {}),
    }
    return report


def serialize_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_report(report))


def load_report(path) -> dict:
    """Read a report; it must be a JSON object with a ``components`` list."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise InputFormatError(f"cannot load report {path}: {exc}") from exc
    if not isinstance(report, dict):
        raise InputFormatError(f"report {path} is not a JSON object")
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported report schema {report.get('schema_version')!r}"
        )
    if not isinstance(report.get("components"), list):
        raise InputFormatError(f"report {path} has no components list")
    return report


def strip_timestamps(report: dict) -> dict:
    """Copy of a report without its nondeterministic fields."""
    out = dict(report)
    out.pop("created_at", None)
    return out
