"""Machine-readable fit reports (schema ``lomaxmix/1``).

Reports are plain dicts serialized as sorted-key JSON so that identical
inputs produce byte-identical files; the only nondeterministic field is
``created_at``, which consumers must ignore when comparing reports.  The
``input_digest`` ties a report to the count sample it was fitted on.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import itertools
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
    "build_report",
    "write_report",
    "load_report",
]

SCHEMA_VERSION = "lomaxmix/1"
_JSON_PIECES = 4096  # encoder pieces joined per write
_DIGEST_ROWS = 4096  # distinct values hashed per update


def sample_digest(sample: CountSample) -> str:
    """SHA-256 of the canonical distinct-value representation: a ``k:count``
    line per distinct value, joined by line breaks.

    The lines are hashed ``_DIGEST_ROWS`` at a time, so their text is never held whole.
    """
    digest = hashlib.sha256()
    for lo in range(0, sample.ks.size, _DIGEST_ROWS):
        rows = zip(sample.ks[lo : lo + _DIGEST_ROWS].tolist(), sample.counts[lo : lo + _DIGEST_ROWS].tolist())
        if lo:
            digest.update(b"\n")
        digest.update("\n".join(f"{k}:{c}" for k, c in rows).encode("ascii"))
    return digest.hexdigest()


def model_to_dict(model: MixtureModel) -> list[dict]:
    return [
        {
            "c": comp.weight,
            "b": comp.scale,
            "v": comp.shape,
            "mean_lambda": comp.mean_rate,
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


def _record_dict(record) -> dict:
    """A dataclass's fields by name, a tuple of dataclasses (``GofReport.bins``) as a list of dicts.

    Unlike ``dataclasses.asdict``, it does not deep-copy every value of every bin.
    """
    return {
        name: [dict(vars(item)) for item in value] if isinstance(value, tuple) else value
        for name, value in vars(record).items()
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
    gof: GofReport | str,
    baselines: dict[str, BaselineResult | str],
    config: dict,
) -> dict:
    """Assemble the full fit report for the selected model of a scan.

    ``gof`` and each baseline are a result or the message of the error that stopped it.
    """
    best = scan.best
    failed = isinstance(gof, str)
    return {
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
        "gof": None if failed else _record_dict(gof),
        "gof_error": gof if failed else None,
        "baselines": {
            name: {"error": b} if isinstance(b, str) else _record_dict(b) for name, b in baselines.items()
        },
        "config": dict(config),
    }


def write_report(path, report: dict) -> None:
    """Write ``report`` as sorted-key JSON with a final line break.

    The encoder's pieces are joined and written ``_JSON_PIECES`` at a
    time, so the text is never held whole; ``json.dump``, which writes
    each piece on its own, was slower than making the text whole.
    """
    pieces = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False).iterencode(report)
    with open(path, "w", encoding="utf-8") as fh:
        while block := "".join(itertools.islice(pieces, _JSON_PIECES)):
            fh.write(block)
        fh.write("\n")


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
