"""Command-line interface.

Subcommands: replies, scan, fit, gof, ccdf, rank, simulate.  Every
command is deterministic given its flags and seed; all machine-readable
output is UTF-8 JSON or TSV.  Exit codes: 0 success, 1 empty or
degenerate result, 2 input, output or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys

import numpy as np

from . import __version__
from .distributions import (
    MixtureModel,
    RankModel,
    _component_ccdf,
    mixture_ccdf,  # noqa: F401  not called here; perfbench/worker.py wraps this name
    rank_frequency,
)
from .errors import (
    DegenerateDataError,
    DomainError,
    FitError,
    InputFormatError,
    InsufficientResolutionError,
    ValidationError,
)
from .fitting import (
    _MAX_SIZE,
    CountSample,
    FitConfig,
    ScanResult,
    fit_lognormal,
    fit_mixture,
    fit_power_law,
    scan_orders,
)
from .gof import chi_square_test, empirical_ccdf
from .ingest import (
    DEFAULT_DISCRETIZATION,
    REPLY_RULES,
    discretize,
    extract_reply_delays,
    load_counts,
    parse_message_log,
    save_counts,
    write_delays,
)
from .report import (
    SCHEMA_VERSION,
    _record_dict,
    build_report,
    load_report,
    model_from_dict,
    model_to_dict,
    sample_digest,
    write_report,
)
from .simulate import sample_mixture

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_INPUT = 2

# OSError: an output path that cannot be written (inputs map their own);
# MemoryError: a size the machine cannot allocate
_INPUT_ERRORS = (InputFormatError, ValidationError, DomainError, OSError, MemoryError)
_EMPTY_ERRORS = (DegenerateDataError, FitError, InsufficientResolutionError)
_TSV_ROWS = 4096  # table rows formatted per write


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _claim_outputs(*paths) -> None:
    """Open every output before any is written, so a path that cannot be
    opened leaves no output behind: the files this call created are removed
    again, and files that already existed are not truncated."""
    created = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            with open(path, "a", encoding="utf-8"):
                pass
            if not existed:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise


def _load_sample(path):
    result = load_counts(path)
    if result.dropped:
        _err(f"{result.dropped} of {result.rows_read} count rows skipped")
    return result.sample


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_replies(args) -> int:
    log = parse_message_log(args.log, delimiter=args.delimiter, header=args.header)
    sample = extract_reply_delays(log, rule=args.rule, discretization=args.dt)
    counts = discretize(sample)
    out_delays = args.out_delays or f"{args.log}.delays"
    out_counts = args.out_counts or f"{args.log}.counts"
    _claim_outputs(out_delays, out_counts)
    write_delays(out_delays, sample)
    save_counts(out_counts, counts)
    print(f"rows read        {log.rows_read}")
    print(f"rows dropped     {log.dropped}")
    print(f"self messages    {sample.self_messages_dropped}")
    print(f"delays extracted {sample.delays.size}")
    print(f"messages unanswered {sample.messages_unanswered}")
    print(f"reply rule       {sample.rule}")
    print(f"delays -> {out_delays}")
    print(f"counts -> {out_counts}")
    return EXIT_OK


def _print_scan_table(scan) -> None:
    best_aic = scan.best.aic
    print(f"{'M':>3} {'n':>3} {'logL':>16} {'AIC':>16} {'dAIC':>12} conv")
    for fit in scan.fits:
        print(
            f"{fit.order:>3} {fit.n_params:>3} {fit.log_likelihood:>16.4f} "
            f"{fit.aic:>16.4f} {fit.aic - best_aic:>12.4f} {fit.converged}"
        )
    for order, msg in sorted(scan.failures.items()):
        print(f"{order:>3} failed: {msg}")


def _check_alpha(alpha: float) -> None:
    """Refuse the alphas ``chi_square_test`` refuses, before the sample is loaded and fitted."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")


def cmd_scan(args) -> int:
    _check_alpha(args.alpha)
    sample = _load_sample(args.counts)
    config = FitConfig(starts=args.starts, seed=args.seed)
    scan = scan_orders(sample, args.m_max, config)
    return _report_fits(args, sample, scan, config, m_max=args.m_max)


def cmd_fit(args) -> int:
    _check_alpha(args.alpha)
    sample = _load_sample(args.counts)
    config = FitConfig(starts=args.starts, seed=args.seed)
    fit = fit_mixture(sample, args.m, config)
    return _report_fits(args, sample, ScanResult(fits=(fit,), best_index=0), config, m_max=args.m)


def _report_fits(args, sample, scan: ScanResult, config: FitConfig, m_max: int) -> int:
    """Test the selected fit, fit the baselines, write the report, print."""
    best = scan.best
    try:
        gof = chi_square_test(best.model, sample, best.n_params, args.alpha)
    except (InsufficientResolutionError, ValidationError) as exc:
        gof = str(exc)

    baselines = {}
    for name, fitter in (("power_law", fit_power_law), ("lognormal", fit_lognormal)):
        try:
            baselines[name] = fitter(sample)
        except DegenerateDataError as exc:
            baselines[name] = str(exc)
            _err(f"baseline {name} failed: {exc}")

    config_echo = {**dataclasses.asdict(config), "m_max": m_max, "alpha": args.alpha}
    out = args.out or f"{args.counts}.report.json"
    write_report(out, build_report(scan, sample, gof, baselines, config_echo))
    _print_scan_table(scan)
    if isinstance(gof, str):
        print(f"gof unavailable: {gof}")
    else:
        _print_verdict(gof)
    print(f"report -> {out}")
    return EXIT_OK


def _print_verdict(gof_report) -> None:
    verdict = "rejected" if gof_report.rejected else "not rejected"
    print(
        f"chi2 {gof_report.chi2:.4f}  dof {gof_report.dof}  "
        f"p {gof_report.p_value:.6g}  {verdict} at alpha={gof_report.alpha}"
    )


def cmd_gof(args) -> int:
    sample = _load_sample(args.counts)
    report = load_report(args.report)
    model = model_from_dict(report["components"])
    n_params = args.n_params if args.n_params is not None else report.get("n_params")
    if not isinstance(n_params, int):
        raise InputFormatError("the report has no integer n_params; pass --n-params")
    gof_report = chi_square_test(model, sample, n_params, args.alpha)
    if args.out:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "input_digest": sample_digest(sample),
            "gof": _record_dict(gof_report),
        }
        write_report(args.out, payload)
        print(f"gof -> {args.out}")
    _print_verdict(gof_report)
    return EXIT_OK


def _check_digest(report: dict, sample, strict: bool) -> int | None:
    digest = sample_digest(sample)
    if report.get("input_digest") != digest:
        msg = "report digest does not match the count file"
        if strict:
            _err(msg)
            return EXIT_EMPTY
        print(f"warning: {msg}", file=sys.stderr)
    return None


def cmd_ccdf(args) -> int:
    sample = _load_sample(args.counts)
    report = load_report(args.report)
    bad = _check_digest(report, sample, args.strict)
    if bad is not None:
        return bad
    model = model_from_dict(report["components"])
    ks, fracs = empirical_ccdf(sample)
    comp_cols = _component_ccdf(model._c, model._b, model._v, ks.astype(float))
    model_col = comp_cols.sum(axis=0)  # the left fold of mixture_ccdf, bit for bit
    header = ["k", "empirical", "model"] + [
        f"component_{i + 1}" for i in range(model.order)
    ]
    _write_tsv(args.out, ["\t".join(header)], ks, fracs, model_col, *comp_cols)
    return EXIT_OK


def cmd_rank(args) -> int:
    report = load_report(args.report)
    model = model_from_dict(report["components"])
    idx = args.component
    if not 0 <= idx < model.order:
        raise DomainError(f"component index {idx} out of range for M={model.order}")
    if args.population > _MAX_SIZE:
        raise DomainError(f"population {args.population} exceeds the {_MAX_SIZE} rows a rank table can hold")
    comp = model.components[idx]
    rm = RankModel(shape=comp.shape, scale=comp.scale, population=args.population)
    # 1..population by a cumulative sum: np.arange raises ValueError, not
    # MemoryError, for the lengths within 64 of _MAX_SIZE
    ranks = np.ones(args.population, dtype=np.int64)
    np.cumsum(ranks, out=ranks)
    head = [
        f"# schema: {SCHEMA_VERSION} rank table",
        f"# component_index: {idx}",
        f"# c: {comp.weight!r}  b: {comp.scale!r}  v: {comp.shape!r}",
        "r\tf_r",
    ]
    _write_tsv(args.out, head, ranks, rank_frequency(rm, ranks))
    return EXIT_OK


def _write_tsv(out, head: list[str], ints: np.ndarray, *floats: np.ndarray) -> None:
    """Write the ``head`` lines, then a row per entry of ``ints``: the int and the
    ``repr`` of each float column's entry, tab-separated.

    Rows are formatted ``_TSV_ROWS`` at a time, so the table's text is never held whole.
    """
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("".join(line + "\n" for line in head))
        for lo in range(0, ints.size, _TSV_ROWS):
            part = slice(lo, lo + _TSV_ROWS)
            rows = zip(map(str, ints[part].tolist()), *(map(repr, col[part].tolist()) for col in floats))
            fh.write("\n".join(map("\t".join, rows)) + "\n")
    if out:
        print(f"table -> {out}")


def _parse_model_spec(spec: str) -> MixtureModel:
    try:
        triples = []
        for part in spec.split(","):
            c, b, v = (float(tok) for tok in part.split(":"))
            triples.append((c, b, v))
    except ValueError as exc:
        raise InputFormatError(
            f"model spec must be 'c:b:v[,c:b:v...]', got {spec!r}"
        ) from exc
    return MixtureModel.from_parameters(
        [t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples]
    )


def cmd_simulate(args) -> int:
    if (args.model is None) == (args.from_report is None):
        raise InputFormatError("supply exactly one of --model or --from-report")
    if args.model is not None:
        model = _parse_model_spec(args.model)
    else:
        model = model_from_dict(load_report(args.from_report)["components"])
    draws = sample_mixture(model, args.n, args.seed)
    _claim_outputs(args.out, f"{args.out}.meta.json")
    save_counts(args.out, draws)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "components": model_to_dict(model),
        "n": args.n,
        "seed": args.seed,
        "output_digest": sample_digest(CountSample(draws)),
    }
    write_report(f"{args.out}.meta.json", meta)
    print(f"{args.n} draws -> {args.out}")
    print(f"metadata -> {args.out}.meta.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_fit_flags(p) -> None:
    p.add_argument("--starts", type=int, default=20, help="multi-start count")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--alpha", type=float, default=0.001, help="gof significance level")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call of main."""
    parser = argparse.ArgumentParser(
        prog="lomaxmix",
        description="Fit mixtures of discrete Lomax components to heavy-tailed count data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replies", help="extract reply delays from a message log")
    p.add_argument("log", help="message log (timestamp,sender,receiver)")
    p.add_argument("--dt", type=float, default=DEFAULT_DISCRETIZATION, help="discretization step, seconds")
    p.add_argument("--rule", choices=REPLY_RULES, default="first-response")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--header", action="store_true", help="skip the first row")
    p.add_argument("--out-delays", default=None)
    p.add_argument("--out-counts", default=None)
    p.set_defaults(func=cmd_replies)

    p = sub.add_parser("scan", help="fit orders 1..M and select by AIC")
    p.add_argument("counts", help="count file")
    p.add_argument("--m-max", type=int, default=4)
    _add_fit_flags(p)
    p.add_argument("--out", default=None, help="report path (default <counts>.report.json)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="fit exactly one model order")
    p.add_argument("counts", help="count file")
    p.add_argument("--m", type=int, required=True, help="number of components")
    _add_fit_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gof", help="chi-square test of a fitted report against counts")
    p.add_argument("counts")
    p.add_argument("report")
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--n-params", type=int, default=None, help="override fitted-parameter count")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("ccdf", help="empirical / model / per-component survival table")
    p.add_argument("counts")
    p.add_argument("report")
    p.add_argument("--strict", action="store_true", help="fail on digest mismatch")
    p.add_argument("--out", default=None, help="TSV path (default stdout)")
    p.set_defaults(func=cmd_ccdf)

    p = sub.add_parser("rank", help="rank-frequency table from a fitted component")
    p.add_argument("report")
    p.add_argument("--population", "-l", type=int, required=True, help="number of ranked units")
    p.add_argument("--component", type=int, default=0, help="component index (default: dominant)")
    p.add_argument("--out", default=None, help="TSV path (default stdout)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("simulate", help="draw synthetic counts from a mixture")
    p.add_argument("--model", default=None, help="inline spec c:b:v[,c:b:v...]")
    p.add_argument("--from-report", default=None, help="take the model from a fit report")
    p.add_argument("-n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="simulated.counts")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        _err(str(exc))
        return EXIT_INPUT
    except _EMPTY_ERRORS as exc:
        _err(str(exc))
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())
