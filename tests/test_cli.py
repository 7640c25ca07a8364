"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import hashlib
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lomaxmix import (
    CountSample,
    FitConfig,
    FitResult,
    GofReport,
    MixtureModel,
    aic,
    chi_square_test,
    log_likelihood,
    sample_mixture,
    save_counts,
)
from lomaxmix import cli, fitting
from lomaxmix.cli import _TSV_ROWS, main
from lomaxmix.fitting import ScanResult, n_params_for_order
from lomaxmix.ingest import _READ_BLOCK
from lomaxmix.distributions import SCALE_BOUNDS, SHAPE_BOUNDS, RankModel, rank_frequency
from lomaxmix.report import (
    _DIGEST_ROWS,
    SCHEMA_VERSION,
    build_report,
    load_report,
    model_from_dict,
    sample_digest,
    write_report,
)
from conftest import strip_timestamps
from memory import peak_above
from test_ingest import _LINE, _ROW, _TEXT


def unit_model():
    return MixtureModel.from_parameters([1.0], [1.0], [1.0])


def write_exact_report(model, draws, path):
    """A fit report on the sample of ``draws`` whose components are exactly the given model."""
    data = CountSample(draws)
    ll = log_likelihood(model, data)
    n = n_params_for_order(model.order)
    fit = FitResult(
        model=model,
        log_likelihood=ll,
        n_params=n,
        aic=aic(ll, n),
        sample_size=data.size,
        converged=True,
    )
    scan = ScanResult(fits=(fit,), best_index=0)
    write_report(path, build_report(scan, data, "not tested", {}, {}))


@pytest.fixture
def message_log(tmp_path):
    path = tmp_path / "msgs.csv"
    path.write_text(
        "0,alice,bob\n60,bob,alice\n100,carol,dave\n"
        "130,carol,dave\n200,dave,carol\n300,eve,frank\n"
    )
    return path


class TestReplies:
    def test_fixture_counts(self, message_log, tmp_path, capsys):
        counts = tmp_path / "c.txt"
        delays = tmp_path / "d.txt"
        code = main(
            [
                "replies",
                str(message_log),
                "--dt",
                "60",
                "--out-counts",
                str(counts),
                "--out-delays",
                str(delays),
            ]
        )
        assert code == 0
        assert sorted(counts.read_text().split()) == ["1", "2", "2"]
        assert sorted(float(x) for x in delays.read_text().split()) == [60.0, 70.0, 100.0]
        assert "messages unanswered 3\n" in capsys.readouterr().out

    def test_exclusive_rule(self, message_log, tmp_path, capsys):
        counts = tmp_path / "c.txt"
        code = main(
            [
                "replies",
                str(message_log),
                "--rule",
                "exclusive",
                "--out-counts",
                str(counts),
                "--out-delays",
                str(tmp_path / "d.txt"),
            ]
        )
        assert code == 0
        assert sorted(counts.read_text().split()) == ["1", "2"]
        assert "messages unanswered 4\n" in capsys.readouterr().out

    def test_empty_log_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["replies", str(path)]) == 2

    def test_no_replies_exits_1(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0,a,b\n")
        assert main(["replies", str(path)]) == 1

    def test_minor_corruption_still_succeeds(self, tmp_path, capsys):
        rows = ["0,a,b", "not a row"] + [f"{t},b,a" for t in range(10, 110)]
        path = tmp_path / "log.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(
            [
                "replies",
                str(path),
                "--out-counts",
                str(tmp_path / "c"),
                "--out-delays",
                str(tmp_path / "d"),
            ]
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert "rows dropped     1" in out
        assert err == "warning: 1 of 102 log rows skipped; first at line 2: expected 3 fields, got 1\n"


class TestScan:
    def test_scan_report_fields(self, tmp_path):
        model = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
        counts = tmp_path / "sim.counts"
        save_counts(counts, sample_mixture(model, 2 * 10**4, seed=3))
        out = tmp_path / "rep.json"
        code = main(
            [
                "scan",
                str(counts),
                "--m-max",
                "3",
                "--starts",
                "8",
                "--seed",
                "1",
                "--alpha",
                "0.001",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = load_report(out)
        assert report["schema_version"] == "lomaxmix/1"
        assert report["M"] == 2
        assert report["delta_aic_runner_up"] > 0.0
        assert report["config"] == asdict(FitConfig(starts=8, seed=1)) | {"m_max": 3, "alpha": 0.001}
        assert report["gof"]["alpha"] == 0.001
        assert {row["M"] for row in report["scan"]} == {1, 2, 3}
        assert "power_law" in report["baselines"]
        assert "lognormal" in report["baselines"]
        for comp in report["components"]:
            np.testing.assert_allclose(comp["mean_lambda"], comp["v"] / comp["b"], rtol=1e-12)

    def test_deterministic_reports(self, tmp_path):
        model = unit_model()
        counts = tmp_path / "x.counts"
        save_counts(counts, sample_mixture(model, 3000, seed=5))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert (
                main(["scan", str(counts), "--m-max", "2", "--starts", "4", "--out", str(out)])
                == 0
            )
        a = strip_timestamps(json.loads(out1.read_text()))
        b = strip_timestamps(json.loads(out2.read_text()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_round_trips(self, tmp_path):
        model = unit_model()
        data = sample_mixture(model, 1000, seed=1)
        path = tmp_path / "rt.json"
        write_exact_report(model, data, path)
        report = load_report(path)
        write_report(tmp_path / "rt2.json", report)
        assert strip_timestamps(load_report(tmp_path / "rt2.json")) == strip_timestamps(report)


class TestGofBlock:
    """The gof block is the chi-square result's fields by name, each bin the
    record ``{k_lo, k_hi, observed, expected}``; ``gof --out`` writes the same block."""

    def test_scan_and_gof_out_blocks_equal_the_test(self, tmp_path):
        draws = sample_mixture(MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0]), 2 * 10**4, seed=3)
        counts = tmp_path / "b.counts"
        save_counts(counts, draws)
        rep, gof_out = tmp_path / "b.json", tmp_path / "gof.json"
        argv = ["scan", str(counts), "--m-max", "2", "--starts", "4", "--alpha", "0.01", "--out", str(rep)]
        assert main(argv) == 0
        report = load_report(rep)
        sample = CountSample(draws)
        test = chi_square_test(model_from_dict(report["components"]), sample, report["n_params"], 0.01)
        block = report["gof"]
        assert block == json.loads(json.dumps(asdict(test)))
        assert sorted(block) == sorted(f.name for f in fields(GofReport))
        bins = block["bins"]
        assert len(bins) > 3
        for b, after in zip(bins, bins[1:] + [None]):
            assert sorted(b) == ["expected", "k_hi", "k_lo", "observed"]
            assert type(b["k_lo"]) is int and type(b["observed"]) is int and type(b["expected"]) is float
            assert b["k_hi"] == (after["k_lo"] if after else None)
        assert main(["gof", str(counts), str(rep), "--alpha", "0.01", "--out", str(gof_out)]) == 0
        written = json.loads(gof_out.read_text())
        assert written == {"schema_version": SCHEMA_VERSION, "input_digest": report["input_digest"], "gof": block}


class TestFitAndGof:
    def test_single_order_fit(self, tmp_path):
        counts = tmp_path / "g.counts"
        save_counts(counts, sample_mixture(unit_model(), 5000, seed=2))
        out = tmp_path / "fit.json"
        code = main(["fit", str(counts), "--m", "1", "--starts", "4", "--out", str(out)])
        assert code == 0
        report = load_report(out)
        assert report["M"] == 1
        assert len(report["scan"]) == 1

    def test_fit_fits_only_the_given_order(self, tmp_path):
        model = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
        counts = tmp_path / "two.counts"
        save_counts(counts, sample_mixture(model, 5000, seed=3))
        out = tmp_path / "fit.json"
        code = main(["fit", str(counts), "--m", "2", "--starts", "4", "--out", str(out)])
        assert code == 0
        report = load_report(out)
        assert report["M"] == 2
        assert [row["M"] for row in report["scan"]] == [2]
        assert report["delta_aic_runner_up"] is None
        assert report["config"] == asdict(FitConfig(starts=4, seed=0)) | {"m_max": 2, "alpha": 0.001}

    def test_negative_seeds_get_their_own_streams(self, tmp_path, monkeypatch):
        # both streams' fits converge to one optimum, so the streams are
        # observed in the starts each seed draws; the power law's
        # one-parameter search runs on the same optimizer and is skipped
        real = fitting._minimize
        drawn = []

        def recorder(fun, x, *args):
            if x.shape[1] == n_params_for_order(2):
                drawn.append(x.copy())
            return real(fun, x, *args)

        monkeypatch.setattr(fitting, "_minimize", recorder)
        model = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
        counts = tmp_path / "two.counts"
        save_counts(counts, sample_mixture(model, 2000, seed=0))
        for seed in ("-1", "-2"):
            out = tmp_path / f"fit{seed}.json"
            argv = ["fit", str(counts), "--m", "2", "--starts", "4", "--seed", seed, "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0
        assert len(drawn) == 2
        # the moment start is shared; every jittered start differs
        assert np.array_equal(drawn[0][0], drawn[1][0])
        assert not (drawn[0][1:] == drawn[1][1:]).all(axis=1).any()

    @pytest.mark.parametrize("command", ["fit", "scan"])
    def test_skipped_count_rows_warn_with_the_first_line(self, tmp_path, capsys, command):
        counts = tmp_path / "c.counts"
        counts.write_text("1\n2\nx\n0\n3\n1\n2\n5\n8\n1\n")
        flags = ["--m", "1"] if command == "fit" else ["--m-max", "1"]
        assert main([command, str(counts), *flags, "--starts", "2", "--out", str(tmp_path / "r.json")]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: 2 of 10 count rows skipped; first at line 3: non-integer count 'x'\n")

    def test_gof_subcommand(self, tmp_path, capsys):
        data = sample_mixture(unit_model(), 10**4, seed=4)
        counts = tmp_path / "h.counts"
        save_counts(counts, data)
        rep = tmp_path / "h.json"
        write_exact_report(unit_model(), data, rep)
        code = main(["gof", str(counts), str(rep), "--alpha", "0.1", "--n-params", "0"])
        assert code == 0
        assert "not rejected" in capsys.readouterr().out


def _report_digest(path) -> str:
    """sha256 of a report's bytes without its ``created_at`` line."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines if b'"created_at"' not in line)).hexdigest()


class TestFailureValues:
    """A gof test or baseline that cannot run is written into the report, and the scan still exits 0."""

    def test_collapsing_counts_fail_the_lognormal(self, tmp_path, capsys):
        # both values round to the same float64, so the log-counts have zero variance
        counts = tmp_path / "collapse.counts"
        counts.write_text("9223372036854775807\n9223372036854775806\n" * 20)
        out = tmp_path / "r.json"
        assert main(["scan", str(counts), "--m-max", "2", "--starts", "4", "--out", str(out)]) == 0
        msg = "log-counts have zero variance; lognormal fit is degenerate"
        assert f"warning: baseline lognormal failed: {msg}" in capsys.readouterr().err
        report = load_report(out)
        assert report["baselines"]["lognormal"] == {"error": msg}
        assert report["baselines"]["power_law"]["kind"] == "power_law"
        assert report["baselines"]["power_law"]["sample_size"] == 40
        assert report["gof_error"] is None and report["gof"]["sample_size"] == 40
        assert _report_digest(out) == "08c6520f681e016cc575cdda6d38d1bacad496040b6e892de9ce9cab7e54bd00"

    def test_tiny_sample_fails_the_gof_test(self, tmp_path, capsys):
        counts = tmp_path / "tiny.counts"
        counts.write_text("1\n1\n2\n3\n5\n")
        out = tmp_path / "r.json"
        assert main(["scan", str(counts), "--m-max", "4", "--out", str(out)]) == 0
        report = load_report(out)
        # the scan stops at order 3, the first with more parameters than observations
        assert report["scan_failures"] == {"3": "sample size 5 is too small to fit 8 parameters"}
        assert report["gof"] is None
        assert report["gof_error"] == "need at least 25 observations, got 5"
        assert "gof unavailable: need at least 25 observations, got 5" in capsys.readouterr().out
        assert set(report["baselines"]) == {"power_law", "lognormal"}
        assert _report_digest(out) == "e75ec838f7d3472a20c641bc9ebc0ba83023c778a64b7f4961e4a9d45e643b71"

    def test_scan_of_a_billion_orders_stops_at_the_first_it_cannot_fit(self, tmp_path):
        # it once tried every order, writing a failure for each
        counts = tmp_path / "tiny.counts"
        counts.write_text("1\n1\n2\n3\n5\n")
        out = tmp_path / "r.json"
        assert main(["scan", str(counts), "--m-max", str(10**9), "--starts", "1", "--out", str(out)]) == 0
        assert load_report(out)["scan_failures"] == {"3": "sample size 5 is too small to fit 8 parameters"}


    def test_scan_of_equal_values_stops_at_the_first_order(self, tmp_path):
        # every order up to n / 3 once failed alike, and the error listed each
        counts = tmp_path / "equal.counts"
        counts.write_text("5\n" * 30_000)
        argv = ["scan", str(counts), "--m-max", str(10**9), "--starts", "1", "--out", str(tmp_path / "r.json")]
        code, err = _exit_of(argv)
        msg = "all observations are identical; the mixture likelihood has no interior optimum"
        assert code == 1
        assert err == f"error: no order in 1..{10**9} produced a fit: {{1: '{msg}'}}\n"


class TestCcdf:
    def test_columns(self, tmp_path):
        data = sample_mixture(unit_model(), 5000, seed=6)
        counts = tmp_path / "c.counts"
        save_counts(counts, data)
        rep = tmp_path / "c.json"
        write_exact_report(unit_model(), data, rep)
        out = tmp_path / "c.tsv"
        assert main(["ccdf", str(counts), str(rep), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["k", "empirical", "model", "component_1"]
        rows = {int(r.split("\t")[0]): r.split("\t") for r in lines[1:]}
        assert float(rows[1][1]) == 1.0  # empirical at smallest k
        np.testing.assert_allclose(float(rows[10][2]), 0.1, rtol=1e-12)
        for row in rows.values():
            model_col = float(row[2])
            comp_sum = sum(float(x) for x in row[3:])
            assert abs(comp_sum - model_col) <= 1e-12

    def test_component_columns_sum_for_mixture(self, tmp_path):
        model = MixtureModel.from_parameters([0.6, 0.4], [1.0, 8.0], [1.0, 2.0])
        data = sample_mixture(model, 3000, seed=7)
        counts = tmp_path / "m.counts"
        save_counts(counts, data)
        rep = tmp_path / "m.json"
        write_exact_report(model, data, rep)
        out = tmp_path / "m.tsv"
        assert main(["ccdf", str(counts), str(rep), "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            parts = [float(x) for x in line.split("\t")]
            assert abs(parts[3] + parts[4] - parts[2]) <= 1e-12

    def test_strict_digest_mismatch(self, tmp_path):
        data = sample_mixture(unit_model(), 1000, seed=8)
        other = sample_mixture(unit_model(), 1000, seed=9)
        counts = tmp_path / "a.counts"
        save_counts(counts, other)
        rep = tmp_path / "a.json"
        write_exact_report(unit_model(), data, rep)
        assert main(["ccdf", str(counts), str(rep), "--strict"]) == 1
        assert main(["ccdf", str(counts), str(rep), "--out", str(tmp_path / "o.tsv")]) == 0


class TestRank:
    def test_table(self, tmp_path):
        model = MixtureModel.from_parameters([1.0], [2.0], [1.0])
        data = sample_mixture(model, 1000, seed=10)
        rep = tmp_path / "r.json"
        write_exact_report(model, data, rep)
        out = tmp_path / "r.tsv"
        assert main(["rank", str(rep), "-l", "100", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "r\tf_r"
        table = {int(l.split("\t")[0]): float(l.split("\t")[1]) for l in lines[1:]}
        assert len(table) == 100
        np.testing.assert_allclose(table[4], 0.48, rtol=1e-12)
        assert table[100] == 0.0
        freqs = [table[r] for r in sorted(table)]
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("component_index: 0" in h for h in header)

    def test_table_bytes_across_row_blocks(self, tmp_path):
        model = MixtureModel.from_parameters([1.0], [2.0], [1.3])
        rep = tmp_path / "r.json"
        write_exact_report(model, sample_mixture(model, 1000, seed=10), rep)
        out = tmp_path / "r.tsv"
        population = 2 * _TSV_ROWS + 1
        assert main(["rank", str(rep), "-l", str(population), "--out", str(out)]) == 0
        ranks = np.arange(1, population + 1)
        freqs = rank_frequency(RankModel(shape=1.3, scale=2.0, population=population), ranks)
        rows = "".join(f"{r}\t{f!r}\n" for r, f in zip(ranks.tolist(), freqs.tolist()))
        assert out.read_text().split("r\tf_r\n", 1)[1] == rows

    def test_peak_per_rank(self, tmp_path):
        # 24 bytes per rank: the ranks, their frequencies and rank_frequency's
        # temporaries; a float copy of the ranks took 32, the table's text held whole 159
        model = MixtureModel.from_parameters([1.0], [2.0], [1.3])
        rep = tmp_path / "r.json"
        write_exact_report(model, sample_mixture(model, 1000, seed=10), rep)
        out = tmp_path / "r.tsv"
        with redirect_stdout(io.StringIO()):
            code, peak = peak_above(main, ["rank", str(rep), "-l", "200000", "--out", str(out)])
        assert code == 0
        assert peak / 200_000 < 29

    def test_frequencies_past_float64_exit_2(self, tmp_path, capsys):
        # f_1 = expm1(log(1000) / 0.001) / 1000 is past the float64 range
        model = MixtureModel.from_parameters([1.0], [1.0], [0.001])
        rep = tmp_path / "r.json"
        write_exact_report(model, sample_mixture(unit_model(), 1000, seed=10), rep)
        out = tmp_path / "r.tsv"
        assert main(["rank", str(rep), "-l", "1000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: f_r overflows float64 at shape 0.001 and population 1000\n"
        assert not out.exists()

    def test_bad_population(self, tmp_path):
        model = unit_model()
        data = sample_mixture(model, 1000, seed=11)
        rep = tmp_path / "rr.json"
        write_exact_report(model, data, rep)
        assert main(["rank", str(rep), "-l", "0"]) == 2


class TestWriteReport:
    def test_streams_sorted_key_json(self, tmp_path):
        # about 2 MiB of JSON: writing it peaks at 210 KiB (17 MiB while the text was made whole)
        report = {
            "schema_version": SCHEMA_VERSION,
            "gof": {"bins": [{"lo": i, "hi": i + 1, "observed": i, "expected": i / 7} for i in range(20_000)]},
        }
        path = tmp_path / "r.json"
        _, peak = peak_above(write_report, path, report)
        assert path.read_text(encoding="utf-8") == json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert peak < 2**20


class TestSampleDigest:
    def test_block_wise_digest_equals_the_one_string_formula(self):
        # K spans ten blocks and a part; the one-string formula peaked at 4.5 MiB here, the blocks at 0.45
        ks = np.arange(1, 10 * _DIGEST_ROWS + 8) * 7919
        sample = CountSample(np.repeat(ks, np.arange(ks.size) % 3 + 1))
        payload = "\n".join(f"{k}:{c}" for k, c in zip(sample.ks.tolist(), sample.counts.tolist()))
        digest, peak = peak_above(sample_digest, sample)
        assert digest == hashlib.sha256(payload.encode("ascii")).hexdigest()
        assert peak < 2**20


class TestSimulate:
    def test_golden_output(self, tmp_path):
        out = tmp_path / "sim.counts"
        code = main(
            ["simulate", "--model", "0.7:2:1.2,0.3:20:3", "-n", "10", "--seed", "123", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().split() == ["2", "1", "2", "2", "13", "1", "2", "1", "4", "2"]
        meta = json.loads((tmp_path / "sim.counts.meta.json").read_text())
        assert meta["seed"] == 123 and meta["n"] == 10
        assert len(meta["components"]) == 2

    def test_bad_weights_exit_2(self, tmp_path):
        code = main(
            ["simulate", "--model", "0.5:1:1,0.6:2:2", "-n", "5", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_round_trip_recovers_order(self, tmp_path):
        out = tmp_path / "rt.counts"
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    "0.7:2:1.2,0.3:20:3",
                    "-n",
                    "20000",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rep = tmp_path / "rt.json"
        assert (
            main(["scan", str(out), "--m-max", "3", "--starts", "8", "--out", str(rep)]) == 0
        )
        assert load_report(rep)["M"] == 2

    def test_from_report(self, tmp_path):
        model = unit_model()
        data = sample_mixture(model, 1000, seed=12)
        rep = tmp_path / "fr.json"
        write_exact_report(model, data, rep)
        out = tmp_path / "fr.counts"
        assert main(["simulate", "--from-report", str(rep), "-n", "20", "--out", str(out)]) == 0
        assert len(out.read_text().split()) == 20

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["simulate", "-n", "5", "--out", str(tmp_path / "x")]) == 2


class TestMalformedInput:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--starts", "0"], "starts must be >= 1"),
            # start arrays past what one numpy array can hold ended in a ValueError traceback
            (["--starts", str(2**60)], f"starts x (3M - 1) = {2**60} x 2 values at M = 1 exceeds"),
            (["--starts", str(2**62)], f"starts x (3M - 1) = {2**62} x 2 values at M = 1 exceeds"),
            (["--starts", str(10**20)], f"starts x (3M - 1) = {10**20} x 2 values at M = 1 exceeds"),
            # the order alone can overflow it too
            (["--m-max", str(10**17)], f"starts x (3M - 1) = 20 x {3 * 10**17 - 1} values at M = {10**17}"),
        ],
        ids=["starts-0", "starts-2**60", "starts-2**62", "starts-10**20", "m-max-10**17"],
    )
    def test_bad_fit_config_exit_2(self, tmp_path, capsys, flags, message):
        counts = tmp_path / "c.counts"
        save_counts(counts, sample_mixture(unit_model(), 1000, seed=13))
        argv = ["scan", str(counts), "--m-max", "1", "--out", str(tmp_path / "r.json"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    @pytest.mark.parametrize(
        "command", [["scan", "--m-max", "2"], ["fit", "--m", "2"], ["gof", "in.json"]], ids=["scan", "fit", "gof"]
    )
    def test_bad_alpha_exit_2_before_any_fit(self, tmp_path, capsys, monkeypatch, command, alpha):
        # the alpha was refused by chi_square_test, after every order had been
        # fitted, or for gof after the count file and the report had been read
        def started(*args, **kwargs):
            raise AssertionError("a fit started or an input was read")

        for name in ("scan_orders", "fit_mixture", "load_counts"):
            monkeypatch.setattr(cli, name, started)
        counts, out = tmp_path / "c.counts", tmp_path / "r.json"
        save_counts(counts, sample_mixture(unit_model(), 1000, seed=13))
        assert main([command[0], str(counts), *command[1:], "--alpha", alpha, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: alpha must lie in (0, 1), got {float(alpha)!r}\n"
        assert not out.exists()

    def test_simulate_negative_seed_exit_2(self, tmp_path, capsys):
        argv = ["simulate", "--model", "1:1:1", "-n", "5", "--seed", "-1",
                "--out", str(tmp_path / "s.counts")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must lie in" in err and "Traceback" not in err

    def test_replies_empty_delimiter_exit_2(self, message_log, capsys):
        assert main(["replies", str(message_log), "--delimiter", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "delimiter" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "writer",
        ["scan", "fit", "gof", "ccdf", "rank", "simulate", "replies-delays", "replies-counts"],
    )
    def test_unwritable_output_exit_2(self, tmp_path, message_log, capsys, writer):
        data = sample_mixture(unit_model(), 1000, seed=13)
        counts = tmp_path / "w.counts"
        save_counts(counts, data)
        rep = tmp_path / "w.json"
        write_exact_report(unit_model(), data, rep)
        bad = str(tmp_path / "missing" / "out")
        fit_flags = ["--starts", "1", "--out", bad]
        argv = {
            "scan": ["scan", str(counts), "--m-max", "1", *fit_flags],
            "fit": ["fit", str(counts), "--m", "1", *fit_flags],
            "gof": ["gof", str(counts), str(rep), "--out", bad],
            "ccdf": ["ccdf", str(counts), str(rep), "--out", bad],
            "rank": ["rank", str(rep), "-l", "10", "--out", bad],
            "simulate": ["simulate", "--model", "1:1:1", "-n", "5", "--out", bad],
            "replies-delays": ["replies", str(message_log), "--out-delays", bad,
                               "--out-counts", str(tmp_path / "c")],
            "replies-counts": ["replies", str(message_log), "--out-delays", str(tmp_path / "d"),
                               "--out-counts", bad],
        }[writer]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err and "Traceback" not in err

    # the log's one delay is 60 s: 1e-20 puts its count past int64
    @pytest.mark.parametrize("dt", ["inf", "1e-20"])
    def test_replies_bad_dt_exit_2(self, tmp_path, message_log, capsys, dt):
        out = [str(tmp_path / "d"), str(tmp_path / "c")]
        argv = ["replies", str(message_log), "--dt", dt, "--out-delays", out[0], "--out-counts", out[1]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dt" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [message_log]

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_replies_bad_dt_exit_2_before_parsing(self, tmp_path, message_log, capsys, monkeypatch, dt):
        # a bad step is refused before the log is parsed and matched, which takes a pass over the whole log
        def parse_started(*args, **kwargs):
            raise AssertionError("the log was parsed")

        monkeypatch.setattr(cli, "parse_message_log", parse_started)
        out = [str(tmp_path / "d"), str(tmp_path / "c")]
        argv = ["replies", str(message_log), f"--dt={dt}", "--out-delays", out[0], "--out-counts", out[1]]
        assert main(argv) == 2
        message = f"discretization dt must be finite and > 0, got {float(dt)!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [message_log]

    @pytest.mark.parametrize("second", ["P", "./P"])
    def test_replies_outputs_naming_one_file_exit_2(self, tmp_path, message_log, capsys, monkeypatch, second):
        # the counts overwrote the delays, and the command exited 0
        monkeypatch.chdir(tmp_path)
        assert main(["replies", str(message_log), "--out-delays", "P", "--out-counts", second]) == 2
        err = capsys.readouterr().err
        assert err == f"error: two outputs name one file: {second}\n"
        assert list(tmp_path.iterdir()) == [message_log]

    def test_replies_leaves_no_partial_output(self, tmp_path, message_log, capsys):
        delays, kept = tmp_path / "d.out", tmp_path / "kept.out"
        kept.write_text("earlier\n")
        bad = str(tmp_path / "missing" / "c")
        for out in (delays, kept):
            argv = ["replies", str(message_log), "--out-delays", str(out), "--out-counts", bad]
            assert main(argv) == 2
            assert "Traceback" not in capsys.readouterr().err
        assert not delays.exists() and kept.read_text() == "earlier\n"

    def test_simulate_leaves_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "s.counts"
        (tmp_path / "s.counts.meta.json").mkdir()
        assert main(["simulate", "--model", "1:1:1", "-n", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.counts.meta.json"]

    def test_scan_non_utf8_counts_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.counts"
        path.write_bytes(b"1\n2\n\xff\n3\n")
        assert main(["scan", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_replies_non_utf8_log_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"0,a,b\n60,b,\xffa\n")
        assert main(["replies", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_replies_out_of_range_timestamps_exit_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text(f"{2**63},a,b\n{-(2**63) - 1},b,a\n")
        assert main(["replies", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no parseable rows" in err and "Traceback" not in err

    # the bad byte lies past the first read buffer, so it is decoded only
    # after many rows have been parsed
    @pytest.mark.parametrize(
        "command, rows",
        [("scan", b"1\n" * 100_000), ("replies", b"0,a,b\n60,b,a\n" * 50_000)],
    )
    def test_non_utf8_after_many_rows_exit_2(self, tmp_path, capsys, command, rows):
        path = tmp_path / "late.txt"
        path.write_bytes(rows + b"\xff\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, defect",
        [
            (command, defect)
            for command in ("gof", "ccdf", "rank", "simulate")
            for defect in ("no_components", "array", "non_numeric", "bool_parameter", "numeric_string")
        ]
        + [("gof", "no_n_params"), ("gof", "bool_n_params")],  # only gof reads n_params from the report
    )
    def test_malformed_report_exit_2(self, tmp_path, capsys, command, defect):
        data = sample_mixture(unit_model(), 1000, seed=13)
        counts = tmp_path / "m.counts"
        save_counts(counts, data)
        rep = tmp_path / "m.json"
        write_exact_report(unit_model(), data, rep)
        report = json.loads(rep.read_text())
        if defect == "no_components":
            del report["components"]
        elif defect == "array":
            report = [report]
        elif defect == "non_numeric":
            report["components"][0]["b"] = "two"
        elif defect == "bool_parameter":
            report["components"][0]["v"] = True  # float() reads it as 1.0
        elif defect == "numeric_string":
            report["components"][0]["v"] = "0.5"
        elif defect == "bool_n_params":
            report["n_params"] = True  # a bool is an int to isinstance, but no parameter count
        else:
            del report["n_params"]
        rep.write_text(json.dumps(report))
        out = str(tmp_path / "out")
        argv = {
            "gof": ["gof", str(counts), str(rep)],
            "ccdf": ["ccdf", str(counts), str(rep), "--out", out],
            "rank": ["rank", str(rep), "-l", "10"],
            "simulate": ["simulate", "--from-report", str(rep), "-n", "5", "--out", out],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if defect in ("bool_parameter", "numeric_string"):
            assert "malformed components in report" in err

    def test_fit_order_0_exit_2(self, tmp_path, capsys):
        counts = tmp_path / "c.counts"
        save_counts(counts, sample_mixture(unit_model(), 1000, seed=13))
        assert main(["fit", str(counts), "--m", "0", "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "order must be >= 1, got 0" in err and "Traceback" not in err


_COMPONENT = st.tuples(
    st.floats(1e-3, 1.0),
    st.floats(*SCALE_BOUNDS),
    st.floats(*SHAPE_BOUNDS),
)


class TestReportRoundTrip:
    @settings(max_examples=60, deadline=None, database=None)
    @given(parts=st.lists(_COMPONENT, min_size=1, max_size=4))
    def test_components_round_trip_bit_for_bit(self, parts, tmp_path_factory):
        total = sum(w for w, _, _ in parts)
        model = MixtureModel.from_parameters(
            [w / total for w, _, _ in parts], [b for _, b, _ in parts], [v for _, _, v in parts]
        )
        n = n_params_for_order(model.order)
        fit = FitResult(
            model=model, log_likelihood=-1.0, n_params=n, aic=aic(-1.0, n),
            sample_size=3, converged=True,
        )
        path = tmp_path_factory.mktemp("report") / "r.json"
        scan = ScanResult(fits=(fit,), best_index=0)
        write_report(path, build_report(scan, CountSample(np.array([1, 2, 2])), "not tested", {}, {}))
        loaded = model_from_dict(load_report(path)["components"])
        as_bits = lambda m: [(c.weight.hex(), c.scale.hex(), c.shape.hex()) for c in m.components]  # noqa: E731
        assert as_bits(loaded) == as_bits(model)


def test_numpy_integers_write_the_report_of_python_ints(tmp_path):
    # a numpy seed crashed every fit with an OverflowError at seed % 2**64,
    # and a numpy n_params came back as a dof that json cannot write
    data = CountSample(sample_mixture(unit_model(), 3000, seed=13))
    digests = []
    for to in (int, np.int64):
        config = FitConfig(starts=to(4), seed=to(0))
        scan = fitting.scan_orders(data, to(2), config)
        gof = chi_square_test(scan.best.model, data, to(scan.best.n_params), 0.01)
        path = tmp_path / f"{to.__name__}.json"
        write_report(path, build_report(scan, data, gof, {}, {**vars(config), "m_max": 2}))
        digests.append(_report_digest(path))
    assert digests[0] == digests[1]


@pytest.fixture(scope="module")
def unit_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("unit") / "unit.json"
    write_exact_report(unit_model(), sample_mixture(unit_model(), 1000, seed=13), path)
    return path


class TestArbitraryCountFiles:
    """Every command that reads a count file ends in exit 0, 1 or 2 on any
    file, never in a traceback."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(text=_TEXT, bad=st.sampled_from([None, None, b"\xff", b"\xc3(", b"\xed\xa0\x80"]))
    def test_count_commands_exit_cleanly(self, text, bad, unit_report):
        work = unit_report.parent
        counts = work / "any.counts"
        raw = text.encode("utf-8")
        if bad is not None:  # undecodable bytes past the first block of text
            raw = b"1\n" * (_READ_BLOCK // 2 + 1) + bad + raw
        counts.write_bytes(raw)
        fit_flags = ["--starts", "2", "--out", str(work / "any.json")]
        for argv in (
            ["scan", str(counts), "--m-max", "1", *fit_flags],
            ["fit", str(counts), "--m", "1", *fit_flags],
            ["gof", str(counts), str(unit_report)],
            ["ccdf", str(counts), str(unit_report), "--out", str(work / "any.tsv")],
        ):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], code, err.getvalue())
            assert "Traceback" not in err.getvalue()


# Log lines: rows of a small message log (three in four lines) mixed with
# arbitrary text.
_LOG_ROW = _ROW.map(lambda row: ",".join(map(str, row)))
_LOG_TEXT = st.lists(st.one_of(_LOG_ROW, _LOG_ROW, _LOG_ROW, _LINE), max_size=16).map("\n".join)


class TestArbitraryLogs:
    """replies ends in exit 0, 1 or 2 on any log under either rule, never in
    a traceback, and writes both outputs or neither."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        text=_LOG_TEXT,
        bad=st.sampled_from([None, None, b"\xff", b"\xc3(", b"\xed\xa0\x80"]),
        rule=st.sampled_from(["first-response", "exclusive"]),
        answered=st.booleans(),
    )
    def test_replies_exits_cleanly(self, text, bad, rule, answered, tmp_path_factory):
        work = tmp_path_factory.mktemp("replies")
        log = work / "any.csv"
        raw = text.encode("utf-8")
        if answered:  # one message with a reply, so that most of these logs succeed
            raw = b"0,x,y\n1,y,x\n" + raw
        if bad is not None:  # undecodable bytes past the first block of text
            raw = b"1,a,b\n2,b,a\n" * (_READ_BLOCK // 12 + 1) + bad + raw
        log.write_bytes(raw)
        delays, counts = work / "d.out", work / "c.out"
        argv = ["replies", str(log), "--rule", rule, "--out-delays", str(delays), "--out-counts", str(counts)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert delays.exists() == counts.exists() == (code == 0)


# Report JSON: a report with valid, arbitrary or missing components, or
# any JSON value, written as JSON text (NaN and Infinity included) or as
# text that is not JSON.
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_JSON = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _normalized(parts):
    total = sum(w for w, _, _ in parts)
    return [(w / total, b, v) for w, b, v in parts]


_VALID_PARTS = st.lists(_COMPONENT, min_size=1, max_size=4).map(_normalized)
_COMPONENTS_JSON = st.one_of(
    _VALID_PARTS.map(lambda parts: [{"c": c, "b": b, "v": v} for c, b, v in parts]),
    st.lists(st.fixed_dictionaries({"c": _JSON_SCALAR, "b": _JSON_SCALAR, "v": _JSON_SCALAR}), max_size=3),
    _JSON,
)
_REPORT_TEXT = st.one_of(
    st.fixed_dictionaries(
        {
            "schema_version": st.sampled_from([SCHEMA_VERSION, SCHEMA_VERSION, "lomaxmix/0"]),
            "components": _COMPONENTS_JSON,
        }
    ).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=8),
)
_ONE_COMPONENT_REPORT = json.dumps({"schema_version": SCHEMA_VERSION, "components": [{"c": 1.0, "b": 2.0, "v": 1.5}]})
# an inline model spec: valid triples, any float triples or any text
_MODEL_SPEC = st.one_of(
    _VALID_PARTS,
    st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1, max_size=3),
).map(lambda parts: ",".join(":".join(map(repr, part)) for part in parts)) | st.text(max_size=8)


def _exit_of(argv):
    """A command's exit code and standard error; argparse exits with 2 itself."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestArbitraryReports:
    """rank and simulate end in exit 0, 1 or 2 on any report and flags, with
    a message when they fail, never in a traceback."""

    # populations past the largest array numpy holds: 2**63 - 1 once gave an
    # empty table, the others a traceback
    _HUGE_POPULATIONS = [str(2**63 - 1), str(2**62), str(10**20)]
    # draw counts past the largest array numpy holds: each once ended in a traceback
    _HUGE_DRAWS = [str(2**60), str(2**62), str(2**63 - 1), str(10**20)]
    # a size within that bound whose 4 EiB array exceeds any address space,
    # so its allocation fails at once: it once ended in a traceback
    _UNALLOCATABLE = [str(2**59)]
    # populations at that bound, where np.arange once raised a traceback instead
    _UNALLOCATABLE_POPULATIONS = [*_UNALLOCATABLE, str(2**60 - 64), str(2**60 - 1)]

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        report=_REPORT_TEXT,
        population=st.one_of(
            st.integers(-2, 300).map(str), st.sampled_from(["x", *_HUGE_POPULATIONS, *_UNALLOCATABLE_POPULATIONS])
        ),
        component=st.one_of(st.integers(-2, 5).map(str), st.just("0.5")),
    )
    def test_rank_exits_cleanly(self, report, population, component, tmp_path_factory):
        rep = tmp_path_factory.mktemp("rank") / "any.json"
        rep.write_text(report, encoding="utf-8")
        out = rep.parent / "rank.tsv"
        argv = ["rank", str(rep), "--population", population, "--component", component, "--out", str(out)]
        code, err = _exit_of(argv)
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        assert (code == 0) == (err == "") == out.exists(), (code, err)

    @pytest.mark.parametrize("population", _HUGE_POPULATIONS)
    def test_rank_refuses_huge_populations(self, population, tmp_path):
        rep = tmp_path / "one.json"
        rep.write_text(_ONE_COMPONENT_REPORT, encoding="utf-8")
        out = tmp_path / "rank.tsv"
        code, err = _exit_of(["rank", str(rep), "--population", population, "--out", str(out)])
        assert code == 2
        assert f"population {population} exceeds" in err
        assert not out.exists()

    @pytest.mark.parametrize("n", _HUGE_DRAWS)
    def test_simulate_refuses_huge_draw_counts(self, n, tmp_path):
        out = tmp_path / "sim.counts"
        code, err = _exit_of(["simulate", "--model", "1:1:1", "-n", n, "--out", str(out)])
        assert code == 2
        assert f"n = {n} exceeds" in err
        assert not out.exists()

    @pytest.mark.parametrize("population", _UNALLOCATABLE_POPULATIONS)
    def test_rank_refuses_unallocatable_populations(self, population, tmp_path):
        rep = tmp_path / "one.json"
        rep.write_text(_ONE_COMPONENT_REPORT, encoding="utf-8")
        out = tmp_path / "rank.tsv"
        code, err = _exit_of(["rank", str(rep), "--population", population, "--out", str(out)])
        assert code == 2
        assert err.startswith("error: ") and "allocate" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("n", _UNALLOCATABLE)
    def test_simulate_refuses_unallocatable_draw_counts(self, n, tmp_path):
        out = tmp_path / "sim.counts"
        code, err = _exit_of(["simulate", "--model", "1:1:1", "-n", n, "--out", str(out)])
        assert code == 2
        assert err.startswith("error: ") and "allocate" in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "sim.counts.meta.json").exists()

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        report=st.none() | _REPORT_TEXT,
        model=st.none() | _MODEL_SPEC,
        n=st.one_of(
            st.integers(-2, 30).map(str), st.sampled_from(["x", *_HUGE_DRAWS, *_UNALLOCATABLE])
        ),
        seed=st.one_of(st.integers(), st.integers(2**63 - 2, 2**64 + 2)).map(str),
    )
    def test_simulate_exits_cleanly(self, report, model, n, seed, tmp_path_factory):
        work = tmp_path_factory.mktemp("simulate")
        argv = ["simulate", "-n", n, "--seed", seed, "--out", str(work / "sim.counts")]
        if report is not None:
            (work / "any.json").write_text(report, encoding="utf-8")
            argv += ["--from-report", str(work / "any.json")]
        if model is not None:
            argv += ["--model", model]
        code, err = _exit_of(argv)
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        assert (code == 0) == (err == "") == (work / "sim.counts").exists(), (code, err)
