"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import json
import warnings

import numpy as np
import pytest

from lomaxmix import (
    FitResult,
    MixtureModel,
    aic,
    log_likelihood,
    sample_mixture,
    save_counts,
)
from lomaxmix import fitting
from lomaxmix.cli import main
from lomaxmix.fitting import ScanResult, n_params_for_order
from lomaxmix.report import build_report, load_report, strip_timestamps, write_report


def unit_model():
    return MixtureModel.from_parameters([1.0], [1.0], [1.0])


def write_exact_report(model, data, path):
    """A fit report whose components are exactly the given model."""
    ll = log_likelihood(model, data)
    n = n_params_for_order(model.order)
    fit = FitResult(
        model=model,
        log_likelihood=ll,
        n_params=n,
        aic=aic(ll, n),
        sample_size=data.size,
        converged=True,
        starts_used=1,
        seed=0,
    )
    scan = ScanResult(fits=(fit,), best_index=0)
    write_report(path, build_report(scan, data))


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
        assert "rows dropped     1" in capsys.readouterr().out


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
        assert report["config"]["alpha"] == 0.001
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

    def test_negative_seeds_get_their_own_streams(self, tmp_path, monkeypatch):
        # both streams' fits converge to one optimum well within this cap, so
        # the streams are observed in the starts each seed draws
        real = fitting._minimize
        drawn = []

        def recorder(fun, x, *args):
            drawn.append(x.copy())
            return real(fun, x, *args)

        monkeypatch.setattr(fitting, "_minimize", recorder)
        model = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
        counts = tmp_path / "two.counts"
        save_counts(counts, sample_mixture(model, 2000, seed=0))
        for seed in ("-1", "-2"):
            out = tmp_path / f"fit{seed}.json"
            argv = ["fit", str(counts), "--m", "2", "--starts", "4", "--max-evals", "100",
                    "--seed", seed, "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0
        assert len(drawn) == 2
        # the moment start is shared; every jittered start differs
        assert np.array_equal(drawn[0][0], drawn[1][0])
        assert not (drawn[0][1:] == drawn[1][1:]).all(axis=1).any()

    def test_gof_subcommand(self, tmp_path, capsys):
        data = sample_mixture(unit_model(), 10**4, seed=4)
        counts = tmp_path / "h.counts"
        save_counts(counts, data)
        rep = tmp_path / "h.json"
        write_exact_report(unit_model(), data, rep)
        code = main(["gof", str(counts), str(rep), "--alpha", "0.1", "--n-params", "0"])
        assert code == 0
        assert "not rejected" in capsys.readouterr().out


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

    def test_bad_population(self, tmp_path):
        model = unit_model()
        data = sample_mixture(model, 1000, seed=11)
        rep = tmp_path / "rr.json"
        write_exact_report(model, data, rep)
        assert main(["rank", str(rep), "-l", "0"]) == 2


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
            (["--max-evals", "0"], "max_evals must be >= 1"),
            (["--tol", "nan"], "tol must be finite and > 0"),
        ],
        ids=["starts-0", "max-evals-0", "tol-nan"],
    )
    def test_bad_fit_config_exit_2(self, tmp_path, capsys, flags, message):
        counts = tmp_path / "c.counts"
        save_counts(counts, sample_mixture(unit_model(), 1000, seed=13))
        argv = ["scan", str(counts), "--m-max", "1", "--out", str(tmp_path / "r.json"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

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
            for defect in ("no_components", "array", "non_numeric")
        ]
        + [("gof", "no_n_params")],  # only gof reads n_params from the report
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
        assert capsys.readouterr().err.startswith("error: ")
