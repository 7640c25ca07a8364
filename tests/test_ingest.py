"""Message-log parsing, reply matching, discretization, count files."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lomaxmix import (
    CountSample,
    DegenerateDataError,
    DomainError,
    InputFormatError,
    LomaxMixError,
    MessageEvent,
    ReplyDelaySample,
    discretize,
    extract_reply_delays,
    load_counts,
    parse_message_log,
    save_counts,
)

# two answered conversations plus one message that never gets a reply
SIX_MESSAGE_LOG = [
    MessageEvent(0, "alice", "bob"),
    MessageEvent(60, "bob", "alice"),
    MessageEvent(100, "carol", "dave"),
    MessageEvent(130, "carol", "dave"),
    MessageEvent(200, "dave", "carol"),
    MessageEvent(300, "eve", "frank"),
]


class TestExtractReplyDelays:
    def test_simple_pair(self):
        events = [MessageEvent(0, "A", "B"), MessageEvent(100, "B", "A")]
        sample = extract_reply_delays(events)
        assert sorted(sample.delays) == [100.0]

    def test_one_reply_answers_two_messages(self):
        events = [
            MessageEvent(0, "A", "B"),
            MessageEvent(50, "A", "B"),
            MessageEvent(100, "B", "A"),
        ]
        sample = extract_reply_delays(events, rule="first-response")
        assert sorted(sample.delays) == [50.0, 100.0]
        exclusive = extract_reply_delays(events, rule="exclusive")
        assert sorted(exclusive.delays) == [100.0]

    def test_six_message_fixture_both_rules(self):
        first = extract_reply_delays(SIX_MESSAGE_LOG, rule="first-response")
        assert sorted(first.delays) == [60.0, 70.0, 100.0]
        excl = extract_reply_delays(SIX_MESSAGE_LOG, rule="exclusive")
        assert sorted(excl.delays) == [60.0, 100.0]

    def test_row_order_invariance(self):
        # delays come out in (timestamp, sender, receiver) order of the
        # asking message whatever the row order, and are written that way
        rng = np.random.default_rng(4)
        base = extract_reply_delays(SIX_MESSAGE_LOG)
        assert base.delays.tolist() == [60.0, 100.0, 70.0]
        for _ in range(10):
            perm = list(SIX_MESSAGE_LOG)
            rng.shuffle(perm)
            assert extract_reply_delays(perm).delays.tolist() == base.delays.tolist()
        excl_base = extract_reply_delays(SIX_MESSAGE_LOG, rule="exclusive")
        for _ in range(10):
            perm = list(SIX_MESSAGE_LOG)
            rng.shuffle(perm)
            got = extract_reply_delays(perm, rule="exclusive")
            assert got.delays.tolist() == excl_base.delays.tolist()

    def test_self_messages_dropped_with_counter(self):
        events = [
            MessageEvent(0, "A", "A"),
            MessageEvent(1, "A", "B"),
            MessageEvent(5, "B", "A"),
        ]
        sample = extract_reply_delays(events)
        assert sample.self_messages_dropped == 1
        assert sorted(sample.delays) == [4.0]

    def test_no_delays_is_an_error(self):
        with pytest.raises(DegenerateDataError):
            extract_reply_delays([MessageEvent(0, "A", "B")])

    def test_reply_requires_strictly_later_timestamp(self):
        events = [MessageEvent(5, "A", "B"), MessageEvent(5, "B", "A"), MessageEvent(9, "B", "A")]
        sample = extract_reply_delays(events)
        # the t=5 reverse message cannot answer the t=5 original
        assert sorted(sample.delays) == [4.0]

    def test_unknown_rule(self):
        with pytest.raises(DomainError):
            extract_reply_delays(SIX_MESSAGE_LOG, rule="nearest")


class TestDiscretize:
    def test_clamp_and_ceiling(self):
        sample = ReplyDelaySample(
            delays=np.array([0.0, 60.0, 61.0, 3599.0]), discretization=60.0
        )
        counts = discretize(sample)
        assert list(counts.values) == [1, 1, 2, 60]

    def test_positive_step_required(self):
        with pytest.raises(DomainError):
            ReplyDelaySample(delays=np.array([1.0]), discretization=0.0)


class TestParseMessageLog:
    def test_parses_and_tallies(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,a,b\nbroken line\n7,b,a\n")
        log = parse_message_log(path)
        assert log.rows_read == 3
        assert log.dropped == 1
        assert log.row_errors[0][0] == 2
        assert len(log.events) == 2

    def test_header_and_delimiter(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("ts;from;to\n0;a;b\n9;b;a\n")
        log = parse_message_log(path, delimiter=";", header=True)
        assert len(log.events) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputFormatError):
            parse_message_log(path)

    def test_dropped_rows_reconcile(self, tmp_path):
        path = tmp_path / "log.csv"
        rows = ["0,a,b", "x,y", "5,b,a", "zz,a,b", "9,a,b"]
        path.write_text("\n".join(rows) + "\n")
        log = parse_message_log(path)
        assert log.rows_read == len(rows)
        assert len(log.events) + log.dropped == log.rows_read


class TestCountFiles:
    def test_load_with_unit_ids(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("siteA,5\nsiteB,1\n")
        result = load_counts(path)
        assert sorted(result.sample.values) == [1, 5]
        assert result.dropped == 0

    def test_zero_count_is_row_error(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("siteA,5\nsiteC,0\nsiteB,1\n")
        result = load_counts(path)
        assert sorted(result.sample.values) == [1, 5]
        assert result.dropped == 1
        assert result.row_errors[0][0] == 2

    def test_bare_counts_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        values = rng.integers(1, 10**6, size=10**5)
        sample = CountSample(values)
        path = tmp_path / "big.counts"
        save_counts(path, sample)
        loaded = load_counts(path)
        assert np.array_equal(loaded.sample.values, sample.values)

    def test_weighted_save_expands(self, tmp_path):
        sample = CountSample(np.array([3, 7]), weights=np.array([2, 1]))
        path = tmp_path / "w.counts"
        save_counts(path, sample)
        assert path.read_text() == "3\n3\n7\n"

    def test_empty_and_all_bad(self, tmp_path):
        empty = tmp_path / "e.counts"
        empty.write_text("")
        with pytest.raises(InputFormatError):
            load_counts(empty)
        bad = tmp_path / "b.counts"
        bad.write_text("x,0\ny,-3\n")
        with pytest.raises(DegenerateDataError):
            load_counts(bad)


# Lines of arbitrary text, mixed with integers (any, and either side of the
# int64 limit) and comma-joined fields, so both readers reach their checks.
_INTEGER = st.one_of(st.integers(), st.integers(2**63 - 2, 2**64))
_FIELD = st.one_of(_INTEGER.map(str), st.text(max_size=6))
_LINE = st.one_of(st.text(), _FIELD, st.lists(_FIELD, max_size=4).map(",".join))
_TEXT = st.lists(_LINE, max_size=12).map("\n".join)


class TestArbitraryInput:
    """Any text ends in a result or a package error, never another exception."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(text=_TEXT)
    def test_load_counts(self, text):
        try:
            load_counts(io.StringIO(text))
        except LomaxMixError:
            pass

    @settings(max_examples=150, deadline=None, database=None)
    @given(text=_TEXT, delimiter=st.one_of(st.just(","), st.text(max_size=3)), header=st.booleans())
    def test_parse_message_log(self, text, delimiter, header):
        try:
            parse_message_log(io.StringIO(text), delimiter=delimiter, header=header)
        except LomaxMixError:
            pass
