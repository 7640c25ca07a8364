"""Message-log parsing, reply matching, discretization, count files."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import count_oracle
import log_oracle
import reply_oracle
from memory import peak_above
from lomaxmix import (
    CountSample,
    DegenerateDataError,
    DomainError,
    InputFormatError,
    LomaxMixError,
    MixtureModel,
    ReplyDelaySample,
    discretize,
    extract_reply_delays,
    load_counts,
    parse_message_log,
    sample_mixture,
    save_counts,
)
from lomaxmix import ingest
from lomaxmix.fitting import _TALLY
from lomaxmix.ingest import _READ_BLOCK, _WRITE_BLOCK, MessageLog, write_delays

# two answered conversations plus one message that never gets a reply
SIX_MESSAGE_LOG = [
    "0,alice,bob",
    "60,bob,alice",
    "100,carol,dave",
    "130,carol,dave",
    "200,dave,carol",
    "300,eve,frank",
]


def stream(lines):
    """A text stream of the lines, each ended by a line break."""
    return io.StringIO("".join(f"{line}\n" for line in lines))


def replies(lines, rule="first-response"):
    return extract_reply_delays(parse_message_log(stream(lines)), rule=rule)


class TestExtractReplyDelays:
    def test_simple_pair(self):
        sample = replies(["0,A,B", "100,B,A"])
        assert sorted(sample.delays) == [100.0]

    def test_one_reply_answers_two_messages(self):
        lines = ["0,A,B", "50,A,B", "100,B,A"]
        sample = replies(lines, rule="first-response")
        assert sorted(sample.delays) == [50.0, 100.0]
        exclusive = replies(lines, rule="exclusive")
        assert sorted(exclusive.delays) == [100.0]

    def test_six_message_fixture_both_rules(self):
        first = replies(SIX_MESSAGE_LOG, rule="first-response")
        assert sorted(first.delays) == [60.0, 70.0, 100.0]
        excl = replies(SIX_MESSAGE_LOG, rule="exclusive")
        assert sorted(excl.delays) == [60.0, 100.0]

    def test_row_order_invariance(self):
        # delays come out in (timestamp, sender, receiver) order of the
        # asking message whatever the row order, and are written that way
        rng = np.random.default_rng(4)
        base = replies(SIX_MESSAGE_LOG)
        assert base.delays.tolist() == [60.0, 100.0, 70.0]
        for _ in range(10):
            perm = list(SIX_MESSAGE_LOG)
            rng.shuffle(perm)
            assert replies(perm).delays.tolist() == base.delays.tolist()
        excl_base = replies(SIX_MESSAGE_LOG, rule="exclusive")
        for _ in range(10):
            perm = list(SIX_MESSAGE_LOG)
            rng.shuffle(perm)
            got = replies(perm, rule="exclusive")
            assert got.delays.tolist() == excl_base.delays.tolist()

    def test_delay_order_follows_the_rule(self):
        # first-response lists delays by the message they answer, exclusive
        # by the reply: A->B at 1 is answered at 4, C->D at 2 at 3
        lines = ["1,A,B", "2,C,D", "3,D,C", "4,B,A"]
        assert replies(lines).delays.tolist() == [3.0, 1.0]
        assert replies(lines, rule="exclusive").delays.tolist() == [1.0, 3.0]

    def test_self_messages_dropped_with_counter(self):
        sample = replies(["0,A,A", "1,A,B", "5,B,A"])
        assert sample.self_messages_dropped == 1
        assert sorted(sample.delays) == [4.0]

    def test_no_delays_is_an_error(self):
        for rule in ("first-response", "exclusive"):
            with pytest.raises(DegenerateDataError):
                replies(["0,A,B"], rule=rule)
            with pytest.raises(DegenerateDataError):
                replies(["0,A,A", "5,B,B"], rule=rule)  # no usable message

    def test_reply_requires_strictly_later_timestamp(self):
        sample = replies(["5,A,B", "5,B,A", "9,B,A"])
        # the t=5 reverse message cannot answer the t=5 original
        assert sorted(sample.delays) == [4.0]

    @pytest.mark.parametrize("rule", ["first-response", "exclusive"])
    def test_delay_across_the_whole_int64_range(self, rule, tmp_path):
        # the difference of the two int64 times is 2**64 - 1, beyond int64
        path = tmp_path / "extremes.csv"
        path.write_text(f"{-(2**63)},a,b\n{2**63 - 1},b,a\n")
        sample = extract_reply_delays(parse_message_log(path), rule=rule)
        assert sample.delays.tolist() == [float(2**64 - 1)]
        write_delays(tmp_path / "out.delays", sample)
        assert (tmp_path / "out.delays").read_text() == f"{float(2**64 - 1)!r}\n"

    def test_unknown_rule(self):
        with pytest.raises(DomainError):
            extract_reply_delays(parse_message_log(stream(SIX_MESSAGE_LOG)), rule="nearest")


# Small logs over few names with repeated timestamps and self-messages, so
# that ties, shared reverse pairs and self-messages all occur often; the
# names sort as "B" < "a" < "ab" < "b".
_NAME = st.sampled_from(["a", "b", "ab", "B"])
_ROW = st.tuples(st.integers(-3, 12), _NAME, _NAME)
# Long logs over three names and six timestamps: most messages share their
# timestamp with others, and FIFO queues grow long.
_TIED_ROW = st.tuples(st.integers(0, 5), st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"]))


def _assert_agrees_with_oracle(rows, rule):
    lines = [f"{t},{s},{r}" for t, s, r in rows]
    delays, self_dropped, unanswered = reply_oracle.reply_delays(rows, rule)
    try:
        sample = extract_reply_delays(parse_message_log(stream(lines)), rule=rule)
    except DegenerateDataError:
        assert delays == []
        return
    assert sample.delays.tolist() == delays
    assert sample.self_messages_dropped == self_dropped
    assert sample.messages_unanswered == unanswered
    # every usable message either got a delay or is counted unanswered
    assert sample.messages_unanswered == len(rows) - self_dropped - sample.delays.size


class TestMatchingOracle:
    """Both rules agree with the tuple/bisect/deque matcher of reply_oracle."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=st.lists(_ROW, min_size=1, max_size=40), rule=st.sampled_from(["first-response", "exclusive"]))
    def test_agrees_with_oracle(self, rows, rule):
        _assert_agrees_with_oracle(rows, rule)

    @settings(max_examples=150, deadline=None, database=None)
    @given(rows=st.lists(_TIED_ROW, min_size=1, max_size=200))
    def test_exclusive_on_ties_and_long_queues(self, rows):
        _assert_agrees_with_oracle(rows, "exclusive")

    @pytest.mark.parametrize("rule", ["first-response", "exclusive"])
    def test_conversation_keys_wider_than_16_bits(self, rule):
        # With 512 names a pair (a, b) has the key a * 512 + b, so the pairs
        # (a, 500) and (a + 128, 500) share their low 16 bits: the
        # conversation sort must take a second radix pass to part them.
        # Self-messages intern all 512 names.
        names = [f"u{i:03d}" for i in range(512)]
        rng = np.random.default_rng(5)
        rows = [(0, name, name) for name in names]
        for _ in range(400):
            a = int(rng.integers(0, 4)) + 128 * int(rng.integers(0, 2))
            pair = (names[a], names[500]) if rng.integers(2) else (names[500], names[a])
            rows.append((int(rng.integers(0, 60)), *pair))
        _assert_agrees_with_oracle(rows, rule)

    @pytest.mark.parametrize("rule", ["first-response", "exclusive"])
    def test_conversation_keys_past_int32(self, rule):
        # With 70,000 names the pair (a, b), a < b, has the key a * 70,000 + b.
        # The keys of (a, a + 20,000) and (a + 61,356, a + 67,296) differ by
        # 2**32 exactly, so built in int32 they would wrap onto one
        # conversation.  Every name sends itself a message.
        rng = np.random.default_rng(11)
        names = [f"u{i:05d}" for i in range(70_000)]
        rows = [(0, name, name) for name in names]
        for a in range(2_704):
            for pair in ((a, a + 20_000), (a + 61_356, a + 67_296)):
                for _ in range(3):
                    s, r = pair if rng.integers(2) else pair[::-1]
                    rows.append((int(rng.integers(0, 1_000)), names[s], names[r]))
        log = parse_message_log(stream([f"{t},{s},{r}" for t, s, r in rows]))
        assert log.senders.dtype == log.receivers.dtype == np.int32 and len(log.names) == 70_000
        sample = extract_reply_delays(log, rule=rule)
        delays, self_dropped, unanswered = reply_oracle.reply_delays(rows, rule)
        assert sample.delays.tolist() == delays
        assert (sample.self_messages_dropped, sample.messages_unanswered) == (self_dropped, unanswered)
        # a log built by hand with int64 ids gives the same
        wide = MessageLog(
            log.timestamps, log.senders.astype(np.int64), log.receivers.astype(np.int64), log.names, log.rows_read
        )
        widened = extract_reply_delays(wide, rule=rule)
        assert widened.delays.tolist() == delays
        assert (widened.self_messages_dropped, widened.messages_unanswered) == (self_dropped, unanswered)

    def test_exclusive_pops_nothing_within_one_timestamp(self):
        # a reply must be strictly later than the message it answers
        tied = [(5, "a", "b"), (5, "b", "a"), (5, "b", "a"), (5, "a", "b")]
        with pytest.raises(DegenerateDataError):
            replies([f"{t},{s},{r}" for t, s, r in tied], rule="exclusive")
        rows = tied + [(0, "c", "d"), (1, "d", "c")]
        sample = replies([f"{t},{s},{r}" for t, s, r in rows], rule="exclusive")
        assert sample.delays.tolist() == [1.0]
        assert sample.messages_unanswered == 5
        _assert_agrees_with_oracle(rows, "exclusive")

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        rows=st.lists(_ROW, min_size=2, max_size=40),
        rule=st.sampled_from(["first-response", "exclusive"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_order_does_not_matter(self, rows, rule, seed):
        lines = [f"{t},{s},{r}" for t, s, r in rows]
        shuffled = list(lines)
        np.random.default_rng(seed).shuffle(shuffled)
        outcomes = []
        for log in (lines, shuffled):
            try:
                sample = extract_reply_delays(parse_message_log(stream(log)), rule=rule)
            except DegenerateDataError:
                outcomes.append(None)
                continue
            outcomes.append(
                (sample.delays.tolist(), sample.self_messages_dropped, sample.messages_unanswered)
            )
        assert outcomes[0] == outcomes[1]


class TestWidePositions:
    """With the int32 limit lowered to 0, positions, counts and ids take the
    int64 path that logs of 2**31 messages or more take."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(rows=st.lists(_ROW, min_size=1, max_size=40), rule=st.sampled_from(["first-response", "exclusive"]))
    def test_agrees_with_oracle(self, rows, rule):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_INT32_SIZE", 0)
            assert ingest._index_type(1) is np.int64
            _assert_agrees_with_oracle(rows, rule)

    @pytest.mark.parametrize("rule", ["first-response", "exclusive"])
    def test_every_row_a_self_message(self, rule, monkeypatch):
        monkeypatch.setattr(ingest, "_INT32_SIZE", 0)
        with pytest.raises(DegenerateDataError, match="no reply delays"):
            replies(["1,a,a", "2,b,b"], rule=rule)


def _generated_log(rows: int, seed: int = 0) -> str:
    """A log of ``rows`` messages at random times, each way on Zipf-skewed
    pairs of 1,250 names; one row in 200 is a self-message."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1250, 5000)
    b = (a + rng.integers(1, 1250, 5000)) % 1250
    pair = (rng.zipf(1.3, rows) - 1) % 5000
    flip = rng.random(rows) < 0.5
    senders, receivers = np.where(flip, a[pair], b[pair]), np.where(flip, b[pair], a[pair])
    senders[::200] = receivers[::200]
    times = rng.integers(0, 10**7, rows)
    return "".join(f"{t},u{s},u{r}\n" for t, s, r in zip(times.tolist(), senders.tolist(), receivers.tolist()))


@pytest.fixture(scope="module")
def generated_log():
    return _generated_log(100_000)


class TestMemory:
    """Peak memory per message of parsing and extraction (tracemalloc, outputs
    included), on a 1e5-row generated log.  Measured: parsing 34.5 bytes per
    row, of which the log's columns take 16 (int64 timestamps, int32 ids);
    extraction 43 bytes per usable message under first-response and 55 under
    exclusive.  Also the peak of loading counts, which follows the block and
    the distinct values, not the file's length."""

    def test_parse_message_log_per_row(self, generated_log):
        log, peak = peak_above(parse_message_log, io.StringIO(generated_log))
        assert log.rows_read == 100_000
        assert peak / log.rows_read < 40
        assert sum(c.nbytes for c in (log.timestamps, log.senders, log.receivers)) == 16 * log.rows_read

    def test_load_counts_per_value(self, tmp_path):
        # 2.3 bytes per value (2.2 MiB) at K = 14,450: a block's parse and the tally
        # (12.4 when the values were joined into one int64 array before the tally)
        path = tmp_path / "wide.counts"
        save_counts(path, sample_mixture(MixtureModel.from_parameters([0.7, 0.3], [5.0, 500.0], [0.9, 1.3]), 10**6, 0))
        loaded, peak = peak_above(load_counts, path)
        assert loaded.sample.size == 10**6
        assert peak / loaded.sample.size < 4

    def test_load_counts_of_a_long_file_with_few_distinct_values(self, tmp_path):
        # 2.3 MiB for 2e6 counts of 10 values, a block's parse; 23 MiB when the values were joined
        path = tmp_path / "few.counts"
        save_counts(path, np.tile(np.arange(1, 11), 200_000))
        loaded, peak = peak_above(load_counts, path)
        assert loaded.sample.ks.tolist() == list(range(1, 11))
        assert loaded.sample.counts.tolist() == [200_000] * 10
        assert peak < 4 * 2**20

    @staticmethod
    def _extraction_peak_per_usable_message(generated_log, rule):
        log = parse_message_log(io.StringIO(generated_log))
        usable = log.rows_read - 500
        sample, peak = peak_above(extract_reply_delays, log, rule)
        assert sample.self_messages_dropped == 500 and sample.delays.size > usable // 2
        return peak / usable

    @pytest.mark.parametrize(("rule", "bound"), [("first-response", 55), ("exclusive", 75)])
    def test_extract_reply_delays_per_usable_message(self, generated_log, rule, bound):
        # the ceilings held when ids were int64 and the exclusive shift was
        # applied per conversation
        assert self._extraction_peak_per_usable_message(generated_log, rule) < bound

    @pytest.mark.parametrize(("rule", "bound"), [("first-response", 50), ("exclusive", 60)])
    def test_extract_reply_delays_on_int32_ids_per_usable_message(self, generated_log, rule, bound):
        # int32 ids and one shifted int64 array per direction
        assert self._extraction_peak_per_usable_message(generated_log, rule) < bound


class TestRowErrorTally:
    """The first 1,000 row errors are kept with their line numbers and the
    rest only counted, so a file of bad rows (a log read with the wrong
    delimiter) costs one block's parse, 2.0 MB measured, not the 170 bytes a
    row that keeping every error takes (5.4 MB at 30,000 rows)."""

    @pytest.mark.parametrize("bad", [10_000, 30_000])
    def test_message_log(self, bad, tmp_path):
        path = tmp_path / "log"
        path.write_text("".join(f"{i};a;b\n" for i in range(bad)) + "0,a,b\n")
        log, peak = peak_above(parse_message_log, path)
        assert log.row_errors == tuple((i, "expected 3 fields, got 1") for i in range(1, 1_001))
        assert (log.rows_read, log.dropped, log.timestamps.size) == (bad + 1, bad, 1)
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("bad", [10_000, 30_000])
    def test_count_file(self, bad, tmp_path):
        path = tmp_path / "counts"
        path.write_text("".join(f"x{i}\n" for i in range(bad)) + "7\n")
        result, peak = peak_above(load_counts, path)
        assert result.row_errors == tuple((i, f"non-integer count 'x{i - 1}'") for i in range(1, 1_001))
        assert (result.rows_read, result.dropped, result.sample.size) == (bad + 1, bad, 1)
        assert peak < 3 * 2**20


def _reference_lines(values, fmt) -> bytes:
    """The writers' output in its direct form: ``fmt`` of each value,
    joined one block of values at a time."""
    blocks = (values[i : i + _WRITE_BLOCK].tolist() for i in range(0, values.size, _WRITE_BLOCK))
    return b"".join(("\n".join(map(fmt, block)) + "\n").encode("ascii") for block in blocks)


_COUNT = st.one_of(
    st.integers(1, 2**63 - 1), st.integers(1, 1000), st.sampled_from([1, 9, 10, 99, 100, 2**63 - 1])
)
_DELAY = st.one_of(
    st.floats(0.0, 1e300),
    st.integers(0, 2**64).map(float),
    st.integers(0, 10**6).map(float),
    st.sampled_from([0.0, -0.0, 0.5, 1e16, 1e16 - 2, float(2**53 + 1), float(2**64 - 1)]),
)


class TestWriters:
    """save_counts and write_delays write what str and repr print."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(counts=st.lists(_COUNT, min_size=1, max_size=50), delays=st.lists(_DELAY, min_size=1, max_size=50))
    def test_bytes_equal_str_and_repr(self, counts, delays, tmp_path_factory):
        path = tmp_path_factory.mktemp("writers") / "out"
        counts = np.array(counts, dtype=np.int64)
        save_counts(path, counts)
        assert path.read_bytes() == _reference_lines(counts, str)
        reply = ReplyDelaySample(delays=np.array(delays))
        write_delays(path, reply)
        assert path.read_bytes() == _reference_lines(reply.delays, repr)

    @pytest.mark.parametrize("size", [_WRITE_BLOCK, _WRITE_BLOCK + 1])
    @pytest.mark.parametrize("odd_at", [None, 0, -1])
    def test_block_edges(self, tmp_path, size, odd_at):
        # the last value may fall in a block of its own; one value that
        # repr prints another way sends only its block down the repr path
        counts = np.arange(1, size + 1, dtype=np.int64) * 997
        delays = counts.astype(float)
        if odd_at is not None:
            delays[odd_at] = 0.5
            counts[odd_at] = 2**63 - 1
        save_counts(tmp_path / "c", counts)
        assert (tmp_path / "c").read_bytes() == _reference_lines(counts, str)
        write_delays(tmp_path / "d", ReplyDelaySample(delays=delays))
        assert (tmp_path / "d").read_bytes() == _reference_lines(delays, repr)


class TestDiscretize:
    def test_clamp_and_ceiling(self):
        sample = ReplyDelaySample(
            delays=np.array([0.0, 60.0, 61.0, 3599.0]), discretization=60.0
        )
        counts = discretize(sample)
        assert counts.dtype == np.int64 and counts.tolist() == [1, 1, 2, 60]

    def test_positive_step_required(self):
        with pytest.raises(DomainError):
            ReplyDelaySample(delays=np.array([1.0]), discretization=0.0)

    @pytest.mark.parametrize("dt", [float("inf"), float("nan")])
    def test_finite_step_required(self, dt):
        with pytest.raises(DomainError, match="dt"):
            ReplyDelaySample(delays=np.array([1.0]), discretization=dt)

    # 2**62 / 0.5 is 2**63, one past int64; 1e-20 puts a 60 s delay past
    # int64, and the smallest float step past the float range
    @pytest.mark.parametrize("delay, dt", [(2.0**62, 0.5), (60.0, 1e-20), (60.0, 5e-324)])
    def test_count_past_int64_refused(self, delay, dt):
        sample = ReplyDelaySample(delays=np.array([0.0, delay]), discretization=dt)
        with pytest.raises(DomainError, match="dt"):
            discretize(sample)

    def test_largest_counts_kept(self):
        sample = ReplyDelaySample(delays=np.array([2.0**62, 2.0**63 - 1024]), discretization=1.0)
        assert discretize(sample).tolist() == [2**62, 2**63 - 1024]


class TestParseMessageLog:
    def test_parses_and_tallies(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,a,b\nbroken line\n7,b,a\n")
        log = parse_message_log(path)
        assert log.rows_read == 3
        assert log.dropped == 1
        assert log.row_errors[0][0] == 2
        assert log.timestamps.size == 2

    def test_columns_intern_names_in_name_order(self):
        log = parse_message_log(stream(["9, zed ,amy", "3,amy,bob", "", "4,bob,zed"]))
        assert log.names == ("amy", "bob", "zed")
        assert log.timestamps.dtype == np.int64
        assert log.timestamps.tolist() == [9, 3, 4]
        assert log.senders.tolist() == [2, 0, 1]
        assert log.receivers.tolist() == [0, 1, 2]
        assert log.rows_read == 3

    def test_header_and_delimiter(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("ts;from;to\n0;a;b\n9;b;a\n")
        log = parse_message_log(path, delimiter=";", header=True)
        assert log.timestamps.size == 2

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
        assert log.timestamps.size + log.dropped == log.rows_read

    def test_timestamp_outside_int64_is_row_error(self):
        lines = [f"{2**63},a,b", f"{2**63 - 1},b,a", f"{-(2**63) - 1},a,b", f"{-(2**63)},a,b"]
        log = parse_message_log(stream(lines))
        assert log.timestamps.tolist() == [2**63 - 1, -(2**63)]
        assert log.row_errors == (
            (1, f"timestamp {2**63} out of range"),
            (3, f"timestamp {-(2**63) - 1} out of range"),
        )
        with pytest.raises(InputFormatError):
            parse_message_log(stream([f"{2**64},a,b"]))

    @pytest.mark.parametrize("delimiter", ["", "\n", ",\r"])
    def test_delimiter_must_not_be_empty_or_break_lines(self, delimiter):
        with pytest.raises(DomainError):
            parse_message_log(stream(SIX_MESSAGE_LOG), delimiter=delimiter)


class TestCountFiles:
    def test_load_with_unit_ids(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("siteA,5\nsiteB,1\n")
        result = load_counts(path)
        assert result.sample.ks.tolist() == [1, 5] and result.sample.counts.tolist() == [1, 1]
        assert result.dropped == 0

    def test_zero_count_is_row_error(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("siteA,5\nsiteC,0\nsiteB,1\n")
        result = load_counts(path)
        assert result.sample.ks.tolist() == [1, 5] and result.sample.counts.tolist() == [1, 1]
        assert result.dropped == 1
        assert result.row_errors[0][0] == 2

    def test_bare_counts_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        values = rng.integers(1, 10**6, size=10**5)
        path = tmp_path / "big.counts"
        save_counts(path, values)
        assert path.read_bytes() == _reference_lines(values, str)
        loaded = load_counts(path).sample
        want_ks, want_counts = np.unique(values, return_counts=True)
        assert np.array_equal(loaded.ks, want_ks) and np.array_equal(loaded.counts, want_counts)

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


# Count lines the fast block path must leave to the row parser or convert
# exactly as it does: zero, signs, underscores and non-ASCII digits (int()
# takes the last three), counts either side of the int64 limit, comments,
# unit ids, padding that str.strip() removes and int() rejects ("\x1c"),
# two counts on one line, unit ids with padding, several commas, an empty
# id or count, a zero or a 19-digit count, two lines in one, non-ASCII
# unit ids (inside, at either end, alone), non-ASCII padding that
# str.strip() removes (U+00A0, U+3000) and arbitrary text.
_ODD_COUNT = st.sampled_from(
    ["0", "007", "+4", "-3", "1_0", "\u0663", "\x1c5\x1c", " 5 ", "5 6", "5\x1c6", "", "#", "# 5",
     "a,5", "a,0", "5,", "1\n2", "# x\n5", str(2**63 - 1), str(2**63), "9" * 19, "1" + "0" * 19,
     "9" * 20, "1" * 5000, "u1,5", "u,1,5", "u1, 5", "u1,5 ", ",5", "u1,", "u1,0", "u1,007",
     "u1," + "9" * 19, "u1," + "1" + "0" * 18, "#u1,5", "\u00e9,5", "s\u00fcd,5", "\u00e9u,5",
     "u\u00e9,5", "u1,\u00e95", "\u00a05", "5\u00a0", "\u30005\u3000", "u1,\u00a05", "u1\u3000,5"]
)
_COUNT_LINE = st.one_of(st.integers(1, 10**6).map(str), _ODD_COUNT, _LINE)


def _edge(kind: str, line: str, eol: str) -> int:
    """The number of lines of ``line`` that end the first block: a block
    holds _READ_BLOCK characters, after newline translation for a path."""
    return _READ_BLOCK // (len(line) + (1 if kind == "path" else len(eol)))


def _sources(kind: str, text: str, tmp_path_factory):
    """A function returning a new source of ``text`` of the given kind at each call."""
    if kind == "stringio":
        return lambda: io.StringIO(text)
    path = tmp_path_factory.mktemp("input") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    return lambda: path


@st.composite
def _count_input(draw):
    """(kind, file text) of a count input; the drawn lines may sit just
    before, across or just after the end of the first block."""
    kind = draw(st.sampled_from(["path", "stringio"]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    filler = draw(st.sampled_from(["12", "123456", "1234567890123", "u7,12"]))
    drawn = draw(st.lists(_COUNT_LINE, min_size=1, max_size=4))
    before = _edge(kind, filler, eol) + draw(st.integers(-2, 2)) if draw(st.booleans()) else 0
    after = draw(st.sampled_from([0, 2]))
    lines = [filler] * before + drawn + [filler] * after
    return kind, eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _outcome(source):
    """load_counts's distinct values, their counts, rows read and row errors, or the type of its error."""
    try:
        result = load_counts(source)
    except LomaxMixError as exc:
        return type(exc)
    return result.sample.ks.tolist(), result.sample.counts.tolist(), result.rows_read, result.row_errors


def _oracle_outcome(source):
    """The same of count_oracle, its values tallied by np.unique."""
    try:
        values, rows_read, row_errors = count_oracle.load_counts(source)
    except LomaxMixError as exc:
        return type(exc)
    ks, counts = np.unique(values, return_counts=True)
    return ks.tolist(), counts.tolist(), rows_read, row_errors


class TestCountOracle:
    """load_counts agrees with the row-by-row loader of count_oracle."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(case=_count_input())
    def test_agrees_with_oracle(self, case, tmp_path_factory):
        sources = _sources(*case, tmp_path_factory)
        assert _outcome(sources()) == _oracle_outcome(sources())

    @pytest.mark.parametrize("kind", ["path", "stringio"])
    def test_as_many_non_digits_as_lines(self, kind, tmp_path_factory):
        # a comma is one of the two non-digits, and the last line has no line break
        sources = _sources(kind, "12\n3,4", tmp_path_factory)
        assert _outcome(sources()) == _oracle_outcome(sources())
        assert _outcome(sources())[:2] == ([4, 12], [1, 1])

    def test_tally_grows_across_blocks(self, tmp_path):
        # each block holds a larger count than the blocks before it, below, at and past _TALLY
        path = tmp_path / "growing.counts"
        tops = [5, 300, _TALLY - 1, _TALLY, 2 * _TALLY, 7]
        path.write_text("".join(f"{top}\n2\n" * (_READ_BLOCK // 8) for top in tops))
        assert _outcome(path) == _oracle_outcome(path)
        assert _outcome(path)[0] == sorted({2, *tops})
        # the constructor's slabs of the same values build the same sample
        values, _, _ = count_oracle.load_counts(path)
        built = CountSample(values)
        assert _outcome(path)[:2] == (built.ks.tolist(), built.counts.tolist())

    @pytest.mark.parametrize("text", ["\ud800,5\n7\n", "u\udfff1,3\n\ud800\n", "5\n" * 3 + "\udc00"])
    def test_lone_surrogates_in_a_stream(self, text):
        # a stream's text need not be valid UTF-8; its lone surrogates are read as they stand
        assert _outcome(io.StringIO(text)) == _oracle_outcome(io.StringIO(text))

    @pytest.mark.parametrize("at", [-1, 0, 1])
    def test_bad_byte_near_the_first_block_end(self, tmp_path, at):
        # a 0xff byte decodes to nothing, at any position
        raw = bytearray(b"12\n" * (_READ_BLOCK // 3 + 5))
        raw[_READ_BLOCK + at] = 0xFF
        path = tmp_path / "bad.counts"
        path.write_bytes(bytes(raw))
        with pytest.raises(InputFormatError, match="not UTF-8"):
            load_counts(path)
        with pytest.raises(InputFormatError, match="not UTF-8"):
            count_oracle.load_counts(path)

    def test_row_errors_keep_absolute_line_numbers(self, tmp_path):
        lines = ["7"] * (3 * _READ_BLOCK // 2) + ["# note", "x", "0"] + ["7"] * 10
        path = tmp_path / "c.counts"
        path.write_text("\n".join(lines))
        result = load_counts(path)
        first = 3 * _READ_BLOCK // 2 + 2
        assert result.row_errors == ((first, "non-integer count 'x'"), (first + 1, "count must be >= 1, got 0"))
        assert result.rows_read == len(lines) - 1
        assert result.sample.size == len(lines) - 3


# Log rows, written with "," for the delimiter, that the block path must
# leave to the row parser or convert exactly as it does: blank lines,
# padding that str.strip() removes at each field's ends ("\x1c", U+00A0
# and U+3000 too), empty fields, 2 and 4 fields, signs, underscores and
# non-ASCII digits (int() takes them), 18- and 19-digit timestamps, the
# int64 limits, names with inner spaces, names with non-ASCII letters
# inside, alone or at either end, a header-like row, a self-message, a
# carriage return and two rows in one.
_ODD_ROW = st.sampled_from(
    ["", " ", "5,a,b", " 5,a,b", "5 ,a,b", "5, a,b", "5,a ,b", "5,a, b", "5,a,b ", "5,a,b\x1c",
     "\x1c5,a,b", "5,\x1ca,b", "5,,b", "5,a,", ",a,b", "5,a", "5,a,b,c", "+5,a,b", "-5,a,b", "1_0,a,b",
     "\u0663,a,b", "5,\u00e9,b", "5,a b,c d", "9" * 18 + ",a,b", "9" * 19 + ",a,b", "1" + "0" * 18 + ",a,b",
     f"{2**63 - 1},a,b", f"{2**63},a,b", f"{-(2**63)},a,b", "ts,from,to", "5,a,a", "007,a,b", "5,a,b\r",
     "1\n2,a,b", "5,a,b\n6,b,a", "5,j\u00fcrgen,zo\u00ebl", "5,\u65e5\u672c\u8a9e,b", "5,\u00e9a,b",
     "5,a\u00e9,b", "5,a,\u00e9b", "5,a,b\u00e9", "5,\u00a0a,b", "5,a\u00a0,b", "5,a,b\u3000",
     "\u30005,a,b", "5\u00a0,a,b", "5,\u3000,b"]
)
# ",", ";", tab and space; a digit, several characters and a non-ASCII
# character (the fillers hold no 9, so only the drawn rows see the digit)
_LOG_DELIMITER = st.sampled_from([",", ";", "\t", " ", "9", "::", "\u00a6"])
_LOG_FILLER = ["1600000000,ann,bob", "12,x,y", "12345678012,carol,dave"]


@st.composite
def _log_input(draw):
    """(kind, file text, delimiter, header) of a message log; the drawn
    rows may sit just before, across or just after the end of the first
    block."""
    kind = draw(st.sampled_from(["path", "stringio"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    delimiter = draw(_LOG_DELIMITER)
    filler = draw(st.sampled_from(_LOG_FILLER)).replace(",", delimiter)
    drawn = [row.replace(",", delimiter) for row in draw(st.lists(_ODD_ROW, min_size=1, max_size=4))]
    before = _edge(kind, filler, eol) + draw(st.integers(-2, 2)) if draw(st.booleans()) else 0
    after = draw(st.sampled_from([0, 2]))
    lines = [filler] * before + drawn + [filler] * after
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return kind, text, delimiter, draw(st.booleans())


def _log_outcome(parse, source, delimiter, header):
    try:
        log = parse(source, delimiter=delimiter, header=header)
    except LomaxMixError as exc:
        return type(exc)
    columns = (log.timestamps, log.senders, log.receivers)
    return [(c.dtype, c.tolist()) for c in columns], log.names, log.rows_read, log.row_errors


class TestLogOracle:
    """parse_message_log agrees with the row-by-row parser of log_oracle."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=_log_input())
    def test_agrees_with_oracle(self, case, tmp_path_factory):
        kind, text, delimiter, header = case
        sources = _sources(kind, text, tmp_path_factory)
        ours = _log_outcome(parse_message_log, sources(), delimiter, header)
        assert ours == _log_outcome(log_oracle.parse_message_log, sources(), delimiter, header)

    @pytest.mark.parametrize("text", ["5,a\ud800b,c\n6,c,a\ud800b\n", "5,\udfff,\ud800\n", "5,a,b\ud800"])
    def test_lone_surrogates_in_a_stream(self, text):
        # a stream's text need not be valid UTF-8; its lone surrogates stay in the names
        ours = _log_outcome(parse_message_log, io.StringIO(text), ",", False)
        assert ours == _log_outcome(log_oracle.parse_message_log, io.StringIO(text), ",", False)
        assert any("\ud800" in name or "\udfff" in name for name in ours[1])

    def test_clean_non_ascii_rows_skip_the_row_parser(self, monkeypatch):
        # non-ASCII letters inside a name or at its edge leave a row clean;
        # a character that str.strip() removes at a name's edge flags it
        parsed = []

        def counting_log_rows(lines, *args):
            lines = list(lines)
            parsed.extend(lineno for lineno, _ in lines)
            return log_rows(lines, *args)

        log_rows = ingest._log_rows
        monkeypatch.setattr(ingest, "_log_rows", counting_log_rows)
        clean = [
            "1,j\u00fcrgen,zo\u00ebl", "2,zo\u00ebl,j\u00fcrgen", "3,x\u65e5\u672cy,a b", "4,\u00fca,b\u00fc",
            "5,a\u00fc,\u00fcb",
        ]
        # U+00A0, U+2000 and U+3000 at either edge of either name
        flagged = [
            f"{6 + 4 * j + i},{(space + 'a', 'a' + space, 'a', 'a')[i]},{('b', 'b', space + 'b', 'b' + space)[i]}"
            for j, space in enumerate(["\u00a0", "\u2000", "\u3000"])
            for i in range(4)
        ]
        ours = _log_outcome(parse_message_log, stream(clean + flagged), ",", False)
        assert parsed == list(range(6, 6 + len(flagged)))
        assert ours == _log_outcome(log_oracle.parse_message_log, stream(clean + flagged), ",", False)
        assert ours[1] == (
            "a", "a b", "a\u00fc", "b", "b\u00fc", "j\u00fcrgen", "x\u65e5\u672cy", "zo\u00ebl", "\u00fca", "\u00fcb"
        )
        assert ours[3] == ()
