"""Turning raw logs and count files into samples.

Reply delays come from timestamped directed-message logs.  Two matching
rules are provided:

* ``first-response`` (default): the delay of a message A->B at t1 is
  t2 - t1 for the earliest B->A message with t2 > t1; one reply may
  answer several prior messages.  Delays follow the asking messages.
* ``exclusive``: replies are consumed FIFO, each answering at most one
  pending message.  Delays follow the replies.

Both sort messages by (timestamp, sender, receiver), whatever the row
order, and drop self-messages with a counter.  Logs and count files
are read from a path or a text stream as UTF-8 text, a block of lines at
a time.  Parsing fills int64 columns, with sender and receiver names
interned to int ids; it never discards rows silently: malformed rows
are tallied with their line numbers and processing continues.
"""

from __future__ import annotations

import contextlib
import math
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DegenerateDataError, DomainError, InputFormatError
from .fitting import CountSample

__all__ = [
    "ReplyDelaySample",
    "MessageLog",
    "CountLoadResult",
    "REPLY_RULES",
    "parse_message_log",
    "extract_reply_delays",
    "discretize",
    "load_counts",
    "save_counts",
    "write_delays",
]

REPLY_RULES = ("first-response", "exclusive")

DEFAULT_DISCRETIZATION = 60.0  # seconds per count unit

_MAX_COUNT = np.iinfo(np.int64).max  # counts are held as int64
_MIN_TIMESTAMP, _MAX_TIMESTAMP = -(2**63), 2**63 - 1  # timestamps are held as int64
_WRITE_BLOCK = 65_536  # values formatted per write
_READ_BLOCK = 65_536  # characters of text read per block of whole lines
_FAST_DIGITS = 18  # a run of at most 18 decimal digits fits int64
_INT32_SIZE = 2**31  # fewer items than this take int32 positions, counts and ids
# the bytes that may start and end a character that str.strip() removes: the
# ASCII ones, and in UTF-8 U+0085, U+00A0, U+1680, U+2000-U+200A, U+2028,
# U+2029, U+202F, U+205F and U+3000
_STRIPPED_FIRST = np.zeros(256, dtype=bool)
_STRIPPED_FIRST[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_STRIPPED_LAST = _STRIPPED_FIRST.copy()
_STRIPPED_FIRST[[0xC2, 0xE1, 0xE2, 0xE3]] = True
_STRIPPED_LAST[[*range(0x80, 0x8B), 0x9F, 0xA0, 0xA8, 0xA9, 0xAF]] = True


def _check_dt(dt: float) -> None:
    """Refuse a discretization step that is not finite and > 0; the CLI calls this before it parses a log."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"discretization dt must be finite and > 0, got {dt!r}")


@dataclass(frozen=True)
class ReplyDelaySample:
    """Reply delays in seconds plus extraction diagnostics."""

    delays: np.ndarray
    discretization: float = DEFAULT_DISCRETIZATION
    rule: str = "first-response"
    self_messages_dropped: int = 0
    messages_unanswered: int = 0

    def __post_init__(self) -> None:
        d = np.asarray(self.delays, dtype=float)
        if np.any(d < 0.0) or not np.all(np.isfinite(d)):
            raise DomainError("delays must be finite and >= 0")
        _check_dt(self.discretization)
        object.__setattr__(self, "delays", d)


@dataclass(frozen=True)
class MessageLog:
    """Parsed rows as columns plus a per-row error tally (line number, reason).

    Parsed row i is a message at ``timestamps[i]`` (int64 seconds) from
    ``names[senders[i]]`` to ``names[receivers[i]]``.  ``names`` is sorted,
    so the ids order as the names do.
    """

    timestamps: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    names: tuple[str, ...]
    rows_read: int
    row_errors: tuple[tuple[int, str], ...] = ()

    @property
    def dropped(self) -> int:
        return len(self.row_errors)


@dataclass(frozen=True)
class CountLoadResult:
    """A loaded count sample plus its per-row error tally."""

    sample: CountSample
    rows_read: int
    row_errors: tuple[tuple[int, str], ...] = ()

    @property
    def dropped(self) -> int:
        return len(self.row_errors)


def parse_message_log(
    source,
    delimiter: str = ",",
    header: bool = False,
) -> MessageLog:
    """Parse timestamp/sender/receiver rows from a path or a text stream of UTF-8 text.

    Blank lines are skipped; every other row is either parsed or tallied
    as a row error.  The delimiter may not contain a line break, so only
    the receiver field can carry the line's end, which stripping removes.
    Rows that ``_log_rows`` would take as they stand are converted a block
    at a time; it parses the others, among them every row whose name may
    start or end in a character that stripping removes.
    """
    if not delimiter or "\n" in delimiter or "\r" in delimiter:
        raise DomainError(f"delimiter must be non-empty without line breaks, got {delimiter!r}")
    # name -> id, in order of first appearance: a new name gets the next id
    ids: defaultdict[str, int] = defaultdict(lambda: len(ids))
    errors: list[tuple[int, str]] = []
    none = np.empty(0, dtype=np.int32)
    columns = [(none.astype(np.int64), none, none)]  # (timestamps, sender ids, receiver ids) per block
    lineno = 0  # lines before the current block
    for block in _read_blocks(source):
        block_columns, lines = _log_block(block, lineno, header and not lineno, delimiter, ids, errors)
        columns.append(block_columns)
        lineno += lines
    times, senders, receivers = (np.concatenate(c) for c in zip(*columns))
    del columns
    rows = times.size + len(errors)
    if rows == 0:
        raise InputFormatError("message log contains no rows")
    if not times.size:
        raise InputFormatError(f"no parseable rows out of {rows}")
    # renumber the ids in name order
    first_seen = list(ids)
    by_name = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    renumber = np.empty(len(first_seen), dtype=np.int64)
    renumber[by_name] = np.arange(len(first_seen))
    senders = renumber[senders]
    receivers = renumber[receivers]
    return MessageLog(
        timestamps=times,
        senders=senders,
        receivers=receivers,
        names=tuple(first_seen[i] for i in by_name),
        rows_read=rows,
        row_errors=tuple(errors),
    )


def _log_block(block, lineno: int, skip: bool, delimiter: str, ids, errors: list):
    """Parse the rows of a block after line ``lineno``, skipping its first line if ``skip``.

    Returns the (timestamp, sender id, receiver id) columns in line order
    and the block's line count; row errors go to ``errors``.  The ids are
    int32 while every name seen by the block's end fits it.  With a
    one-character ASCII delimiter, the clean lines (see
    ``_clean_log_lines``) are decoded run by run, take one ``split`` and are
    converted column by column; every other line goes through ``_log_rows``.
    """
    data, starts, ends = block
    if len(delimiter) == 1 and delimiter.isascii():
        clean = _clean_log_lines(data, starts, ends, ord(delimiter))
    else:
        clean = np.zeros(starts.size, dtype=bool)
    clean[0] &= not skip
    n = int(np.count_nonzero(clean))
    id_type = _index_type(len(ids) + 2 * clean.size)  # a row brings at most two new names
    columns = [np.empty(0, dtype=np.int64), *[np.empty(0, dtype=id_type)] * 2]
    if n:
        # runs of clean lines, as [first, past last) line pairs
        bounds = np.flatnonzero(np.diff(clean, prepend=False, append=False)).reshape(-1, 2)
        text = "\n".join(_texts(data, starts[bounds[:, 0]], ends[bounds[:, 1] - 1]))
        fields = text.replace("\n", delimiter).split(delimiter)
        # one C-level lookup of the 2n >= 2 names, which returns a tuple
        names = itemgetter(*fields[1 : 3 * n : 3], *fields[2 : 3 * n : 3])(ids)
        times = np.array(fields[0 : 3 * n : 3], dtype=np.int64)
        columns = times, *np.array(names, dtype=id_type).reshape(2, n)
    flagged = np.flatnonzero(~clean)[skip:]
    lines = zip((flagged + lineno + 1).tolist(), _texts(data, starts[flagged], ends[flagged]))
    rows = _log_rows(lines, delimiter, ids, errors)
    if rows:
        at, *row_columns = np.array(rows, dtype=np.int64).T
        place = np.searchsorted(np.flatnonzero(clean), at - lineno - 1)  # clean rows before each
        columns = [np.insert(c, place, r) for c, r in zip(columns, row_columns)]
    return columns, clean.size


def _clean_log_lines(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, delimiter: int):
    """Whether each line of UTF-8 bytes is a row that ``_log_rows`` takes as it stands.

    Such a line has exactly two delimiters, a timestamp of 1 to 18 ASCII
    digits (so it fits int64), and a non-empty sender and receiver with
    no character that ``str.strip`` removes at either end: their first
    and last bytes are not among those that may start and end such a
    character (``_STRIPPED_FIRST``, ``_STRIPPED_LAST``).
    """
    at = np.flatnonzero(data == delimiter)
    # where each line's first delimiter, then the block's end, falls in `at`
    first_at = np.searchsorted(at, np.append(starts, ends[-1]))
    clean = np.diff(first_at) == 2
    lines = np.flatnonzero(clean)
    start, end = starts[lines], ends[lines]
    first, second = at[first_at[lines]], at[first_at[lines] + 1]
    # the bytes other than 0-9, then the end of the data
    nondigits = np.append(np.flatnonzero(data - np.uint8(48) > 9), data.size)
    width = first - start
    ok = (width >= 1) & (width <= _FAST_DIGITS) & (nondigits[np.searchsorted(nondigits, start)] >= first)
    ok &= (second - first > 1) & (end - second > 1)
    # the names' first and last bytes; the receiver's first is past the data when it is empty
    ok &= ~_STRIPPED_FIRST[data[np.stack([first + 1, np.minimum(second + 1, data.size - 1)])]].any(axis=0)
    ok &= ~_STRIPPED_LAST[data[np.stack([second - 1, end - 1])]].any(axis=0)
    clean[lines] = ok
    return clean


def _log_rows(numbered_lines, delimiter: str, ids, errors: list) -> list[tuple[int, int, int, int]]:
    """Parse (line number, line) pairs as rows: (line number, timestamp, sender id, receiver id) each.

    Blank lines are skipped; other rows that do not parse go to ``errors``.
    """
    rows = []
    for lineno, raw in numbered_lines:
        parts = raw.split(delimiter)
        if len(parts) != 3:
            if raw.strip():
                errors.append((lineno, f"expected 3 fields, got {len(parts)}"))
            continue
        ts, sender, receiver = parts
        ts = ts.strip()
        try:
            ts = int(ts)
        except ValueError:
            if raw.strip():  # a blank line fails here or above
                errors.append((lineno, f"bad timestamp {ts!r}"))
            continue
        if not _MIN_TIMESTAMP <= ts <= _MAX_TIMESTAMP:
            errors.append((lineno, f"timestamp {ts} out of range"))
            continue
        sender = sender.strip()
        receiver = receiver.strip()
        if not sender or not receiver:
            errors.append((lineno, "empty sender or receiver"))
            continue
        rows.append((lineno, ts, ids[sender], ids[receiver]))
    return rows


def extract_reply_delays(
    log: MessageLog,
    rule: str = "first-response",
    discretization: float = DEFAULT_DISCRETIZATION,
) -> ReplyDelaySample:
    """Extract reply delays from a parsed message log.

    Self-messages are dropped (counted); messages that never see a later
    reverse-direction message contribute nothing.  Delays come out in
    (timestamp, sender, receiver) order, whatever the row order: of the
    message they answer under first-response, of the reply under
    exclusive.  An empty result raises, since downstream fitting has
    nothing to work with.  Each array is dropped after its last use, and
    positions are int32 below ``_INT32_SIZE`` messages.
    """
    if rule not in REPLY_RULES:
        raise DomainError(f"rule must be one of {REPLY_RULES}, got {rule!r}")
    usable = log.senders != log.receivers
    self_dropped = int(usable.size - np.count_nonzero(usable))
    order = _tuple_order(log.timestamps, log.senders, log.receivers)
    order = order[usable[order]]  # the usable messages in tuple order
    del usable
    times, senders, receivers = log.timestamps[order], log.senders[order], log.receivers[order]
    del order
    forward = senders < receivers
    # the conversation: the pair of ids a < b as the key a * width + b,
    # which fits int64 while there are fewer than 3e9 names
    conversation = np.minimum(senders, receivers)
    conversation *= len(log.names)
    conversation += np.maximum(senders, receivers, out=senders)
    del senders, receivers
    by_conversation, *conversations = _conversations(times, conversation, forward)
    del times, conversation, forward
    at = np.empty_like(by_conversation, dtype=_index_type(by_conversation.size))
    at[by_conversation] = np.arange(at.size, dtype=at.dtype)  # the sorted position of each message in tuple order
    del by_conversation
    match = _first_responses if rule == "first-response" else _exclusive_responses
    matched, gaps = match(*conversations)
    del conversations
    at = at[matched[at]]
    delays = gaps[at].astype(float)
    if not delays.size:
        raise DegenerateDataError("no reply delays could be extracted")
    return ReplyDelaySample(
        delays=delays,
        discretization=discretization,
        rule=rule,
        self_messages_dropped=self_dropped,
        messages_unanswered=int(matched.size - delays.size),
    )


def _index_type(size: int):
    """The integer type of positions and counts up to ``size``: int32 below ``_INT32_SIZE``."""
    return np.int32 if size < _INT32_SIZE else np.int64


def _tuple_order(times, senders, receivers):
    """The permutation that sorts messages by (timestamp, sender, receiver).

    Sort by time alone, then re-sort by all three keys only the messages
    that share a timestamp: with few ties that is far cheaper than a
    three-key lexsort.  Messages equal in all three keys are
    interchangeable, so the time sort need not be stable.
    """
    order = np.argsort(times)
    sorted_times = times[order]
    tie = sorted_times[1:] == sorted_times[:-1]
    del sorted_times
    shared = np.zeros(times.size, dtype=bool)
    shared[1:] = tie
    shared[:-1] |= tie
    at = np.flatnonzero(shared)
    tied = order[at]
    order[at] = tied[np.lexsort((receivers[tied], senders[tied], times[tied]))]
    return order


def _conversations(times, conversation, forward):
    """Sort messages stably by their conversation key.

    Returns the permutation and, per sorted message, its time, whether it
    goes from a to b, whether it starts a run (the messages of its
    conversation at its time) and whether it starts a conversation.
    """
    # stable radix passes over the key's 16-bit digits, which numpy sorts in linear time
    digit = conversation.astype(np.uint16)
    order = np.argsort(digit, kind="stable")
    for shift in range(16, int(conversation.max(initial=0)).bit_length(), 16):
        np.take((conversation >> shift).astype(np.uint16), order, out=digit)
        order = order[np.argsort(digit, kind="stable")]
    del digit
    key = conversation[order]
    new_conversation = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new_conversation[1:])
    del key
    times = times[order]
    new_run = new_conversation.copy()
    new_run[1:] |= times[1:] != times[:-1]
    return order, times, forward[order], new_run, new_conversation


def _first_responses(times, forward, new_run, new_conversation):
    """Whether each message has a later reply, and the gap to the first one.

    A message's reply is the first message in the other direction of its
    conversation past its run.  The gaps are uint64: a reply is later
    than its message, so the difference of the int64 times is exact even
    where it exceeds the int64 range.
    """
    index_type = _index_type(times.size)
    past_run = _next_at(new_run, index_type)[1:]  # the first position past each message's run
    reply = np.where(forward, _next_at(~forward, index_type)[past_run], _next_at(forward, index_type)[past_run])
    del past_run
    found = reply < _next_at(new_conversation, index_type)[1:]  # before the next conversation
    reply[~found] = 0
    gaps = times[reply].view(np.uint64)
    gaps -= times.view(np.uint64)
    return found, gaps


def _next_at(mask, dtype):
    """For each position p in 0..len(mask), the first q >= p with mask[q], else len(mask)."""
    nearest = np.arange(mask.size + 1, dtype=dtype)
    nearest[:-1][~mask] = mask.size
    backward = nearest[::-1]
    np.minimum.accumulate(backward, out=backward)
    return nearest


def _exclusive_responses(times, forward, new_run, new_conversation):
    """Whether each message answers a pending one FIFO, and the gap to it.

    A message pops the oldest pending message of the other direction of
    its conversation if that one is strictly earlier, then is pushed.  So
    for the i-th message of a direction of a conversation, with e_i the
    other direction's messages before its run, the pops up to it are
    P_i = min(e_i, P_(i-1) + 1) = i + min(0, min_(l<=i) e_l - l), a
    cumulative minimum that each conversation starts over.  It pops where
    P_i > P_(i-1), and answers the other direction's P_i-th message.
    """
    n = times.size
    index_type = _index_type(n)
    first = np.flatnonzero(new_conversation).astype(index_type)  # each conversation's first position
    segment = np.cumsum(new_conversation, dtype=index_type)  # each message's conversation
    segment -= 1
    run_start = np.arange(n, dtype=index_type)  # the first position of each message's run
    run_start[~new_run] = 0
    np.maximum.accumulate(run_start, out=run_start)
    ahead = np.zeros(n + 1, dtype=index_type)  # forward messages before each position
    np.cumsum(forward, dtype=index_type, out=ahead[1:])
    matched, gaps = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.uint64)
    for own, count in ((forward, lambda at: at - ahead[at]), (~forward, ahead.__getitem__)):
        mine = np.flatnonzero(own).astype(index_type)
        start = first[segment[mine]]
        their_first = count(start)  # count: their messages before given positions
        index = np.arange(1, mine.size + 1, dtype=index_type)  # 1-based within the conversation
        index -= start
        index += their_first
        del start
        earlier = count(run_start[mine])
        earlier -= their_first
        earlier -= index
        shift = np.multiply(segment[mine], 2 * n + 1, dtype=np.int64)  # puts each conversation's e_l - l
        lowest = earlier - shift  # below the one before
        del earlier
        np.minimum.accumulate(lowest, out=lowest)
        lowest += shift
        del shift
        opens = index == 1  # the first message of its direction in the conversation
        pops = index  # i + min(0, lowest), in place of i
        del index
        pops += np.minimum(lowest, 0, out=lowest)
        del lowest
        pop = np.empty(mine.size, dtype=bool)  # P_i > P_(i-1), with P_0 = 0
        np.greater(pops[1:], pops[:-1], out=pop[1:])
        pop[opens] = pops[opens] > 0
        reply, answered = mine[pop], np.flatnonzero(~own)[their_first[pop] + pops[pop] - 1]
        del mine, their_first, pops, pop, opens
        matched[reply] = True
        gaps[reply] = times[reply].view(np.uint64) - times[answered].view(np.uint64)
    return matched, gaps


def discretize(sample: ReplyDelaySample) -> np.ndarray:
    """Map delays to int64 counts k = max(1, ceil(delay / dt)), in delay order; support starts at 1.

    A count that int64 cannot hold raises: dt is too small for the delays.
    """
    with np.errstate(over="ignore"):  # a quotient past the float range is inf, refused below
        k = sample.delays / sample.discretization
    np.ceil(k, out=k)
    if np.any(k >= 2.0**63):  # the smallest float past int64
        raise DomainError(
            f"dt = {sample.discretization!r} s gives a count past {_MAX_COUNT} for a delay of "
            f"{float(sample.delays.max())!r} s"
        )
    return np.maximum(k, 1, out=k).astype(np.int64)


def _read_blocks(source):
    """Yield a path's or a text stream's lines a block at a time, as ``_lines`` gives them.

    A block is about ``_READ_BLOCK`` characters of text ending in a line
    break, except that the input's last line may lack one.  A path is read
    as UTF-8 with universal newlines; a stream (anything with ``read``)
    is read as it is, split at "\n" only, and left open.
    """
    stream = hasattr(source, "read")
    try:
        with contextlib.nullcontext(source) if stream else open(source, encoding="utf-8") as fh:
            pieces: list[str] = []  # the text after the last line break read so far
            while chunk := fh.read(_READ_BLOCK):
                end = chunk.rfind("\n") + 1
                if not end:
                    pieces.append(chunk)
                    continue
                pieces.append(chunk[:end])
                yield _lines("".join(pieces))
                pieces = [chunk[end:]]
            tail = "".join(pieces)  # a last line without a line break
            if tail:
                yield _lines(tail)
    except OSError as exc:
        raise InputFormatError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{source} is not UTF-8 text: {exc}") from exc


def _lines(text: str):
    """A block's UTF-8 bytes and each line's start and end (its line break).

    A stream's lone surrogates are encoded as they stand ("surrogatepass"),
    and ``_texts`` decodes them back.
    """
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero(data == 10)
    if data[-1] != 10:  # the input's last line may lack a line break
        ends = np.append(ends, data.size)
    return data, np.append(0, ends[:-1] + 1), ends


def _texts(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The text of each byte range [start, end) of a block of ``_lines``."""
    raw = data.tobytes()
    return [raw[a:b].decode("utf-8", "surrogatepass") for a, b in zip(starts.tolist(), ends.tolist())]


def load_counts(source) -> CountLoadResult:
    """Load a count file, from a path or a text stream of UTF-8 text:
    ``unit_id,count`` rows or one bare count per line.

    Blank lines and lines starting with ``#`` are skipped.  Zero, negative
    or non-integer counts are row errors (the support starts at k = 1);
    they are tallied with line numbers and skipped.  A block in which
    every line is a count the row parser would take as it stands (see
    ``_block_counts``) is converted with numpy; any other block is parsed
    row by row.  Each block's counts go to ``CountSample._from_blocks`` as
    they are parsed, so the file's values are never held whole.
    """
    errors: list[tuple[int, str]] = []
    sample = CountSample._from_blocks(_count_columns(source, errors))
    rows = sample.size + len(errors)  # every row is a count or an error
    if rows == 0:
        raise InputFormatError("count file contains no rows")
    if not sample.size:
        raise DegenerateDataError(f"no usable counts out of {rows} rows")
    return CountLoadResult(sample=sample, rows_read=rows, row_errors=tuple(errors))


def _count_columns(source, errors: list[tuple[int, str]]):
    """Yield the int64 counts of each block of ``source``, adding its row errors to ``errors``."""
    lineno = 0  # lines before the current block
    for data, starts, ends in _read_blocks(source):
        column = _block_counts(data, starts, ends)
        if column is None:
            column = _count_rows(_texts(data, starts, ends), lineno, errors)
        yield column
        del column  # not held while the next block is parsed, which raised the load's resident peak
        lineno += starts.size


def _block_counts(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """A block's counts as int64, or None unless ``_count_rows`` takes every line as it stands.

    That is a block without ``#`` in which every line ends in a run of 1
    to 18 ASCII digits of value >= 1, alone or after the line's last comma.
    """
    if np.any(data == ord("#")):
        return None
    # the last byte other than 0-9 before each line's end, or -1
    nondigits = np.flatnonzero(data - np.uint8(48) > 9)
    if np.array_equal(nondigits, ends):  # the line breaks are the block's only non-digits
        last = np.append(-1, ends[:-1])
    else:
        last = np.append(-1, nondigits)[np.searchsorted(nondigits, ends)]
    run = ends - last - 1
    if run.min() < 1 or run.max() > _FAST_DIGITS or np.any((last >= starts) & (data[last] != ord(","))):
        return None
    counts = np.zeros(ends.size, dtype=np.int64)
    at = ends.copy()
    for place in range(int(run.max())):  # add each line's digit `place` places from its end
        at -= 1  # a short line's position may wrap below 0; its digit is masked
        digits = data[at]
        digits -= ord("0")
        digits[run <= place] = 0
        counts += digits * np.int64(10**place)
    return counts if counts.min() >= 1 else None


def _count_rows(lines, lineno: int, errors: list) -> np.ndarray:
    """Parse count rows after line ``lineno`` into their usable counts; row errors go to ``errors``."""
    values: list[int] = []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        token = line.rsplit(",", 1)[-1].strip() if "," in line else line
        try:
            count = int(token)
        except ValueError:
            errors.append((lineno, f"non-integer count {token!r}"))
            continue
        if count < 1:
            errors.append((lineno, f"count must be >= 1, got {count}"))
            continue
        if count > _MAX_COUNT:
            errors.append((lineno, f"count {count} exceeds {_MAX_COUNT}"))
            continue
        values.append(count)
    return np.array(values, dtype=np.int64)


def save_counts(path, counts: np.ndarray) -> None:
    """Write an int array of counts, one per line (the bare-count file format)."""
    _write_lines(path, np.asarray(counts, dtype=np.int64))


def write_delays(path, sample: ReplyDelaySample) -> None:
    """Write one delay (seconds) per line, as ``repr`` prints it."""
    _write_lines(path, sample.delays)


def _write_lines(path, values: np.ndarray) -> None:
    """Write ``str`` of each int, or ``repr`` of each float, one per line.

    A block of ints, or of non-negative integral floats below 1e16 (which
    ``repr`` prints as ``<int>.0``), is written from a grid of digits.
    """
    with open(path, "wb") as fh:
        for start in range(0, values.size, _WRITE_BLOCK):
            block = values[start : start + _WRITE_BLOCK]
            if block.dtype.kind == "i":
                fh.write(_digit_lines(block, b"\n"))
            elif np.all((block == np.floor(block)) & (block < 1e16) & ~np.signbit(block)):
                fh.write(_digit_lines(block.astype(np.int64), b".0\n"))
            else:
                fh.write(("\n".join(map(repr, block.tolist())) + "\n").encode("ascii"))


def _digit_lines(values: np.ndarray, suffix: bytes) -> bytes:
    """The decimal digits of each non-negative int64 value followed by ``suffix``, as ASCII."""
    width = len(str(values.max()))
    grid = np.empty((values.size, width + len(suffix)), dtype=np.uint8)
    grid[:, width:] = np.frombuffer(suffix, dtype=np.uint8)
    keep = np.ones(grid.shape, dtype=bool)  # False on the leading zeros
    rest = values
    for column in range(width - 1, -1, -1):
        keep[:, column] = (rest > 0) | (column == width - 1)
        # rest % 10 as rest - 10 * (rest // 10): int64 `%` misses the fast constant-divisor path of `//`
        tens = rest // 10
        digit = tens * -10
        digit += rest
        digit += ord("0")
        grid[:, column] = digit
        rest = tens
    return grid[keep].tobytes()
