"""Turning raw logs and count files into samples.

Reply delays come from timestamped directed-message logs.  Two matching
rules are provided:

* ``first-response`` (default): the delay of a message A->B at t1 is
  t2 - t1 for the earliest B->A message with t2 > t1; one reply may
  answer several prior messages.
* ``exclusive``: replies are consumed FIFO, each answering at most one
  pending message.

Both are order-independent (messages are sorted internally) and drop
self-messages with a counter.  Parsing streams the lines into int64
columns, with sender and receiver names interned to int ids; it never
discards rows silently: malformed rows are tallied with their line
numbers and processing continues.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from pathlib import Path

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
_WRITE_BLOCK = 65_536  # values joined into one string per write
_READ_BLOCK = 65_536  # characters of text read per block of whole lines
# deletes every character a block of bare counts may hold
_DIGITS_AND_BREAKS = str.maketrans("", "", "0123456789\n")


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
        if not self.discretization > 0.0:
            raise DomainError(f"discretization must be > 0, got {self.discretization!r}")
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
    """Parse timestamp/sender/receiver rows from a path or line iterable.

    Blank lines are skipped; every other row is either parsed or tallied
    as a row error.  The delimiter may not contain a line break, so only
    the receiver field can carry the line's end, which stripping removes.
    """
    if not delimiter or "\n" in delimiter or "\r" in delimiter:
        raise DomainError(f"delimiter must be non-empty without line breaks, got {delimiter!r}")
    times: list[int] = []
    senders: list[int] = []
    receivers: list[int] = []
    # name -> id, in order of first appearance: a new name gets the next id
    ids: defaultdict[str, int] = defaultdict(lambda: len(ids))
    errors: list[tuple[int, str]] = []
    lines = enumerate(_iter_lines(source), start=1)
    if header:
        next(lines, None)
    for lineno, raw in lines:
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
        times.append(ts)
        senders.append(ids[sender])
        receivers.append(ids[receiver])
    rows = len(times) + len(errors)
    if rows == 0:
        raise InputFormatError("message log contains no rows")
    if not times:
        raise InputFormatError(f"no parseable rows out of {rows}")
    # renumber the ids in name order
    first_seen = list(ids)
    by_name = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    renumber = np.empty(len(first_seen), dtype=np.int64)
    renumber[by_name] = np.arange(len(first_seen))
    return MessageLog(
        timestamps=np.array(times, dtype=np.int64),
        senders=renumber[senders],
        receivers=renumber[receivers],
        names=tuple(first_seen[i] for i in by_name),
        rows_read=rows,
        row_errors=tuple(errors),
    )


def extract_reply_delays(
    log: MessageLog,
    rule: str = "first-response",
    discretization: float = DEFAULT_DISCRETIZATION,
) -> ReplyDelaySample:
    """Extract reply delays from a parsed message log.

    Self-messages are dropped (counted); messages that never see a later
    reverse-direction message contribute nothing.  Delays come out in
    (timestamp, sender, receiver) order of the message they answer,
    whatever the row order.  An empty result raises, since downstream
    fitting has nothing to work with.
    """
    if rule not in REPLY_RULES:
        raise DomainError(f"rule must be one of {REPLY_RULES}, got {rule!r}")
    usable = log.senders != log.receivers
    self_dropped = int(usable.size - np.count_nonzero(usable))
    times = log.timestamps[usable]
    senders = log.senders[usable]
    receivers = log.receivers[usable]
    order = _tuple_order(times, senders, receivers)
    times, senders, receivers = times[order], senders[order], receivers[order]
    # a pair of ids (a, b) becomes the int key a * width + b, which fits
    # int64 while there are fewer than 3e9 names
    width = len(log.names)
    if rule == "first-response":
        answered, gaps = _first_responses(times, senders, receivers, width)
        delays = gaps[answered].astype(float)
        unanswered = int(answered.size - delays.size)
    else:
        delays, unanswered = _exclusive_responses(
            times, senders * width + receivers, receivers * width + senders
        )
    if not delays.size:
        raise DegenerateDataError("no reply delays could be extracted")
    return ReplyDelaySample(
        delays=delays,
        discretization=discretization,
        rule=rule,
        self_messages_dropped=self_dropped,
        messages_unanswered=unanswered,
    )


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
    shared = np.zeros(times.size, dtype=bool)
    shared[1:] = tie
    shared[:-1] |= tie
    at = np.flatnonzero(shared)
    tied = order[at]
    order[at] = tied[np.lexsort((receivers[tied], senders[tied], times[tied]))]
    return order


def _first_responses(times, senders, receivers, width):
    """Whether each message has a later reply, and the gap to the first one.

    The messages come in time order.  Sorted stably by conversation (the
    unordered pair), each conversation's messages stay in time order; a
    message's reply is the first message in the other direction past the
    run of messages at its own time.  A run that spills into the next
    conversation does so only where the message's own conversation has
    no later message.  The gaps are uint64: a reply is later than its
    message, so the difference of the int64 times is exact even where it
    exceeds the int64 range.
    """
    n = times.size
    conversation = np.minimum(senders, receivers) * width + np.maximum(senders, receivers)
    by_conversation = np.argsort(conversation, kind="stable")
    conversation = conversation[by_conversation]
    times = times[by_conversation]
    forward = (senders < receivers)[by_conversation]
    new_run = np.empty(n, dtype=bool)
    new_run[:1] = True
    new_run[1:] = times[1:] != times[:-1]
    # first position past each message's run; n past the last run
    past_run = np.append(np.flatnonzero(new_run)[1:], n)[np.cumsum(new_run) - 1]
    reply = np.where(forward, _next_at(~forward)[past_run], _next_at(forward)[past_run])
    found = reply < n
    reply[~found] = 0
    found &= conversation[reply] == conversation
    answered = np.empty(n, dtype=bool)
    answered[by_conversation] = found
    gaps = np.empty(n, dtype=np.uint64)
    gaps[by_conversation] = times[reply].view(np.uint64) - times.view(np.uint64)
    return answered, gaps


def _next_at(mask):
    """For each position p in 0..len(mask), the first q >= p with mask[q], else len(mask)."""
    n = mask.size
    nearest = np.where(mask, np.arange(n), n)
    return np.minimum.accumulate(np.append(nearest, n)[::-1])[::-1]


def _exclusive_responses(times, pair, reverse):
    """FIFO matching over time-ordered messages: (delays, messages left pending)."""
    pending: dict[int, deque[int]] = defaultdict(deque)
    gaps: list[int] = []
    for ts, key, reverse_key in zip(times.tolist(), pair.tolist(), reverse.tolist()):
        queue = pending.get(reverse_key)
        if queue and ts > queue[0]:
            gaps.append(ts - queue.popleft())
        pending[key].append(ts)
    return np.array(gaps, dtype=float), sum(map(len, pending.values()))


def discretize(sample: ReplyDelaySample) -> CountSample:
    """Map delays to counts k = max(1, ceil(delay / dt)); support starts at 1."""
    k = np.maximum(1, np.ceil(sample.delays / sample.discretization)).astype(np.int64)
    return CountSample(k)


def _read_blocks(source):
    """Yield a path's text, or a line iterable's items, a block of whole lines at a time.

    A block is text of about ``_READ_BLOCK`` characters ending in a line
    break, except that the input's last line may lack one.  A path is read
    as UTF-8 with universal newlines.  An iterable's items are its lines;
    a block of items that are not all single lines (an item with a line
    break before its end) is yielded as the list of items instead.
    """
    if not isinstance(source, (str, Path)):
        items: list[str] = []
        size = 0
        for item in source:
            items.append(item)
            size += len(item)
            if size >= _READ_BLOCK:
                yield _join_lines(items)
                items, size = [], 0
        if items:
            yield _join_lines(items)
        return
    try:
        with open(source, "r", encoding="utf-8") as fh:
            pieces: list[str] = []  # the text after the last line break read so far
            while chunk := fh.read(_READ_BLOCK):
                end = chunk.rfind("\n") + 1
                if not end:
                    pieces.append(chunk)
                    continue
                pieces.append(chunk[:end])
                yield "".join(pieces)
                pieces = [chunk[end:]]
            tail = "".join(pieces)  # a last line without a line break
            if tail:
                yield tail
    except OSError as exc:
        raise InputFormatError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{source} is not UTF-8 text: {exc}") from exc


def _join_lines(items: list[str]):
    """The items as one block of text if each is a single line, else the items."""
    text = "\n".join(item[:-1] if item.endswith("\n") else item for item in items) + "\n"
    return text if text.count("\n") == len(items) else items


def _block_lines(block) -> list[str]:
    """The lines of a block, without their line breaks."""
    if isinstance(block, list):
        return block
    lines = block.split("\n")
    if not lines[-1]:  # the block ends in a line break
        lines.pop()
    return lines


def _iter_lines(source):
    """Yield the lines of a path, or of any other iterable, one at a time."""
    for block in _read_blocks(source):
        yield from _block_lines(block)


def load_counts(source) -> CountLoadResult:
    """Load a count file: ``unit_id,count`` rows or one bare count per line.

    Blank lines and lines starting with ``#`` are skipped.  Zero, negative
    or non-integer counts are row errors (the support starts at k = 1);
    they are tallied with line numbers and skipped.  A block of text that
    holds only ASCII digits and line breaks is converted in one call; any
    other block is parsed row by row.
    """
    columns: list[np.ndarray] = []
    errors: list[tuple[int, str]] = []
    rows = 0
    lineno = 0  # lines before the current block
    for block in _read_blocks(source):
        if isinstance(block, str) and not block.translate(_DIGITS_AND_BREAKS):
            column = _bare_counts(block)
            if column is not None:
                columns.append(column)
                rows += column.size
                lineno += block.count("\n")
                continue
        lines = _block_lines(block)
        column, block_rows = _count_rows(lines, lineno, errors)
        columns.append(column)
        rows += block_rows
        lineno += len(lines)
    if rows == 0:
        raise InputFormatError("count file contains no rows")
    values = np.concatenate(columns)
    if not values.size:
        raise DegenerateDataError(f"no usable counts out of {rows} rows")
    return CountLoadResult(
        sample=CountSample(values),
        rows_read=rows,
        row_errors=tuple(errors),
    )


def _bare_counts(block: str) -> np.ndarray | None:
    """A block of digit lines as int64 counts, or None if any is out of range."""
    try:
        column = np.array(block.split(), dtype=np.int64)
    except (OverflowError, ValueError):  # past int64, or past int()'s digit limit
        return None
    return column if np.all(column >= 1) else None


def _count_rows(lines: list[str], lineno: int, errors: list) -> tuple[np.ndarray, int]:
    """Parse count rows after line ``lineno``: (usable counts, rows); row errors go to ``errors``."""
    values: list[int] = []
    rows = 0
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows += 1
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
    return np.array(values, dtype=np.int64), rows


def save_counts(path, sample: CountSample) -> None:
    """Write one count per line (the bare-count file format)."""
    values = sample.values
    if sample.weights is not None:
        values = np.repeat(values, sample.weights)
    _write_lines(path, values, str)


def write_delays(path, sample: ReplyDelaySample) -> None:
    """Write one delay (seconds) per line."""
    _write_lines(path, sample.delays, repr)


def _write_lines(path, values: np.ndarray, fmt) -> None:
    """Write ``fmt`` of each value, one per line, a block of values at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, values.size, _WRITE_BLOCK):
            block = values[start : start + _WRITE_BLOCK].tolist()
            fh.write("\n".join(map(fmt, block)) + "\n")
