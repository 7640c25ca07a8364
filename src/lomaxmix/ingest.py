"""Turning raw logs and count files into samples.

Reply delays come from timestamped directed-message logs.  Two matching
rules are provided:

* ``first-response`` (default): the delay of a message A->B at t1 is
  t2 - t1 for the earliest B->A message with t2 > t1; one reply may
  answer several prior messages.
* ``exclusive``: replies are consumed FIFO, each answering at most one
  pending message.

Both are order-independent (events are sorted internally) and drop
self-messages with a counter.  Parsing never discards rows silently:
malformed rows are tallied with their line numbers and processing
continues.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError, DomainError, InputFormatError
from .fitting import CountSample

__all__ = [
    "MessageEvent",
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


class MessageEvent(NamedTuple):
    """A directed message: integer timestamp (seconds), sender, receiver.

    Events order as tuples, by (timestamp, sender, receiver).
    """

    timestamp: int
    sender: str
    receiver: str


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
    """Parsed events plus a per-row error tally (line number, reason)."""

    events: tuple[MessageEvent, ...]
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
    """Parse timestamp/sender/receiver rows from a path or line iterable."""
    if not delimiter:
        raise DomainError("delimiter must not be empty")
    events: list[MessageEvent] = []
    errors: list[tuple[int, str]] = []
    rows = 0
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if lineno == 1 and header:
            continue
        if not line.strip():
            continue
        rows += 1
        parts = [p.strip() for p in line.split(delimiter)]
        if len(parts) != 3:
            errors.append((lineno, f"expected 3 fields, got {len(parts)}"))
            continue
        try:
            ts = int(parts[0])
        except ValueError:
            errors.append((lineno, f"bad timestamp {parts[0]!r}"))
            continue
        if not parts[1] or not parts[2]:
            errors.append((lineno, "empty sender or receiver"))
            continue
        events.append(MessageEvent(ts, parts[1], parts[2]))
    if rows == 0:
        raise InputFormatError("message log contains no rows")
    if not events:
        raise InputFormatError(f"no parseable rows out of {rows}")
    return MessageLog(events=tuple(events), rows_read=rows, row_errors=tuple(errors))


def extract_reply_delays(
    events,
    rule: str = "first-response",
    discretization: float = DEFAULT_DISCRETIZATION,
) -> ReplyDelaySample:
    """Extract reply delays from directed message events.

    Self-messages are dropped (counted); messages that never see a later
    reverse-direction message contribute nothing.  An empty result
    raises, since downstream fitting has nothing to work with.
    """
    if rule not in REPLY_RULES:
        raise DomainError(f"rule must be one of {REPLY_RULES}, got {rule!r}")
    usable = []
    self_dropped = 0
    for ev in events:
        if ev.sender == ev.receiver:
            self_dropped += 1
            continue
        usable.append(ev)
    # the full-tuple order resolves timestamp ties by identity, so the
    # result does not depend on input row order
    usable.sort()

    delays: list[float] = []
    unanswered = 0
    if rule == "first-response":
        by_pair: dict[tuple[str, str], list[int]] = defaultdict(list)
        for ts, sender, receiver in usable:
            by_pair[sender, receiver].append(ts)
        for ts, sender, receiver in usable:
            reverse = by_pair.get((receiver, sender), ())
            i = bisect_right(reverse, ts)
            if i == len(reverse):
                unanswered += 1
            else:
                delays.append(float(reverse[i] - ts))
    else:  # exclusive FIFO matching
        pending: dict[tuple[str, str], deque[int]] = defaultdict(deque)
        for ts, sender, receiver in usable:
            queue = pending.get((receiver, sender))
            if queue and ts > queue[0]:
                delays.append(float(ts - queue.popleft()))
            pending[sender, receiver].append(ts)
        unanswered = sum(len(q) for q in pending.values())
    if not delays:
        raise DegenerateDataError("no reply delays could be extracted")
    return ReplyDelaySample(
        delays=np.asarray(delays, dtype=float),
        discretization=discretization,
        rule=rule,
        self_messages_dropped=self_dropped,
        messages_unanswered=unanswered,
    )


def discretize(sample: ReplyDelaySample) -> CountSample:
    """Map delays to counts k = max(1, ceil(delay / dt)); support starts at 1."""
    k = np.maximum(1, np.ceil(sample.delays / sample.discretization)).astype(np.int64)
    return CountSample(k)


def _iter_lines(source):
    """Yield the lines of a path, or of any other iterable, one at a time."""
    if not isinstance(source, (str, Path)):
        yield from source
        return
    try:
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    except OSError as exc:
        raise InputFormatError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{source} is not UTF-8 text: {exc}") from exc


def load_counts(source) -> CountLoadResult:
    """Load a count file: ``unit_id,count`` rows or one bare count per line.

    Zero, negative or non-integer counts are row errors (the support
    starts at k = 1); they are tallied with line numbers and skipped.
    """
    values: list[int] = []
    errors: list[tuple[int, str]] = []
    rows = 0
    for lineno, raw in enumerate(_iter_lines(source), start=1):
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
    if rows == 0:
        raise InputFormatError("count file contains no rows")
    if not values:
        raise DegenerateDataError(f"no usable counts out of {rows} rows")
    return CountLoadResult(
        sample=CountSample(np.asarray(values, dtype=np.int64)),
        rows_read=rows,
        row_errors=tuple(errors),
    )


def save_counts(path, sample: CountSample) -> None:
    """Write one count per line (the bare-count file format)."""
    values = sample.values
    if sample.weights is not None:
        values = np.repeat(values, sample.weights)
    with open(path, "w", encoding="utf-8") as fh:
        for val in values:
            fh.write(f"{int(val)}\n")


def write_delays(path, sample: ReplyDelaySample) -> None:
    """Write one delay (seconds) per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in sample.delays:
            fh.write(repr(float(d)) + "\n")
