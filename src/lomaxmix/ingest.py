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

from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class MessageEvent:
    """A directed message: integer timestamp (seconds), sender, receiver."""

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
    lines = _iter_lines(source)
    events: list[MessageEvent] = []
    errors: list[tuple[int, str]] = []
    rows = 0
    for lineno, raw in enumerate(lines, start=1):
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
        events.append(MessageEvent(timestamp=ts, sender=parts[1], receiver=parts[2]))
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
    # sort key includes identities so ties are resolved independent of
    # input row order
    usable.sort(key=lambda e: (e.timestamp, e.sender, e.receiver))

    by_pair: dict[tuple[str, str], list[int]] = {}
    for ev in usable:
        by_pair.setdefault((ev.sender, ev.receiver), []).append(ev.timestamp)

    delays: list[float] = []
    unanswered = 0
    if rule == "first-response":
        for ev in usable:
            reverse = by_pair.get((ev.receiver, ev.sender))
            if reverse is None:
                unanswered += 1
                continue
            i = _first_greater(reverse, ev.timestamp)
            if i is None:
                unanswered += 1
            else:
                delays.append(float(reverse[i] - ev.timestamp))
    else:  # exclusive FIFO matching
        pending: dict[tuple[str, str], list[int]] = {}
        for ev in usable:
            key_rev = (ev.receiver, ev.sender)
            queue = pending.get(key_rev)
            if queue:
                t1 = queue[0]
                if ev.timestamp > t1:
                    queue.pop(0)
                    delays.append(float(ev.timestamp - t1))
            pending.setdefault((ev.sender, ev.receiver), []).append(ev.timestamp)
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


def _first_greater(sorted_ts: list[int], t: int) -> int | None:
    lo, hi = 0, len(sorted_ts)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_ts[mid] > t:
            hi = mid
        else:
            lo = mid + 1
    return lo if lo < len(sorted_ts) else None


def discretize(sample: ReplyDelaySample) -> CountSample:
    """Map delays to counts k = max(1, ceil(delay / dt)); support starts at 1."""
    dt = sample.discretization
    if not dt > 0.0:
        raise DomainError(f"discretization must be > 0, got {dt!r}")
    k = np.maximum(1, np.ceil(sample.delays / dt)).astype(np.int64)
    return CountSample(k)


def _iter_lines(source):
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return fh.readlines()
        except OSError as exc:
            raise InputFormatError(f"cannot read {source}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{source} is not UTF-8 text: {exc}") from exc
    return list(source)


def load_counts(source) -> CountLoadResult:
    """Load a count file: ``unit_id,count`` rows or one bare count per line.

    Zero, negative or non-integer counts are row errors (the support
    starts at k = 1); they are tallied with line numbers and skipped.
    """
    lines = _iter_lines(source)
    values: list[int] = []
    errors: list[tuple[int, str]] = []
    rows = 0
    for lineno, raw in enumerate(lines, start=1):
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
    with open(path, "w", encoding="utf-8") as fh:
        if sample.weights is None:
            for val in sample.values:
                fh.write(f"{int(val)}\n")
        else:
            for val, w in zip(sample.values, sample.weights):
                for _ in range(int(w)):
                    fh.write(f"{int(val)}\n")


def write_delays(path, sample: ReplyDelaySample) -> None:
    """Write one delay (seconds) per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in sample.delays:
            fh.write(repr(float(d)) + "\n")
