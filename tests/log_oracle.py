"""Test-side oracle for message-log parsing.

``lomaxmix.ingest.parse_message_log`` converts the clean rows of a block
with numpy and ``str`` calls and parses only the other rows one by one.
This is the row-by-row parser for every line, for the equivalence tests
to compare against.
"""

from collections import defaultdict
from pathlib import Path

import numpy as np

from lomaxmix import DomainError, InputFormatError
from lomaxmix.ingest import MessageLog

_MIN_TIMESTAMP, _MAX_TIMESTAMP = -(2**63), 2**63 - 1


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
