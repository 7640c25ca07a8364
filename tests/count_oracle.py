"""Test-side oracle for count-file loading.

``lomaxmix.ingest.load_counts`` converts clean blocks of bare counts in
one numpy call and parses only the other blocks row by row.  This is the
row-by-row loader for every line, for the equivalence tests to compare
against.
"""

from pathlib import Path

import numpy as np

from lomaxmix import DegenerateDataError, InputFormatError

_MAX_COUNT = np.iinfo(np.int64).max


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


def load_counts(source) -> tuple[np.ndarray, int, tuple[tuple[int, str], ...]]:
    """Load a count file: ``unit_id,count`` rows or one bare count per line.

    Returns the usable counts in line order, the rows read and the row
    errors.  Zero, negative or non-integer counts are row errors (the
    support starts at k = 1); they are tallied with line numbers and skipped.
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
    return np.asarray(values, dtype=np.int64), rows, tuple(errors)
