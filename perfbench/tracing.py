"""In-memory span recorder installed around lomaxmix's public functions.

Wrappers are installed from the benchmark's side by replacing module
attributes that the CLI resolves at call time, so nothing in the program
changes.  A name that no longer exists is recorded as missing rather
than raising.  Spans carry name, start, end, parent and the pass they
belong to; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.enabled = False
        self.pass_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            **attrs,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, target: str, name: str, attrs_of=None) -> None:
        """Wrap ``module.attr`` so each call records a span called ``name``.

        ``attrs_of(args, kwargs)`` may return extra fields for the span.
        """
        mod_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(mod_name)
            orig = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            extra = attrs_of(args, kwargs) if attrs_of else {}
            with self.span(name, **extra):
                return orig(*args, **kwargs)

        setattr(module, attr, wrapper)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")

    def self_times(self, pass_id: int) -> list[tuple[dict, float]]:
        """(span, self seconds) for every span of one pass."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        return [
            (s, (s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) / 1e9) for s in spans
        ]

