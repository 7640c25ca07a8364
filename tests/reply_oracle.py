"""Test-side oracle for reply matching.

``lomaxmix.ingest`` matches replies on int64 columns with sorts and
searches.  This is the direct form of both rules, over
``(timestamp, sender, receiver)`` tuples with ``bisect`` and per-pair
``deque``s, for the equivalence tests to compare against.
"""

from bisect import bisect_right
from collections import defaultdict, deque


def reply_delays(events, rule):
    """(delays, self-messages, unanswered).

    The delays come in (timestamp, sender, receiver) order of the asking
    message under first-response, and of the reply under exclusive.
    """
    usable = sorted(ev for ev in events if ev[1] != ev[2])
    self_dropped = len(events) - len(usable)
    delays = []
    if rule == "first-response":
        by_pair = defaultdict(list)
        for ts, sender, receiver in usable:
            by_pair[sender, receiver].append(ts)
        unanswered = 0
        for ts, sender, receiver in usable:
            reverse = by_pair.get((receiver, sender), ())
            i = bisect_right(reverse, ts)
            if i == len(reverse):
                unanswered += 1
            else:
                delays.append(float(reverse[i] - ts))
    else:  # exclusive FIFO matching
        pending = defaultdict(deque)
        for ts, sender, receiver in usable:
            queue = pending.get((receiver, sender))
            if queue and ts > queue[0]:
                delays.append(float(ts - queue.popleft()))
            pending[sender, receiver].append(ts)
        unanswered = sum(len(q) for q in pending.values())
    return delays, self_dropped, unanswered
