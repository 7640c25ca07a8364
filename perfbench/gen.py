"""Seeded input generators for the benchmark workloads.

The generators use their own numpy ``Generator`` and never call into
lomaxmix, so a change to the program's samplers cannot change a
workload's input.  Every generator is deterministic in its seed.
"""

from __future__ import annotations

import numpy as np

# Largest count written; far beyond anything the workload models draw.
_MAX_COUNT = 2**53


def parse_spec(spec: str) -> list[tuple[float, float, float]]:
    """``c:b:v[,c:b:v...]`` -> [(weight, scale, shape), ...]."""
    return [tuple(float(x) for x in part.split(":")) for part in spec.split(",")]


def mixture_counts(spec: str, n: int, seed: tuple[int, ...]) -> np.ndarray:
    """Draw ``n`` counts from the gamma-mixed geometric law of ``spec``.

    Component i is picked with probability c_i; its rate is
    lam ~ Gamma(v_i, rate b_i) and the count is k = 1 + floor(-ln U / lam),
    whose law is the discrete Lomax with P(K >= k) = (1 + (k-1)/b)^-v.
    """
    comps = parse_spec(spec)
    rng = np.random.default_rng([*seed, 1])
    weights = np.array([c for c, _, _ in comps])
    idx = rng.choice(len(comps), size=n, p=weights / weights.sum())
    shapes = np.array([v for _, _, v in comps])[idx]
    scales = np.array([b for _, b, _ in comps])[idx]
    lam = rng.gamma(shapes, 1.0 / scales)
    u = 1.0 - rng.random(n)  # in (0, 1]
    with np.errstate(divide="ignore", over="ignore"):
        k = 1.0 + np.floor(-np.log(u) / lam)
    return np.minimum(k, float(_MAX_COUNT)).astype(np.int64)


def mixture_log_likelihood(spec: str, counts: np.ndarray) -> float:
    """Log-likelihood of ``counts`` under the discrete Lomax mixture ``spec``.

    Uses log p(k) = -v log1p((k-1)/b) + log(-expm1(v log1p(-1/(k+b)))),
    summed over distinct values.  Independent of the program's kernels.
    """
    ks, mult = np.unique(counts, return_counts=True)
    k = ks.astype(float)
    rows = [
        np.log(c) - v * np.log1p((k - 1.0) / b) + np.log(-np.expm1(v * np.log1p(-1.0 / (k + b))))
        for c, b, v in parse_spec(spec)
    ]
    lp = np.logaddexp.reduce(np.vstack(rows), axis=0)
    return float(np.dot(mult.astype(float), lp))


# Malformed row kinds; each is one row error for the log parser.
_MALFORMED = (
    "{t},u{a}",  # two fields
    "{t},u{a},u{b},extra",  # four fields
    "t{t},u{a},u{b}",  # non-integer timestamp
    "{t},,u{b}",  # empty sender
)


def message_log(rows: int, seed: tuple[int, ...]) -> tuple[list[str], dict]:
    """A timestamp,sender,receiver log built from reply threads.

    Threads run on contact pairs whose popularity is Zipf-skewed; within
    a thread the two parties alternate with heavy-tailed reply gaps.  A
    known number of self-messages and malformed rows is mixed in.
    Returns the lines (time-ordered, malformed rows at random places)
    and the injected tallies.
    """
    rng = np.random.default_rng([*seed, 2])
    n_self = max(1, rows // 200)
    n_bad = max(len(_MALFORMED), rows // 400)
    n_msgs = rows - n_self - n_bad

    n_users = max(50, rows // 80)
    n_pairs = max(20, rows // 15)
    a = rng.integers(0, n_users, n_pairs)
    b = (a + rng.integers(1, n_users, n_pairs)) % n_users  # b != a
    pop = 1.0 / np.arange(1, n_pairs + 1) ** 1.1
    pop /= pop.sum()

    # thread lengths: 1 + Geometric, mean 2.5 messages
    lengths = rng.geometric(0.4, size=n_msgs)
    ends = np.cumsum(lengths)
    n_threads = int(np.searchsorted(ends, n_msgs)) + 1
    lengths = lengths[:n_threads]
    lengths[-1] -= int(ends[n_threads - 1]) - n_msgs
    lengths = lengths[lengths > 0]
    n_threads = lengths.size

    pair = rng.choice(n_pairs, size=n_threads, p=pop)
    flip = rng.random(n_threads) < 0.5
    first = np.where(flip, b[pair], a[pair])
    second = np.where(flip, a[pair], b[pair])
    t0 = 1_600_000_000 + rng.integers(0, 365 * 86_400, n_threads)

    thread = np.repeat(np.arange(n_threads), lengths)
    pos = np.arange(n_msgs) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # Lomax-distributed reply gaps in seconds (shape 1.2, scale 300)
    gaps = np.ceil(300.0 * (rng.random(n_msgs) ** (-1.0 / 1.2) - 1.0)).astype(np.int64) + 1
    gaps[pos == 0] = 0
    offset = np.cumsum(gaps) - np.repeat(np.cumsum(gaps)[np.cumsum(lengths) - lengths], lengths)
    ts = t0[thread] + offset
    odd = pos % 2 == 1
    snd = np.where(odd, second[thread], first[thread])
    rcv = np.where(odd, first[thread], second[thread])

    self_user = rng.integers(0, n_users, n_self)
    ts_all = np.concatenate([ts, 1_600_000_000 + rng.integers(0, 365 * 86_400, n_self)])
    snd_all = np.concatenate([snd, self_user])
    rcv_all = np.concatenate([rcv, self_user])
    order = np.argsort(ts_all, kind="stable")
    lines = [
        f"{t},u{s},u{r}"
        for t, s, r in zip(ts_all[order].tolist(), snd_all[order].tolist(), rcv_all[order].tolist())
    ]

    bad = [
        _MALFORMED[j % len(_MALFORMED)].format(t=1_600_000_000 + j, a=j % n_users, b=(j + 1) % n_users)
        for j in range(n_bad)
    ]
    # malformed row j goes just before good row at[j]
    at = np.sort(rng.integers(0, len(lines) + 1, n_bad)).tolist()
    out, prev = [], 0
    for row, cut in zip(bad, at):
        out.extend(lines[prev:cut])
        out.append(row)
        prev = cut
    out.extend(lines[prev:])
    expected = {"rows_read": len(out), "rows_dropped": n_bad, "self_messages": n_self}
    return out, expected


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
