"""Seeded input generators for the benchmark workloads.

Nothing here imports orbhilb: the inputs are plain dicts and lists built
from the seed alone, and the program under test only ever sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from math import gcd

# sweep: period range split into log-spaced bands, dimensions, and the kind
# of type; every block covers each (n, band) cell once
SWEEP_R = (5, 64)
SWEEP_N = (2, 3, 4)
SWEEP_BANDS = 8
SWEEP_KINDS = ("family", "iso", "iso", "strata")
SWEEP_J = (-2, 2)
# band order inside a block, so that any prefix of a block is spread over r
_BAND_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
_GOLDEN = (math.sqrt(5) - 1) / 2
_SQRT2 = math.sqrt(2)

# baskets: genus range, basket size and period cap; a palette of one point
# per period and shape makes point types repeat across items
BASKET_GENUS = (0, 6)
BASKET_SIZE = (1, 8)
BASKET_R_MAX = 25


class Digest:
    """Incremental sha256 of the canonical JSON list of the items added."""

    def __init__(self) -> None:
        self._h = hashlib.sha256(b"[")
        self._first = True

    def add(self, item) -> None:
        if not self._first:
            self._h.update(b",")
        self._first = False
        self._h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())

    def hexdigest(self) -> str:
        h = self._h.copy()
        h.update(b"]")
        return h.hexdigest()


def digest(items) -> str:
    """sha256 of the canonical JSON form of a generated input list."""
    d = Digest()
    for item in items:
        d.add(item)
    return d.hexdigest()


def _band(lo: int, hi: int, band: int, bands: int) -> tuple[float, float]:
    step = (math.log(hi + 1) - math.log(lo)) / bands
    return math.log(lo) + band * step, math.log(lo) + (band + 1) * step


def _log_uniform(rng: random.Random, band: tuple[float, float], hi: int) -> int:
    return min(hi, int(math.exp(rng.uniform(*band))))


def _unit(rng: random.Random, m: int) -> int:
    # a residue in [1, m-1] coprime to m
    while True:
        u = rng.randrange(1, m)
        if gcd(u, m) == 1:
            return u


def _strata_weights(rng: random.Random, r: int, n: int) -> list[int] | None:
    divisors = [s for s in range(2, r) if r % s == 0]
    if not divisors:
        return None
    periods = [rng.choice(divisors)]
    if n > 2 and rng.random() < 0.5:
        coprime = [s for s in divisors if gcd(s, periods[0]) == 1]
        if coprime:
            periods.append(rng.choice(coprime))
    weights = [s * _unit(rng, r // s) for s in periods]
    weights += [_unit(rng, r) for _ in range(n - len(periods))]
    rng.shuffle(weights)
    return weights


def _sweep_type(rng, n, band, kind, seen, position) -> dict:
    lo, hi = SWEEP_R
    b_lo, b_hi = _band(lo, hi, band, SWEEP_BANDS)
    if kind == "family" and n == 3:
        # 1/r(1,2,r-3): the family whose p_orb cost is tracked against r
        free = [
            r
            for r in range(lo, hi + 1)
            if b_lo <= math.log(r) < b_hi and gcd(r, 6) == 1 and (r, (1, 2, r - 3)) not in seen
        ]
        if free:
            r = rng.choice(free)
            return _sweep_item(rng, r, [1, 2, r - 3], seen)
    for attempt in range(200):
        if attempt == 0:
            r = min(hi, int(math.exp(b_lo + position * (b_hi - b_lo))))
        else:
            r = _log_uniform(rng, (b_lo, b_hi), hi)
        if kind == "strata":
            weights = _strata_weights(rng, r, n)
            if weights is None:
                continue
        else:
            weights = [_unit(rng, r) for _ in range(n)]
        if (r, tuple(sorted(weights))) not in seen:
            return _sweep_item(rng, r, weights, seen)
    # the band has run out of fresh types: take the next band up
    return _sweep_type(rng, n, min(band + 1, SWEEP_BANDS - 1), kind, seen, position)


def _sweep_item(rng, r, weights, seen) -> dict:
    seen.add((r, tuple(sorted(weights))))
    j = rng.randint(*SWEEP_J)
    isolated = all(gcd(a, r) == 1 for a in weights)
    return {"r": r, "a": weights, "k": j * r - sum(weights), "isolated": isolated}


def sweep_stream(seed: int):
    """Distinct cyclic types 1/r(a_1..a_n) with a canonical weight k each.

    Yields (block, item).  A block visits every (n, log-r band) cell once,
    with r log-uniform inside its band: its position there follows a Weyl
    sequence over the blocks, so that every run spreads each cell's r
    evenly over its band.  The kind of each cell (the 1/r(1,2,r-3) family
    or a random isolated type, another isolated type, or a type on curve
    strata) rotates from block to block, so every four blocks cover each
    (n, band, kind) cell once.  No type repeats, so the
    delta cache never hits across items.
    """
    rng = random.Random(f"sweep:{seed}")
    seen: set = set()
    phase = rng.random()
    block = 0
    while True:
        cell = 0
        for band in _BAND_ORDER:
            for n in SWEEP_N:
                kind = SWEEP_KINDS[(cell + block) % len(SWEEP_KINDS)]
                position = (phase + block * _GOLDEN + cell * _SQRT2) % 1.0
                yield block, _sweep_type(rng, n, band, kind, seen, position)
                cell += 1
        block += 1


def _palette(rng: random.Random) -> list[tuple[int, int]]:
    # one point 1/r(a, r-a) for every period, so palettes differ only in a
    out = []
    for r in range(2, BASKET_R_MAX + 1):
        a = _unit(rng, r) if r > 2 else 1
        out.append((r, min(a, r - a)))
    return out


def baskets_stream(seed: int):
    """K3 surfaces and Q-Fano 3-folds with a true or perturbed claimed basket.

    Yields (block, item).  A block visits every (shape, basket size) cell
    once; one cell in three, rotating, claims the basket with a point
    dropped or added, which must be rejected with check
    "residual_denominator".
    """
    rng = random.Random(f"baskets:{seed}")
    palettes = {"k3": _palette(rng), "fano3": _palette(rng)}
    block = 0
    while True:
        cell = 0
        for size in range(BASKET_SIZE[0], BASKET_SIZE[1] + 1):
            for shape in ("k3", "fano3"):
                true_claim = (cell + block) % 3 != 2
                pal = palettes[shape]
                basket = [list(rng.choice(pal)) for _ in range(size)]
                claim = [list(p) for p in basket]
                if not true_claim:
                    if rng.random() < 0.5:
                        claim.pop(rng.randrange(len(claim)))
                    else:
                        claim.insert(rng.randrange(len(claim) + 1), list(rng.choice(pal)))
                yield block, {
                    "shape": shape,
                    "genus": rng.randint(*BASKET_GENUS),
                    "basket": basket,
                    "claim": claim,
                    "expect": "pass" if true_claim else "residual_denominator",
                }
                cell += 1
        block += 1
