"""Small specs whose transition systems and verdicts are known in closed form.

Each family builder returns a `MicroSpec`: the spec text plus the state
count, transition count and verdicts derived by hand in the builder's
docstring.  Nothing here imports the engine, so the expected answers
never come from running it.  `batch(seed)` draws a reproducible,
stratified mix of the three families.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class MicroSpec:
    name: str
    text: str
    states: int
    transitions: int
    verdicts: Dict[str, str]


def fake(n: int) -> MicroSpec:
    """`fake-N`: S makes one local step `()@(ff)` (no component can
    satisfy `ff`, so nobody receives); N bystanders run `0`.

    States: the initial one and the one after S's step, whose guard
    `flag = false` is then false: 2 states, 1 transition.  `S.flag = true`
    holds in the second state (`fired` HOLDS); no step touches a bystander,
    so `quiet` HOLDS.
    """
    if n < 1:
        raise ValueError("fake needs at least one bystander")
    bystanders = "\n".join(
        f"component W{i} {{ attrs {{ n = {i}; }} interface {{ }} run IDLE }}" for i in range(1, n + 1)
    )
    quiet = " && ".join(f"W{i}.n = {i}" for i in range(1, n + 1))
    text = (
        "proc SND = <flag = false> ()@(ff).[flag := true] 0\n"
        "proc IDLE = 0\n"
        "component S { attrs { flag = false; } interface { } run SND }\n"
        f"{bystanders}\n"
        "property fired = reachable S.flag = true\n"
        f"property quiet = invariant {quiet}\n"
    )
    return MicroSpec(f"fake-{n}", text, 2, 1, {"fired": "holds", "quiet": "holds"})


def bcast(n: int, k: int) -> MicroSpec:
    """`bcast-N-K`: A broadcasts `("m")` to `tt` once; each of N receivers
    offers K input branches that all accept it, branch i setting `r := i`.

    Must-receive: every receiver takes exactly one branch, chosen
    independently, so the one broadcast has K^N outcomes, each with a
    distinct vector of `r` values.  Nothing is enabled afterwards.
    States: 1 + K^N; transitions: K^N.  B1 can pick branch K
    (`hit` HOLDS) but no branch sets K+1 (`miss` FAILS); every successor
    has `B1.r >= 1` (`untouched` FAILS); the broadcast that A sends is
    received by B1 in the same step (`answered` HOLDS).
    """
    if n < 1 or k < 1:
        raise ValueError("bcast needs n >= 1 and k >= 1")
    branches = " + ".join(f'(x = "m")(x).[r := {i}] 0' for i in range(1, k + 1))
    receivers = "\n".join(
        f"component B{i} {{ attrs {{ r = 0; }} interface {{ }} run RCV }}" for i in range(1, n + 1)
    )
    text = (
        'proc SND = ("m")@(tt).0\n'
        f"proc RCV = {branches}\n"
        'component A { attrs { role = "a"; } interface { role } run SND }\n'
        f"{receivers}\n"
        f"property hit = reachable B1.r = {k}\n"
        f"property miss = reachable B1.r = {k + 1}\n"
        "property untouched = invariant B1.r = 0\n"
        'property answered = sent(A, "m") leadsto received(B1, "m")\n'
    )
    verdicts = {"hit": "holds", "miss": "fails", "untouched": "fails", "answered": "holds"}
    return MicroSpec(f"bcast-{n}-{k}", text, 1 + k**n, k**n, verdicts)


def draw(d: int) -> MicroSpec:
    """`draw-D`: A sends one payload drawn from `extern pick : {1..D}`;
    B receives any message and stores it in `v`.

    Each draw is its own transition from the initial state, to a state
    that differs only in `B.v`: D + 1 states, D transitions.
    `B.v = D` is reachable (`top` HOLDS), `B.v = D + 1` is not
    (`over` FAILS).
    """
    if d < 1:
        raise ValueError("draw needs a non-empty domain")
    domain = ", ".join(str(i) for i in range(1, d + 1))
    text = (
        f"extern pick : {{ {domain} }}\n"
        "proc SND = (pick())@(tt).0\n"
        "proc RCV = (tt)(x).[v := x] 0\n"
        'component A { attrs { role = "a"; } interface { role } run SND }\n'
        "component B { attrs { v = 0; } interface { } run RCV }\n"
        f"property top = reachable B.v = {d}\n"
        f"property over = reachable B.v = {d + 1}\n"
    )
    return MicroSpec(f"draw-{d}", text, d + 1, d, {"top": "holds", "over": "fails"})


# every bcast shape with at most 257 states, smallest first
BCAST_SHAPES = sorted(((n, k) for k in (1, 2, 3) for n in range(1, 9) if k**n <= 256),
                      key=lambda nk: (nk[1] ** nk[0], nk))


def batch(seed: int, size: int = 30) -> List[MicroSpec]:
    """A reproducible mix of the three families in equal shares, in
    shuffled order.  Sizes are stratified: the i-th spec of a family is
    drawn from the i-th slice of its size range, so every batch spans the
    whole range and batches differ only inside the slices."""
    rng = random.Random(seed)
    per = size // 3

    def pick(lo: int, hi: int, i: int) -> int:  # from the i-th of `per` slices of lo..hi
        span = hi - lo + 1
        return lo + rng.randrange(span * i // per, max(span * (i + 1) // per, span * i // per + 1))

    out = []
    for i in range(per):
        out.append(fake(pick(1, 40, i)))
        out.append(bcast(*BCAST_SHAPES[pick(0, len(BCAST_SHAPES) - 1, i)]))
        out.append(draw(pick(1, 40, i)))
    rng.shuffle(out)
    return out
