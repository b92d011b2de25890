"""Scaled variants of the travel-booking corpus (fixtures/travel-booking.abc).

`corpus_variant(customers, hotels, days, prices, seed, rooms)` returns spec text
with the corpus's processes unchanged and the population and extern
domains scaled: N customers, M hotels, `get_day` drawing from `days`
values (5, 6, ...) and `get_price` from `prices` values centred on 85
(width 1 gives {85}, width 3 gives {75, 85, 95}).  The seed picks each
hotel's rooms and price per day; `rooms`, when given, sets every hotel's
rooms on every day instead.  Only text is produced; nothing here imports
the engine.

Hotel1 is an *anchor*: for every day its price is at most the lowest
price a customer can draw and it has at least N rooms.  Its offer is
therefore always acceptable and it never runs out, so every customer is
eventually confirmed.  Without an anchor a customer can book a full
hotel forever: after `toolate` it asks again, gets `nooffer` from the
full hotel, keeps that hotel as its favourite, books it again, and each
round leaves one more broker session in the state.  That is why
`corpus_variant(2, 1, rooms=1)` (no anchor) has an unbounded state space: explored to depth 40 it has 1,126 states, to depth 100 it has
1,846, and the frontier never empties.

`roomy_verdicts` gives the verdicts of the generated properties when
every hotel has at least N rooms, derived by hand next to it.
"""
from __future__ import annotations

import random
from typing import Dict, List, Optional

PROCS = """\
proc CustF =
  <send = true> ()@(ff).
    [day := get_day(), price := get_price(), dist := get_dist(), loc := get_loc()]
    (("acms", this.id, this.loc, this.day, this.price)@(type = "Broker").
      [send := false] CustF)

proc CustA =
  (x = "offer" && this.price >= p && diff(this.loc, l) <= this.dist)(x, h, l, p, b).
    [price := p, favh := h, ref := b] CustA
  + (x = "finish")(x).CustB

proc CustB =
  <favh = undef> ()@(ff).[send := true] CustA
  + <favh != undef>
      ("book", this.id, this.day, this.price, this.ref)@(id = this.favh).
        ((x = "confirm")(x).0 + (x = "toolate")(x).[send := true] CustA)

proc BrkMain =
  (x = "acms")(x, c, l, d, p).
    [nh[l] := get_hotels(l), cnt[c] := 0] (BrkH | BrkMain)

proc BrkH = ("acms", c, d, this.id)@(type = "Hotel" && locality = l).(BrkA | BrkU)

proc BrkA =
  <cnt[c] < nh[l]>
    (x = "offer" && c = cust && op <= p)(x, cust, h, l2, op).(BrkS | BrkA)

proc BrkS = ("offer", h, l2, op, this.id)@(id = c).[cnt[c] := cnt[c] + 1] 0

proc BrkU =
  <cnt[c] < nh[l]>
    (x = "offer" && c = cust && op > p)(x, cust, h, l2, op).[cnt[c] := cnt[c] + 1] BrkU
  + <cnt[c] < nh[l]> (x = "nooffer" && c = cust)(x, cust).[cnt[c] := cnt[c] + 1] BrkU
  + <cnt[c] = nh[l]> ("finish")@(id = c).0

proc BrkCC = (x = "comission")(x, amt).BrkCC

proc BHot = (x = "acms" && b in this.blist)(x, c, d, b).(AHot | BHot)

proc AHot =
  <room[d] > 0> ("offer", c, this.id, this.locality, this.price[b, d])@(id = b).0
  + <room[d] = 0> ("nooffer", c)@(id = b).0

proc CHot = (x = "book" && b in this.blist)(x, c, d, p, b).(RHot | CHot)

proc RHot =
  <room[d] > 0>
    ("confirm")@(id = c).
      [room[d] := room[d] - 1] (("comission", p * 0.10)@(id = b).0)
  + <room[d] = 0> ("toolate")@(id = c).0
"""


def day_values(days: int) -> List[int]:
    return [5 + i for i in range(days)]


def price_values(prices: int) -> List[int]:
    return [85 - 10 * (prices // 2) + 10 * i for i in range(prices)]


def hotel_table(customers: int, hotels: int, days: int, prices: int, seed: int,
                rooms: Optional[int] = None) -> List[Dict]:
    """Rooms and price per day for each hotel; hotel 0 is the anchor.
    A given `rooms` fixes every hotel's rooms on every day."""
    rng = random.Random(seed)
    low = min(price_values(prices))
    table = []
    for h in range(hotels):
        room, price = {}, {}
        for d in day_values(days):
            if h == 0:
                room[d] = customers + rng.randrange(2)
                price[d] = low - 5 * rng.randrange(1, 3)
            else:
                room[d] = rng.randrange(3)
                price[d] = low - 10 + 10 * rng.randrange(4)
            if rooms is not None:
                room[d] = rooms
        table.append({"rooms": room, "price": price})
    return table


def corpus_variant(customers: int, hotels: int, days: int = 1, prices: int = 1, seed: int = 0,
                   rooms: Optional[int] = None) -> str:
    if customers < 1 or hotels < 1 or days < 1 or prices < 1:
        raise ValueError("every size must be at least 1")
    out = [
        f"# travel-booking variant: {customers} customer(s) x {hotels} hotel(s), "
        f"{days} day(s), {prices} price(s), seed {seed}",
        "extern get_day   : { " + ", ".join(map(str, day_values(days))) + " }",
        "extern get_price : { " + ", ".join(map(str, price_values(prices))) + " }",
        "extern get_dist  : { 0 }",
        'extern get_loc   : { "rome" }',
        f'extern get_hotels : map {{ ("rome") -> {hotels} }}',
        'extern diff       : map { ("rome", "rome") -> 0 }',
        "",
        PROCS,
    ]
    for c in range(1, customers + 1):
        out.append(
            f'component Cust{c} {{\n  attrs {{ id = "c{c}"; type = "Customer"; send = true; favh = undef; }}\n'
            "  interface { id, type }\n  run CustF | CustA\n}"
        )
    out.append(
        'component Broker1 {\n  attrs { id = "b1"; type = "Broker"; }\n'
        "  interface { id, type }\n  run BrkMain | BrkCC\n}"
    )
    for h, row in enumerate(hotel_table(customers, hotels, days, prices, seed, rooms), start=1):
        attrs = [f'id = "h{h}"', 'type = "Hotel"', 'locality = "rome"', 'blist = { "b1" }']
        for d in day_values(days):
            attrs.append(f"room[{d}] = {row['rooms'][d]}")
            attrs.append(f'price["b1", {d}] = {row["price"][d]}')
        out.append(
            f"component Hotel{h} {{\n  attrs {{ " + "; ".join(attrs) + "; }\n"
            "  interface { id, type, locality }\n  run BHot | CHot\n}"
        )
    out.append("")
    for c in range(1, customers + 1):
        out += [
            f'property inquiry_finishes_c{c} = sent(Cust{c}, "acms") leadsto received(Cust{c}, "finish")',
            f'property booking_answered_c{c} = sent(Cust{c}, "book") leadsto '
            f'(received(Cust{c}, "confirm") || received(Cust{c}, "toolate"))',
            f'property toolate_retries_c{c} = received(Cust{c}, "toolate") leadsto sent(Cust{c}, "acms")',
            f'property commission_paid_c{c} = received(Cust{c}, "confirm") leadsto received(Broker1, "comission")',
            f'property confirm_reachable_c{c} = reachable received(Cust{c}, "confirm")',
        ]
    rooms = " && ".join(
        f"Hotel{h}.room[{d}] >= 0" for h in range(1, hotels + 1) for d in day_values(days)
    )
    out.append(f"property rooms_nonneg = invariant {rooms}")
    out.append('property toolate_reachable = reachable received(Cust1, "toolate")')
    return "\n".join(out) + "\n"


def roomy_verdicts(customers: int) -> Dict[str, str]:
    """Verdicts of `corpus_variant(customers, M, rooms=r)` with r >= customers,
    derived by hand.

    Every hotel offers (it has rooms) and the anchor's offer is always
    acceptable, so each customer gets a favourite and books it once.  A
    room only goes on a confirmation, each customer is confirmed at
    most once, and r >= N, so the booked hotel still has a room:
    `toolate` never happens.  Then no customer asks twice; CustF's guard
    `send = true` is never raised again, every component sends a bounded
    number of messages, and every maximal run is finite and ends in
    deadlock.  Each leads-to goal, once its trigger has happened, stays
    enabled until it is taken, so it is taken before the deadlock: every
    leads-to HOLDS (`toolate_retries` vacuously).  Each confirmation is
    reachable, no room goes below r - N >= 0, and `toolate` is
    unreachable.
    """
    verdicts = {}
    for c in range(1, customers + 1):
        for prop in ("inquiry_finishes", "booking_answered", "toolate_retries",
                     "commission_paid", "confirm_reachable"):
            verdicts[f"{prop}_c{c}"] = "holds"
    verdicts["rooms_nonneg"] = "holds"
    verdicts["toolate_reachable"] = "fails"
    return verdicts
