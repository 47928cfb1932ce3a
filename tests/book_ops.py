"""Random order-sequence harness driving the matching engine and the naive
reference matcher in lockstep."""

from lobsim.book import Order, OrderBook, OrderKind, Side

from reference_matcher import ASK, BID, ReferenceBook

_SIDE_NAME = {Side.BID: BID, Side.ASK: ASK}


def random_operations(rng, n_ops: int, mid: int = 10_000):
    """A plausible mixed op stream: mostly limits near the mid, some markets,
    cancels and reduces against live ids, occasional bogus ids and shared
    timestamps (exercising the (placed_at, order_id) tie-break)."""
    ops = []
    live = []
    next_id = 1
    now = 0
    for _ in range(n_ops):
        now += int(rng.integers(0, 3))  # repeats allowed on purpose
        roll = rng.random()
        if roll < 0.55 or not live:
            price = mid + int(rng.integers(-20, 21))
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            ops.append(("limit", next_id, side, price, int(rng.integers(1, 200)), now))
            live.append(next_id)
            next_id += 1
        elif roll < 0.70:
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            ops.append(("market", next_id, side, 0, int(rng.integers(1, 400)), now))
            next_id += 1
        elif roll < 0.90:
            target = int(rng.choice(live)) if rng.random() < 0.9 else next_id + 10_000
            ops.append(("cancel", target, None, 0, 0, now))
        else:
            target = int(rng.choice(live)) if rng.random() < 0.9 else next_id + 10_000
            ops.append(("reduce", target, None, 0, int(rng.integers(1, 120)), now))
    return ops


def apply_to_real(ops, book: OrderBook):
    """Returns (fills, cancelled_total) where fills are comparable tuples."""
    fills = []
    cancelled = 0
    for kind, order_id, side, price, quantity, now in ops:
        if kind == "limit":
            result = book.submit(Order(order_id, 0, side, price, quantity,
                                       OrderKind.LIMIT, now))
            fills.extend((f.taker_order_id, f.maker_order_id, f.price_ticks, f.quantity)
                         for f in result.fills)
        elif kind == "market":
            result = book.submit(Order(order_id, 0, side, 0, quantity,
                                       OrderKind.MARKET, now))
            fills.extend((f.taker_order_id, f.maker_order_id, f.price_ticks, f.quantity)
                         for f in result.fills)
            cancelled += quantity - sum(f.quantity for f in result.fills)
        elif kind == "cancel":
            cancelled += book.cancel(order_id)
        else:
            resting = book.order(order_id)
            if resting is not None:
                before = resting.quantity
                remaining = book.reduce(order_id, quantity)
                cancelled += before - remaining
    return fills, cancelled


def apply_to_reference(ops, ref: ReferenceBook):
    fills = []
    for kind, order_id, side, price, quantity, now in ops:
        if kind == "limit":
            step, _ = ref.submit(order_id, _SIDE_NAME[side], price, quantity, False, now)
            fills.extend(step)
        elif kind == "market":
            step, _ = ref.submit(order_id, _SIDE_NAME[side], price, quantity, True, now)
            fills.extend(step)
        elif kind == "cancel":
            ref.cancel(order_id)
        else:
            ref.reduce(order_id, quantity)
    return fills


def real_state(book: OrderBook) -> dict:
    """Canonical per-order book state in the reference matcher's shape."""
    out = {}
    for name, side in ((BID, Side.BID), (ASK, Side.ASK)):
        levels = []
        for price, _total, _count in book.side_levels(side):
            queue = book.level_orders(side, price)
            levels.append((price, [(o.order_id, o.quantity) for o in queue]))
        out[name] = levels
    return out


def run_lockstep(rng, n_ops: int):
    """One randomized sequence through both books; returns everything a test
    needs to assert equivalence and conservation."""
    ops = random_operations(rng, n_ops)
    book = OrderBook()
    ref = ReferenceBook()
    fills, cancelled = apply_to_real(ops, book)
    ref_fills = apply_to_reference(ops, ref)
    submitted = sum(op[4] for op in ops if op[0] in ("limit", "market"))
    return {
        "ops": ops,
        "book": book,
        "ref": ref,
        "fills": fills,
        "ref_fills": ref_fills,
        "submitted": submitted,
        "cancelled": cancelled,
    }
