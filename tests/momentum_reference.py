"""The momentum rule on float mids, as `MomentumAgent` decided it before it
kept integer running sums, kept as the oracle for
`lobsim.agents.momentum.MomentumAgent`.

Fed the same mids, the agent must decide what `momentum_decide` decides on
the exact mids (as Fractions), and so what it decides on the float mids
wherever their float sums are exact.
"""

from itertools import islice
from typing import Optional, Sequence

from lobsim.book import Side


def momentum_decide(mid_history: Sequence[float], short_window: int = 20,
                    long_window: int = 50) -> Optional[Side]:
    """BID when the short-window mean exceeds the long-window mean, ASK when
    below, None on a tie or insufficient history.  Only the trailing
    long_window observations matter."""
    n = len(mid_history)
    if n < long_window:
        return None
    short_mean = sum(islice(mid_history, n - short_window, None)) / short_window
    long_mean = sum(islice(mid_history, n - long_window, None)) / long_window
    if short_mean > long_mean:
        return Side.BID
    if short_mean < long_mean:
        return Side.ASK
    return None
