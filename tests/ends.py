"""The ends of a test input range, listed before a test's seeded draws.

Draws from a seeded random.Random are pinned by the seed alone, but uniform
draws almost never land on an end of their range, where underflow and
cancellation live.  So a randomized test loops over range_ends(top) first.
"""

import math


def range_ends(top):
    """0 and its float neighbour, two tiny values, 1 and top with their lower
    float neighbours: the ends of [0, top] for top >= 1."""
    return sorted({0.0, 5e-324, 1e-210, 1e-12, math.nextafter(1.0, 0.0), 1.0,
                   math.nextafter(top, 0.0), top})
