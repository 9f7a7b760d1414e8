"""Lane-aware tap reading shared by every kernel run helper.

PR 8's conformance matrix surfaced a whole class of golden-reference
drift: kernel helpers that read ``tap.samples`` directly return
*lists of lanes* (not samples) the moment the ring runs the ``batch``
backend, silently breaking on any engine but the scalar ones.
:func:`tap_lane0` is the one idiom every recipe uses instead — a
scalar tap's samples, or lane 0 of a batch tap (a scalar host stream
broadcasts, so every lane computes the golden answer and lane 0 is the
canonical one).
"""

from __future__ import annotations

from typing import List


def tap_lane0(tap) -> List[int]:
    """Raw sample stream of a tap, whatever engine recorded it.

    ``OutputTap`` stores scalar words; ``BatchOutputTap`` stores one
    word per lane and exposes ``lane()`` views — this helper collapses
    both to the scalar (lane 0) stream the golden references model.
    """
    if hasattr(tap, "lane"):
        return list(tap.lane(0))
    return list(tap.samples)
