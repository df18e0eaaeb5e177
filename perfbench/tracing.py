"""Spans and counters recorded around the benchmark's calls into subdeg.

Spans stay in memory and are written out once, when the run ends. Each
span carries the round it belongs to, so the spans of one round share an
identifier, and the span that was open when it started as its parent.
Each span also carries the speed scale of the latest calibration
(calibrate.py); per-round totals are in reference seconds.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

class Tracer:
    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []
        self.round = 0
        self.scale = 1.0

    def calibrate(self) -> None:
        """Time the calibration loop; later spans are scaled by it."""
        loop = self.clock.loop_s()
        self.scale = self.clock.reference_s / loop
        self.count_sample("calibration.loop_s", loop)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "round": self.round, "name": name, "parent": parent, "scale": self.scale}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add to a per-round counter (or rate) recorded at a layer boundary."""
        self.counts.append({"round": self.round, "name": name, "value": value})

    def count_sample(self, name: str, value: float) -> None:
        """Record a sample whose per-round figure is the median, not the sum."""
        self.counts.append({"round": self.round, "name": name, "value": value, "sample": True})

    def per_round(self) -> dict[str, list[float]]:
        """Each span name's total duration (reference seconds) and each
        counter's total, one value per traced round."""
        totals: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        samples: dict[str, dict[int, list]] = defaultdict(lambda: defaultdict(list))
        for s in self.spans:
            totals[s["name"]][s["round"]] += (s["end"] - s["start"]) * s["scale"]
        for c in self.counts:
            if c.get("sample"):
                samples[c["name"]][c["round"]].append(c["value"])
            else:
                totals[c["name"]][c["round"]] += c["value"]
        out = {name: list(by_round.values()) for name, by_round in totals.items()}
        out.update({name: [median(v) for v in by_round.values()] for name, by_round in samples.items()})
        return out

    def medians(self) -> dict[str, float]:
        return {name: median(vals) for name, vals in self.per_round().items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
