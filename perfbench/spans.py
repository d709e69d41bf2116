"""In-memory spans recorded around the benchmark's calls into the program.

A span is (id, name, start, end, parent id, trial).  Spans stay in memory
while the run measures and are written out once it has ended.  A span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

# span name -> layer, for the calls the benchmark times
LAYER_OF = {
    "sample_graph": "sample",
    "laplacian": "sample",
    "connected_components": "sample",
    "sample_symmetric": "sample",
    "sylow_paired_group": "reduce",
    "tensor_quotient_with_dual_pairing": "reduce",
    "canonical_pair_class": "classify",
    "groups_at_primes": "predict",
    "pairing_class_table": "predict",
    "prediction_table": "predict",
    "count_sur_star_pushforward": "count",
    "pushforward_route": "count",
    "sur_star_congruence_table": "count",
    "lifted_route": "count",
    "pooled_chi_square": "report",
    "canonical_json": "report",
    "write_outputs": "report",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, trial]
        self._stack: list[int] = []
        self.trial: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.trial]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def self_times(self) -> list[tuple[str, float]]:
        """(name, self time in seconds) for every span."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(s[1], s[3] - s[2] - child_time[s[0]]) for s in self.spans]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, trial in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "trial": trial}
                    )
                    + "\n"
                )


class NoTracer:
    """Stands in for a Tracer where nothing is recorded."""

    trial = None

    def span(self, name: str):
        return nullcontext()
