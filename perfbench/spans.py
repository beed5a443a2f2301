"""In-memory span recorder for the traced benchmark run.

The benchmark records one span around each call it makes into a layer
of the program (name, start, end, parent span, operation id).  Spans
stay in memory and are written out once, when the run ends.  A
layer's *self time* is its span's duration minus the time covered by
its child spans.

The untraced run drives the same call sequence through
:data:`NULL_RECORDER`, so the difference between the two runs is the
cost of recording alone.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional

__all__ = ["Recorder", "NullRecorder", "NULL_RECORDER"]


class Recorder:
    """Spans of one traced run, kept in memory until :meth:`write`."""

    enabled = True

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, operation id]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus its children's time.

        Spans on one thread nest without overlapping, so the time the
        children cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _parent, _op), children in zip(
            self.spans, child_time
        ):
            out[name] = out.get(name, 0.0) + (end - start) - children
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent if parent >= 0 else None,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class NullRecorder:
    """Same interface as :class:`Recorder`; records nothing."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str, op: Optional[str] = None):
        return self._NULL


NULL_RECORDER = NullRecorder()
