"""Structured-log sinks: the paper's "logged to the system log", parseable.

The instrumented driver emits one log line per batch (§3.1); dmesg-style
text is hostile to analysis, so :class:`NdjsonSink` writes newline-delimited
JSON instead — one self-describing object per line, streamable and
append-only.  Batch records, flight-recorder events (when tracing), and
arbitrary dict payloads share one file, discriminated by a ``type`` field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Optional, Union

from .flight import event_dict


class NdjsonSink:
    """Newline-delimited JSON writer for batch records and events."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = self.path.open("w", encoding="utf-8")

    # ------------------------------------------------------------- writing

    def write(self, obj: dict) -> None:
        """Write one JSON object as one line."""
        if self._fh is None:
            raise ValueError(f"sink {self.path} is closed")
        self._fh.write(json.dumps(obj) + "\n")

    def write_batch_record(self, record) -> None:
        """Log one :class:`~repro.core.batch_record.BatchRecord`."""
        payload = {"type": "batch_record"}
        payload.update(record.to_dict())
        self.write(payload)

    def write_event(self, event) -> None:
        """Log one flight-recorder ``(t, kind, args)`` event."""
        self.write({"type": "event", **event_dict(event)})

    # ----------------------------------------------------------- rewinding

    def tell(self) -> Optional[int]:
        """The file offset the next line goes to (None once closed)."""
        return None if self._fh is None else self._fh.tell()

    def truncate(self, offset: Optional[int]) -> None:
        """Drop the lines written after :meth:`tell` returned ``offset`` (a
        checkpoint restore calls this, as :meth:`FlightRecorder.rewind`)."""
        if self._fh is not None and offset < self._fh.tell():
            self._fh.seek(offset)
            self._fh.truncate()

    # ----------------------------------------------------------- lifecycle

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __enter__(self) -> "NdjsonSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_ndjson(path: Union[str, Path]):
    """Parse every line of an NDJSON file (convenience for analysis/tests)."""
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
