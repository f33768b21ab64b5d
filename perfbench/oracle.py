"""Output oracle: every echoed value must equal what was sent.

A message's answers are checked position by position against its
requests, so a lost, extra, reordered or altered entry shows as a
mismatch.  Faults and timeouts are failures too, but not wrong outputs:
only mismatches make the benchmark exit nonzero.
"""

from __future__ import annotations

import threading

from repro.errors import PackError, SoapFaultError, TransportError


class Oracle:
    """Counts calls attempted and how each failed; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.faults = 0
        self.timeouts = 0
        self.mismatches = 0
        self.first_mismatch: str | None = None

    @property
    def failed(self) -> int:
        return self.faults + self.timeouts + self.mismatches

    @property
    def correct(self) -> bool:
        return self.mismatches == 0

    def check_message(self, sent: list[str], futures) -> bool:
        """Check one message's futures against its payloads, in order.

        Returns True when every call came back equal to its request.
        """
        faults = timeouts = mismatches = 0
        detail = None
        if len(futures) != len(sent):
            mismatches = len(sent)
            detail = f"{len(futures)} answers for {len(sent)} calls"
        else:
            for index, (payload, future) in enumerate(zip(sent, futures)):
                if not future.done():
                    timeouts += 1
                    continue
                error = future.exception(timeout=0)
                if error is None:
                    got = future.result(timeout=0)
                    if got != payload:
                        mismatches += 1
                        detail = detail or f"entry {index}: sent {payload!r}, got {got!r}"
                    continue
                kind = classify(error)
                if kind == "timeout":
                    timeouts += 1
                elif kind == "mismatch":
                    mismatches += 1
                    detail = detail or f"entry {index}: {error}"
                else:
                    faults += 1
        self._count(len(sent), faults, timeouts, mismatches, detail)
        return not (faults or timeouts or mismatches)

    def check_value(self, sent: str, got) -> bool:
        """Check one unpacked call's result."""
        ok = got == sent
        self._count(
            1, 0, 0, 0 if ok else 1, None if ok else f"sent {sent!r}, got {got!r}"
        )
        return ok

    def record_error(self, error: BaseException, calls: int = 1) -> None:
        """Count ``calls`` calls that failed with ``error`` as a whole."""
        kind = classify(error)
        self._count(
            calls,
            calls if kind == "fault" else 0,
            calls if kind == "timeout" else 0,
            calls if kind == "mismatch" else 0,
            f"{type(error).__name__}: {error}" if kind == "mismatch" else None,
        )

    def _count(self, attempted: int, faults: int, timeouts: int, mismatches: int,
               detail: str | None) -> None:
        with self._lock:
            self.attempted += attempted
            self.faults += faults
            self.timeouts += timeouts
            self.mismatches += mismatches
            if detail is not None and self.first_mismatch is None:
                self.first_mismatch = detail


def classify(error: BaseException) -> str:
    """``timeout``, ``mismatch`` (a pack answer missing or malformed) or
    ``fault`` (anything the server or the wire refused)."""
    if isinstance(error, TransportError) and "timed out" in str(error):
        return "timeout"
    if isinstance(error, SoapFaultError):
        return "timeout" if error.faultcode.endswith("Timeout") else "fault"
    if isinstance(error, PackError):
        return "mismatch"
    return "fault"
