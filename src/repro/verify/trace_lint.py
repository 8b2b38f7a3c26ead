"""Lints over exported Chrome-trace JSON (rules O301-O303).

The span recorder (:mod:`repro.obs.spans`) exports structured traces
for Perfetto; this module is the verifier that closes the loop.  It
checks an exported trace object (or file) against the subset of the
Chrome trace-event format the exporter promises
(:data:`repro.obs.spans.CHROME_TRACE_SCHEMA`) and flags structural
trouble Perfetto would either reject or — worse — silently render
wrong:

* **O301 span-unclosed** — a ``"B"`` (begin) event with no matching
  end.  The exporter deliberately emits open spans this way (a run
  stopped mid-step leaves them), so the lint is how a pipeline notices
  that a trace is truncated.
* **O302 trace-schema** — a malformed event: missing required fields,
  an unknown phase, a non-list ``traceEvents`` container.
* **O303 span-negative-duration** — a complete ``"X"`` span with
  ``dur < 0`` or a non-numeric timestamp.

Used by ``repro trace --check`` and the CI observability job; import
:func:`lint_chrome_trace` directly for programmatic use.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.obs.spans import CHROME_TRACE_SCHEMA
from repro.verify.diagnostics import Diagnostic, Report

__all__ = ["lint_chrome_trace", "lint_trace_file"]


def _event_name(event: Mapping[str, Any], index: int) -> str:
    name = event.get("name") if isinstance(event, Mapping) else None
    return f"event[{index}]" + (f" {name!r}" if name else "")


def lint_chrome_trace(trace: Any, source: str = "<trace>") -> Report:
    """Check one exported Chrome-trace object; returns a Report."""
    report = Report()
    if not isinstance(trace, Mapping):
        report.add(Diagnostic(
            "O302",
            f"trace root must be a JSON object, got {type(trace).__name__}",
            source=source,
        ))
        return report
    key = CHROME_TRACE_SCHEMA["container_key"]
    events = trace.get(key)
    if not isinstance(events, list):
        report.add(Diagnostic(
            "O302",
            f"trace has no {key!r} list "
            f"(got {type(events).__name__})",
            source=source,
        ))
        return report

    phases = CHROME_TRACE_SCHEMA["phases"]
    required = CHROME_TRACE_SCHEMA["required"]
    checked = 0
    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            report.add(Diagnostic(
                "O302",
                f"{_event_name(event, i)}: not a JSON object",
                source=source,
            ))
            continue
        ph = event.get("ph")
        if ph not in phases:
            report.add(Diagnostic(
                "O302",
                f"{_event_name(event, i)}: unknown phase {ph!r} "
                f"(exporter emits {'/'.join(phases)})",
                source=source,
            ))
            continue
        missing = [f for f in required[ph] if f not in event]
        if missing:
            report.add(Diagnostic(
                "O302",
                f"{_event_name(event, i)}: phase {ph!r} missing "
                f"required field(s) {missing}",
                source=source,
            ))
            continue
        checked += 1
        if ph == "B":
            report.add(Diagnostic(
                "O301",
                f"{_event_name(event, i)}: span opened at ts={event['ts']} "
                "but never closed (truncated run or abandoned generator)",
                task=(event.get("args") or {}).get("task"),
                source=source,
            ))
        elif ph == "X":
            ts, dur = event["ts"], event["dur"]
            if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)):
                report.add(Diagnostic(
                    "O303",
                    f"{_event_name(event, i)}: non-numeric ts/dur "
                    f"({ts!r}, {dur!r})",
                    source=source,
                ))
            elif dur < 0 or ts < 0:
                report.add(Diagnostic(
                    "O303",
                    f"{_event_name(event, i)}: negative timing "
                    f"(ts={ts}, dur={dur})",
                    source=source,
                ))
    report.note(f"{source}: {checked} of {len(events)} event(s) well-formed")
    return report


def lint_trace_file(path: str) -> Report:
    """Load a trace JSON file and lint it (O302 on unparseable JSON)."""
    try:
        with open(path) as fh:
            trace = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        report = Report()
        report.add(Diagnostic(
            "O302", f"cannot load trace: {type(e).__name__}: {e}", source=path
        ))
        return report
    return lint_chrome_trace(trace, source=path)
