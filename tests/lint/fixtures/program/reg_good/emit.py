"""Near-misses for the record-site rules: valid constants, a valid literal
kind, and a genuinely dynamic kind."""

from .names import DECIDE, SENT


def record_events(trace, now, kind):
    trace.record(now, DECIDE, algo="ec", round=1, value="v")  # fine
    trace.record(now, "decide", algo="ec", round=1, value="v")  # literal
    trace.record(now, kind, pid=0)  # dynamic: checked at run time


def record_metrics(metrics):
    metrics.inc(SENT, amount=8, channel="fd")  # fine: exact labels
