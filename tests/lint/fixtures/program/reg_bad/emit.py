"""Every kind/name below is a *constant*, imported from names.py — the
record-site rules judge them through the project model's constant table."""

from .names import BAD_KIND, BAD_METRIC, DECIDE, SENT


def record_events(trace, now):
    trace.record(now, BAD_KIND, pid=0)  # bad: unregistered event kind
    trace.record(now, DECIDE, algo="ec")  # bad: missing round, value


def record_metrics(metrics):
    metrics.inc(BAD_METRIC)  # bad: unregistered metric name
    metrics.inc(SENT, amount=8)  # bad: missing the declared channel label
