"""Bad: hot-path series bound against the metric-schema registry wrongly."""


class Path:
    def __init__(self, metrics):
        self._sent = metrics.bind("message_sent_total", "channel")  # typo
        self._delivered = metrics.bind("messages_delivered_total")  # no label
        self._dropped = metrics.bind("messages_dropped_total", "channel")
