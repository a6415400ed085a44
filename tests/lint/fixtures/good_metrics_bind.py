"""Good: hot-path series bound once with their declared labels."""


class Path:
    def __init__(self, metrics, label):
        self._sent = metrics.bind("messages_sent_total", "channel")
        self._dropped = metrics.bind("messages_dropped_total", "reason")
        self._frames = metrics.bind("transport_frames_sent")
        self._other = metrics.bind("bytes_sent_total", label)  # run time
