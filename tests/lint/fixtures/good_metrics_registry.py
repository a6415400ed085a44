"""Good: metric updates conforming to the metric-schema registry."""


class Component:
    def on_deliver(self, name, labels):
        self.metrics.inc("messages_sent_total", channel="fd")
        self.metrics.inc("bytes_sent_total", amount=128, channel="fd")
        self.metrics.inc("svc_redirects_total")
        self.metrics.set("fd_suspected_size", 2, channel="fd")
        self.metrics.inc(name, channel="fd")  # dynamic name: run-time checked
        self.metrics.inc("messages_sent_total", **labels)  # splat: run time


def sample(host):
    host.metrics.set("transport_frames_sent", 41)
