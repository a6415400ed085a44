"""Bad: metric updates that violate the metric-schema registry."""


class Component:
    def on_deliver(self):
        self.metrics.inc("message_sent_total", channel="fd")  # typo'd name
        self.metrics.inc("messages_sent_total")  # missing the channel label
        self.metrics.inc("svc_redirects_total", channel="fd")  # no labels declared
        self.metrics.set("fd_suspected_size", 2, chan="fd")  # wrong label key


def sample(host):
    host.metrics.observe("transport_latency", 0.5)  # unregistered histogram
