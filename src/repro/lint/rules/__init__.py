"""Rule modules — importing this package registers every rule.

Rule groups, by the contract they enforce:

* :mod:`~repro.lint.rules.determinism` — the simulator-path packages must
  stay bit-for-bit replayable (no ambient clocks, no global randomness, no
  hash-order iteration into sends, no id()-based ordering);
* :mod:`~repro.lint.rules.asyncio_hazards` — :mod:`repro.net` must not
  stall, drop, or silence the event loop;
* :mod:`~repro.lint.rules.payload` — protocol payloads must survive the
  wire codec;
* :mod:`~repro.lint.rules.records` — trace emissions and metric updates
  must match the :mod:`repro.obs` event-schema and metric-schema
  registries;
* :mod:`~repro.lint.rules.protocol` — every message kind and service op
  sent anywhere in the program has a dispatch arm, and every arm a
  producer.
"""

# Import order is registration order, which is the ``--rules`` listing order.
from . import (  # noqa: F401
    determinism,
    asyncio_hazards,
    payload,
    records,
    protocol,
)

__all__ = [
    "determinism",
    "asyncio_hazards",
    "payload",
    "records",
    "protocol",
]
