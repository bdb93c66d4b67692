"""Traffic/capture simulators and sufficient-statistic samplers.

Two fidelity levels, both exercising the identical attack code:

- **packet level** — real RC4, real protocol stacks, small N
  (:mod:`repro.simulate.wifi`, :mod:`repro.simulate.https` glue the
  substrates together);
- **statistic level** — the likelihood estimators consume only *count
  vectors*; sampling those counts directly from the model-induced
  multinomial is statistically exact and reaches the paper's ciphertext
  scales (:mod:`repro.simulate.sampling`).  This is how the paper's own
  simulation figures (7, 8, 10) must have been produced — 2048 trials at
  2**39 ciphertexts cannot be generated cipher-by-cipher either.

:mod:`repro.simulate.timing` converts packet/request counts into
wall-clock durations using the rates the paper measured.
"""

from .sampling import (
    sample_absab_differential_counts,
    sample_digraph_counts,
    sample_single_byte_counts,
)
from .tkip_stats import sampled_capture
from .timing import (
    AttackTimeline,
    tkip_timeline,
    tls_timeline,
)
from .wifi import WifiAttackSimulation
from .https import HttpsAttackSimulation

__all__ = [
    "AttackTimeline",
    "HttpsAttackSimulation",
    "WifiAttackSimulation",
    "sample_absab_differential_counts",
    "sample_digraph_counts",
    "sample_single_byte_counts",
    "sampled_capture",
    "tkip_timeline",
    "tls_timeline",
]
