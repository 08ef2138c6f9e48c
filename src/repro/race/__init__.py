"""Runtime race detection for the sharded engine.

* :mod:`repro.race.detector` (imported lazily -- it pulls in the whole
  NDP model): a seeded interleaving fuzzer proving bit-identical state
  digests against canonical execution order;
* :mod:`repro.race.ledger`: the boundary hash ledger that
  ``ForkTransport`` engages under ``NDPBRIDGE_SANITIZE=1``;
* :mod:`repro.race.fingerprints`: the env-knob registry the RC003 rule
  (:mod:`repro.analyze`) and the result cache both enforce.
"""

from .fingerprints import ENV_REGISTRY, EnvKnob

__all__ = ["ENV_REGISTRY", "EnvKnob"]
