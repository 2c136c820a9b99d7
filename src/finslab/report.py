"""Machine-readable verification reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np


def worst_deviation(deviations) -> float:
    """The largest of some non-negative deviations, given as a sequence or
    an array (0 if there are none), NaN if any is NaN.  Python's max drops
    a NaN that does not come first, which would let a broken sample pass."""
    return float(np.max(np.asarray(deviations, dtype=float), initial=0.0))


@dataclass
class VerificationReport:
    """One named check: sample count, deviations, tolerance, pass flag.

    ``passed`` is true iff ``max_deviation < tolerance``; the tolerance is
    echoed inside ``config``.  JSON field order follows the declaration
    order below (the ``passed`` attribute serializes as ``"pass"``).
    ``cli.run`` stamps ``wall_time_ms`` and the ``config`` echo; reports
    built by the library ``check_*`` functions leave the time at 0.
    """

    check: str
    config: dict
    n_samples: int
    max_deviation: float
    per_level: list = field(default_factory=list)
    passed: bool = False
    wall_time_ms: int = 0

    def to_dict(self) -> dict:
        return {"pass" if f.name == "passed" else f.name: getattr(self, f.name)
                for f in fields(self)}

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
