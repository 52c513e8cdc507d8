"""A horizon oracle over the golden cases: a decided verdict is a statement
about the system, not about the horizon it was found at, so growing the
horizon must not overturn it.

Every case of test_verdict_golden is checked at its horizon H, at H + 1 and
at 2H.  Of ndslab this reads only checkers.check_property,
checkers.scoped_caches and the NDSL reader, so it shares no code with any
checker.

- transitive, weakly-mixing:m, multi-transitive:m and strongly-transitive:
  a witnessed or refuted status at H is the status at H + 1 and at 2H.
- mixing and mildly-mixing: a witness at H that is not witnessed at H + 1
  is a flip.  The flips are pinned to the two known false witnesses on the
  tail of a product, TPROD: a new flip fails this test, and so does mending
  those two."""

import pytest
from test_verdict_golden import SYSTEMS, _cases, _key

from ndslab import checkers as ck
from ndslab import ndsl

# the statuses that must hold at every longer horizon once decided
STABLE = {"transitive", "weakly-mixing", "multi-transitive", "strongly-transitive"}
# the properties whose witness must survive one more time
WITNESS_KEPT = {"mixing", "mildly-mixing"}
KNOWN_FLIPS = {"TPROD mixing", "TPROD mildly-mixing"}


def _statuses(source, system, basis, horizon, prop) -> list:
    """The statuses at H, H + 1 and 2H, sharing one system's laws and masks."""
    spec = ndsl.parse(source).system(system)
    with ck.scoped_caches():
        return [ck.check_property(spec, prop, basis, h).status for h in (horizon, horizon + 1, 2 * horizon)]


@pytest.mark.parametrize("name", SYSTEMS)
def test_a_longer_horizon_overturns_no_decided_verdict(name):
    contradictions, flips = [], set()
    for system, source, basis, horizon, prop in _cases():
        if system != name:
            continue
        at_h, *longer = _statuses(source, system, basis, horizon, prop)
        key = _key(system, prop)
        if prop.name in STABLE and at_h != ck.INCONCLUSIVE:
            contradictions += [f"{key}: {at_h} at H, {s} later" for s in longer if s != at_h]
        if prop.name in WITNESS_KEPT and at_h == ck.WITNESSED and longer[0] != ck.WITNESSED:
            flips.add(key)
    assert contradictions == []
    assert flips == {key for key in KNOWN_FLIPS if key.split()[0] == name}
