"""A horizon and a resolution oracle over the golden cases: a decided
verdict is a statement about the system, not about the horizon or the
basis it was found at, so growing the horizon must not overturn it, and a
refutation must not become a witness at a finer basis.

Every case of test_verdict_golden is checked at its horizon H, at H + 1 and
at 2H, and the hit-time properties at its basis r and at a finer one.  Of
ndslab this reads only checkers.check_property, checkers.scoped_caches, the
NDSL reader and the kinds of space, so it shares no code with any checker.

- transitive, weakly-mixing:m, multi-transitive:m and strongly-transitive:
  a witnessed or refuted status at H is the status at H + 1 and at 2H.
- mixing and mildly-mixing: a witness at H that is not witnessed at H + 1
  is a flip.  The flips are pinned to the two known false witnesses on the
  tail of a product, TPROD: a new flip fails this test, and so does mending
  those two.
- Resolution, for the properties of the first item: every open at a finer
  basis lies in an open at r (r + 1 on the shift, finite spaces and
  products, 2r on the circle), so a pair unhit at r leaves unhit pairs at
  the finer basis.  A refutation at r and a witness there contradict; a
  witness at r may stay inconclusive there, since a finer basis may need
  more time."""

import pytest
from test_verdict_golden import SYSTEMS, _cases, _key

from ndslab import checkers as ck
from ndslab import ndsl
from ndslab import spaces as sp

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


def _status(spec, prop, basis, horizon) -> str:
    with ck.scoped_caches():
        return ck.check_property(spec, prop, basis, horizon).status


@pytest.mark.parametrize("name", SYSTEMS)
def test_a_finer_basis_witnesses_no_refuted_property(name):
    contradictions, checked = [], 0
    for system, source, basis, horizon, prop in _cases():
        if system != name or prop.name not in STABLE:
            continue
        spec = ndsl.parse(source).system(system)
        finer = 2 * basis if isinstance(spec.space, sp.CircleSpace) else basis + 1
        coarse, fine = (_status(spec, prop, r, horizon) for r in (basis, finer))
        checked += 1
        if coarse == ck.REFUTED and fine == ck.WITNESSED:
            contradictions.append(f"{_key(system, prop)}: refuted at basis {basis}, witnessed at {finer}")
    assert checked and contradictions == []
