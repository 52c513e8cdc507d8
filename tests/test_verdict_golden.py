"""Golden verdicts: a digest of (status, evidence, caveats) for every
property on a handful of small systems, pinned so that a refactor of the
verdict engine cannot change a verdict, an evidence entry or a caveat.

The systems cover each law shape the checkers branch on: a shift family on
arithmetic progressions and one on powers, a tail and an iterate, a circle
rotation family, a finite permutation, a non-surjective finite table, two
finite tables in alternation, products of shifts and of finite tables and
a tail and an iterate of a product, plus identities and late-acting rules
that leave the horizon silent.  Strongly-transitive on products is
left out: its verdict is covered by tests/test_checkers.py.

To re-pin after a deliberate change of evidence, print `_digests()`."""

import hashlib
import json
import random

import pytest

from ndslab import checkers as ck
from ndslab import ndsl
from ndslab import spaces as sp

SOURCE = """space shift(2);
system AP {
  at ap(3,2,k): sigma^k;
  at ap(4,2,k): sigma^-k;
}
system POW {
  at pow(2,0,k): sigma^k;
  at pow(2,1,k): sigma^-k;
}
system ALT {
  at ap(1,2,k): sigma^k;
  at ap(2,2,k): sigma^-k;
}
system CS {
  else: sigma^1;
}
system ID {
  else: id;
}
system LATE {
  at 100: sigma^5;
}
system TAIL = tail(AP, 2);
system ITER = iterate(ALT, 2);
system PROD = product(CS, ALT);
system TPROD = tail(PROD, 2);
"""

CIRCLE = """space circle(sqrt2m1);
system ROT {
  at pow(3,0,k): rot^k;
  at pow(3,1,k): rot^-k;
}
"""

FINITE = """space finite(3);
system PERM {
  else: table{1->2,2->3,3->1};
}
system SQUASH {
  at 1: table{1->2,2->3,3->1};
  else: table{1->2,2->2,3->1};
}
system FID {
  else: id;
}
system LATESQ {
  at 40: table{1->1,2->1,3->1};
}
system FPROD = product(SQUASH, PERM);
system IFPROD = iterate(FPROD, 2);
"""

# the steps alternate two tables that generate the symmetric group on
# {1, 2, 3} and fix 4: a period-2 block, not one settled table
BLOCK = """space finite(4);
system SWAPS {
  at ap(1,2): table{1->2,2->1,3->3,4->4};
  else: table{1->1,2->3,3->2,4->4};
}
"""

# system -> (document, basis, horizon)
SYSTEMS = {
    "AP": (SOURCE, 2, 64),
    "POW": (SOURCE, 1, 64),
    "ALT": (SOURCE, 2, 48),
    "CS": (SOURCE, 1, 32),
    "ID": (SOURCE, 2, 32),
    "LATE": (SOURCE, 1, 64),
    "TAIL": (SOURCE, 2, 64),
    "ITER": (SOURCE, 1, 48),
    "PROD": (SOURCE, 1, 16),
    "TPROD": (SOURCE, 1, 16),
    "ROT": (CIRCLE, 3, 32),
    "PERM": (FINITE, 1, 32),
    "SQUASH": (FINITE, 1, 32),
    "FID": (FINITE, 1, 16),
    "LATESQ": (FINITE, 1, 32),
    "FPROD": (FINITE, 1, 16),
    "IFPROD": (FINITE, 1, 16),
    "SWAPS": (BLOCK, 1, 32),
}

PROPERTIES = (
    ("transitive", []),
    ("weakly-mixing", []),
    ("weakly-mixing", [3]),
    ("mixing", []),
    ("mildly-mixing", []),
    ("totally-transitive", [2]),
    ("strongly-transitive", []),
    ("multi-transitive", [2]),
    ("syndetically-transitive", []),
    ("minimal", []),
    ("feeble-open", []),
    ("dense-periodic-points", []),
    ("almost-periodic-point", []),
    ("sensitive", ["1/2"]),
    ("sensitive", ["1/3"]),
    ("sensitive", ["1/8"]),
    ("syndetically-sensitive", ["1/4"]),
    ("thickly-sensitive", ["1/2"]),
    ("thickly-sensitive", ["1/4", 2]),
    ("thickly-sensitive", ["1/4", 40]),
    ("multi-sensitive", ["1/4", 2]),
    ("multi-sensitive", ["1/16", 3]),
    ("multi-sensitive", ["1/2", 2]),
    ("surjective-sequence", []),
)

SKIPPED = {(system, "strongly-transitive") for system in ("PROD", "TPROD", "FPROD", "IFPROD")}


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _cases():
    for system, (source, basis, horizon) in SYSTEMS.items():
        for name, params in PROPERTIES:
            if (system, name) not in SKIPPED:
                yield system, source, basis, horizon, ndsl.parse_property(name, params)


def _key(system, prop) -> str:
    return f"{system} {prop.render()}"


def _verdict(source, system, basis, horizon, prop) -> ck.Verdict:
    return ck.check_property(ndsl.parse(source).system(system), prop, basis, horizon)


def _verdict_digest(v: ck.Verdict) -> str:
    """The digest of what the checker found: status, evidence and caveats."""
    return _digest([v.status, v.evidence, list(v.caveats)])


CONSISTENCY = (
    ("CS", "weakly-mixing", 2, 1, 32, 4),
    ("CS", "weakly-mixing", 2, 2, 24, 3),
    ("TAIL", "multi-transitive", 2, 1, 64, 2),
    ("CS", "multi-transitive", 2, 1, 32, 3),
    ("CS", "weakly-mixing", 2, 1, 32, 40),
    ("CS", "multi-transitive", 2, 1, 32, 40),
    ("ALT", "weakly-mixing", 3, 1, 32, 2),
)


def _consistency_digest(system, name, order, basis, horizon, members) -> str:
    spec = ndsl.parse(SOURCE).system(system)
    rep = ck.hitting_infinity_consistency(
        spec, ck.PropertyKind(name, order=order), basis, horizon, members
    )
    return _digest([rep.ok, rep.members_required, rep.kth_common_time, rep.detail])


def _digests() -> dict:
    out = {
        _key(system, prop): _verdict_digest(_verdict(source, system, basis, horizon, prop))
        for system, source, basis, horizon, prop in _cases()
    }
    for case in CONSISTENCY:
        out["consistency " + " ".join(map(str, case))] = _consistency_digest(*case)
    return out


PINNED = {
    "ALT almost-periodic-point": "bac25ee7449ddde8",
    "ALT dense-periodic-points": "1426e222dc3f8df9",
    "ALT feeble-open": "a96f3eb460d239f6",
    "ALT mildly-mixing": "8edb1610031ccca5",
    "ALT minimal": "e4dad6533613dba6",
    "ALT mixing": "b5173eb41eeb34a5",
    "ALT multi-sensitive:1/16": "46ae07e743fc2295",
    "ALT multi-sensitive:1/2,2": "27f5703a37611a7e",
    "ALT multi-sensitive:1/4,2": "27f5703a37611a7e",
    "ALT multi-transitive:2": "168c18e0990ee0e7",
    "ALT sensitive:1/2": "0d4fc1c7444430be",
    "ALT sensitive:1/3": "0d4fc1c7444430be",
    "ALT sensitive:1/8": "0d4fc1c7444430be",
    "ALT strongly-transitive": "4610ec0f74fe9013",
    "ALT surjective-sequence": "ae8b86e1f0d2bf66",
    "ALT syndetically-sensitive:1/4": "2adefa878fd3059b",
    "ALT syndetically-transitive": "2fe537735466f10e",
    "ALT thickly-sensitive:1/2": "41750bfc441893ef",
    "ALT thickly-sensitive:1/4,2": "4c8427d38fee90a0",
    "ALT thickly-sensitive:1/4,40": "8b744265481a1246",
    "ALT totally-transitive:2": "12f9d5b1af546e66",
    "ALT transitive": "c2c5d1154246d1df",
    "ALT weakly-mixing:2": "3ebb85bb046bfc19",
    "ALT weakly-mixing:3": "3ebb85bb046bfc19",
    "AP almost-periodic-point": "4559716471734926",
    "AP dense-periodic-points": "7f4e5958466daa84",
    "AP feeble-open": "a96f3eb460d239f6",
    "AP mildly-mixing": "ca99f876f479e4dd",
    "AP minimal": "e4dad6533613dba6",
    "AP mixing": "284db8bfa78495aa",
    "AP multi-sensitive:1/16": "b355dacabf07baeb",
    "AP multi-sensitive:1/2,2": "269833f32c983332",
    "AP multi-sensitive:1/4,2": "93a8ce283fdf1a23",
    "AP multi-transitive:2": "8bd90cae1fe098eb",
    "AP sensitive:1/2": "c6413d7186361d42",
    "AP sensitive:1/3": "a1a3414f02c56c9b",
    "AP sensitive:1/8": "a1a3414f02c56c9b",
    "AP strongly-transitive": "4610ec0f74fe9013",
    "AP surjective-sequence": "ae8b86e1f0d2bf66",
    "AP syndetically-sensitive:1/4": "67e39d976bc6edac",
    "AP syndetically-transitive": "f060e2a8db9f59db",
    "AP thickly-sensitive:1/2": "dc2fa36fbd71f675",
    "AP thickly-sensitive:1/4,2": "f2e8bd9adf3368f4",
    "AP thickly-sensitive:1/4,40": "001a3e70d5c7e943",
    "AP totally-transitive:2": "12f9d5b1af546e66",
    "AP transitive": "d0f9a8390fb14ec1",
    "AP weakly-mixing:2": "dd4a58ce2b2c6543",
    "AP weakly-mixing:3": "dd4a58ce2b2c6543",
    "CS almost-periodic-point": "f708032b5b4b3e58",
    "CS dense-periodic-points": "5bd100fba566e251",
    "CS feeble-open": "a96f3eb460d239f6",
    "CS mildly-mixing": "e2940062511fe427",
    "CS minimal": "b49f1c47840cab83",
    "CS mixing": "c57335494003c524",
    "CS multi-sensitive:1/16": "a010f55ba0ccc4b2",
    "CS multi-sensitive:1/2,2": "be99eed9bdea3b23",
    "CS multi-sensitive:1/4,2": "be99eed9bdea3b23",
    "CS multi-transitive:2": "fdb8a1cfe45645f3",
    "CS sensitive:1/2": "d7dfdf70d226b228",
    "CS sensitive:1/3": "d7dfdf70d226b228",
    "CS sensitive:1/8": "d7dfdf70d226b228",
    "CS strongly-transitive": "51daf0a7b03e2cfe",
    "CS surjective-sequence": "ae8b86e1f0d2bf66",
    "CS syndetically-sensitive:1/4": "7db7385abdb8f41f",
    "CS syndetically-transitive": "0c9373d7190f25e3",
    "CS thickly-sensitive:1/2": "7f4ccd9519aef345",
    "CS thickly-sensitive:1/4,2": "5c1aa64e05663dd4",
    "CS thickly-sensitive:1/4,40": "e2195f511e08d328",
    "CS totally-transitive:2": "94b3ad6a8e9dec98",
    "CS transitive": "38891f8affe7b1ea",
    "CS weakly-mixing:2": "7e30b5807633f710",
    "CS weakly-mixing:3": "7e30b5807633f710",
    "FID almost-periodic-point": "d96c54f411833fc2",
    "FID dense-periodic-points": "1229bae0491e1bf3",
    "FID feeble-open": "f9906499cc6671d2",
    "FID mildly-mixing": "5c0c76259adf8980",
    "FID minimal": "ff42feb97061fcd7",
    "FID mixing": "ce4dded802e0dc1d",
    "FID multi-sensitive:1/16": "37f43a19f3f18864",
    "FID multi-sensitive:1/2,2": "37f43a19f3f18864",
    "FID multi-sensitive:1/4,2": "37f43a19f3f18864",
    # inconclusive -> refuted: a pair no prefix table reaches fails slot 1 (multi-transitive implies transitive)
    "FID multi-transitive:2": "ce4dded802e0dc1d",
    "FID sensitive:1/2": "37f43a19f3f18864",
    "FID sensitive:1/3": "37f43a19f3f18864",
    "FID sensitive:1/8": "37f43a19f3f18864",
    "FID strongly-transitive": "4e48f015d341858b",
    "FID surjective-sequence": "ae8b86e1f0d2bf66",
    "FID syndetically-sensitive:1/4": "37f43a19f3f18864",
    # reason text: the never-hit pair now cites table reach, the strongest grade
    "FID syndetically-transitive": "ce4dded802e0dc1d",
    "FID thickly-sensitive:1/2": "37f43a19f3f18864",
    "FID thickly-sensitive:1/4,2": "37f43a19f3f18864",
    "FID thickly-sensitive:1/4,40": "37f43a19f3f18864",
    "FID totally-transitive:2": "a456df76a0fe1985",
    "FID transitive": "ce4dded802e0dc1d",
    "FID weakly-mixing:2": "ce4dded802e0dc1d",
    "FID weakly-mixing:3": "ce4dded802e0dc1d",
    "FPROD almost-periodic-point": "06c5da286580dfdc",
    "FPROD dense-periodic-points": "a65d7b0d38306157",
    "FPROD feeble-open": "c5e9804943640e6b",
    # inconclusive -> refuted: the SQUASH factor's never-hit pair (factor rule)
    "FPROD mildly-mixing": "33aa55d19d662ccf",
    "FPROD minimal": "ac96868e37f7c8bf",
    # inconclusive -> refuted: the SQUASH factor's never-hit pair (factor rule)
    "FPROD mixing": "952896341bf52f8e",
    "FPROD multi-sensitive:1/16": "09c62f0b9cad0259",
    "FPROD multi-sensitive:1/2,2": "09c62f0b9cad0259",
    "FPROD multi-sensitive:1/4,2": "09c62f0b9cad0259",
    # inconclusive -> refuted: the SQUASH factor's never-hit pair (factor rule)
    "FPROD multi-transitive:2": "952896341bf52f8e",
    "FPROD sensitive:1/2": "153385fc26d1e559",
    "FPROD sensitive:1/3": "153385fc26d1e559",
    "FPROD sensitive:1/8": "153385fc26d1e559",
    "FPROD surjective-sequence": "e0e53dbde24b162f",
    "FPROD syndetically-sensitive:1/4": "153385fc26d1e559",
    # inconclusive -> refuted: the SQUASH factor's never-hit pair (factor rule)
    "FPROD syndetically-transitive": "952896341bf52f8e",
    "FPROD thickly-sensitive:1/2": "153385fc26d1e559",
    "FPROD thickly-sensitive:1/4,2": "153385fc26d1e559",
    "FPROD thickly-sensitive:1/4,40": "153385fc26d1e559",
    # inconclusive -> refuted: the SQUASH factor's never-hit pair (factor rule)
    "FPROD totally-transitive:2": "296a9faac00bdfd2",
    # inconclusive -> refuted: the SQUASH factor's never-hit pair (factor rule)
    "FPROD transitive": "952896341bf52f8e",
    # inconclusive -> refuted: the SQUASH factor's never-hit pair (factor rule)
    "FPROD weakly-mixing:2": "952896341bf52f8e",
    # inconclusive -> refuted: the SQUASH factor's never-hit pair (factor rule)
    "FPROD weakly-mixing:3": "952896341bf52f8e",
    "ID almost-periodic-point": "f708032b5b4b3e58",
    "ID dense-periodic-points": "e03187d0f7b35bc2",
    "ID feeble-open": "a96f3eb460d239f6",
    # reason text: the identity law's never-hit claim, the strongest grade
    "ID mildly-mixing": "da9308d7d374715f",
    "ID minimal": "e4dad6533613dba6",
    # reason text: the identity law's never-hit claim, the strongest grade
    "ID mixing": "960a56dc19995bc4",
    "ID multi-sensitive:1/16": "5e29bff7d5a9671b",
    "ID multi-sensitive:1/2,2": "0bd84b6e06fd0574",
    "ID multi-sensitive:1/4,2": "251a57d42b410c0d",
    "ID multi-transitive:2": "0bb1b9b05eb0588d",
    "ID sensitive:1/2": "0bd84b6e06fd0574",
    "ID sensitive:1/3": "a3e5b29704624fc8",
    "ID sensitive:1/8": "a3e5b29704624fc8",
    "ID strongly-transitive": "4610ec0f74fe9013",
    "ID surjective-sequence": "ae8b86e1f0d2bf66",
    "ID syndetically-sensitive:1/4": "91df46de8ed0b049",
    # reason text: the identity law's never-hit claim, the strongest grade
    "ID syndetically-transitive": "960a56dc19995bc4",
    "ID thickly-sensitive:1/2": "0bd84b6e06fd0574",
    "ID thickly-sensitive:1/4,2": "e1fd51600eb2fe9e",
    "ID thickly-sensitive:1/4,40": "57879d3b6015385c",
    "ID totally-transitive:2": "8e7cb9f469d3a95d",
    "ID transitive": "960a56dc19995bc4",
    "ID weakly-mixing:2": "960a56dc19995bc4",
    "ID weakly-mixing:3": "960a56dc19995bc4",
    "IFPROD almost-periodic-point": "06c5da286580dfdc",
    "IFPROD dense-periodic-points": "a65d7b0d38306157",
    "IFPROD feeble-open": "c5e9804943640e6b",
    "IFPROD mildly-mixing": "615bdbfed478dc1d",
    "IFPROD minimal": "ac96868e37f7c8bf",
    "IFPROD mixing": "80ff3f5ba33b2c49",
    "IFPROD multi-sensitive:1/16": "09c62f0b9cad0259",
    "IFPROD multi-sensitive:1/2,2": "09c62f0b9cad0259",
    "IFPROD multi-sensitive:1/4,2": "09c62f0b9cad0259",
    "IFPROD multi-transitive:2": "777010c680026e93",
    "IFPROD sensitive:1/2": "153385fc26d1e559",
    "IFPROD sensitive:1/3": "153385fc26d1e559",
    "IFPROD sensitive:1/8": "153385fc26d1e559",
    "IFPROD surjective-sequence": "d5aff44a357f96ef",
    "IFPROD syndetically-sensitive:1/4": "153385fc26d1e559",
    "IFPROD syndetically-transitive": "d5e41a21f00c3abd",
    "IFPROD thickly-sensitive:1/2": "153385fc26d1e559",
    "IFPROD thickly-sensitive:1/4,2": "153385fc26d1e559",
    "IFPROD thickly-sensitive:1/4,40": "153385fc26d1e559",
    "IFPROD totally-transitive:2": "ebe4523df602acf5",
    "IFPROD transitive": "a73f1eb5f6015b28",
    "IFPROD weakly-mixing:2": "0e6a45fafce83044",
    "IFPROD weakly-mixing:3": "0e6a45fafce83044",
    "ITER almost-periodic-point": "bac25ee7449ddde8",
    # inconclusive -> witnessed: ITER's law vanishes on every multiple of 2, so every point is 2-periodic
    "ITER dense-periodic-points": "9fb0f111fdaf1374",
    "ITER feeble-open": "a96f3eb460d239f6",
    # inconclusive -> refuted: not mixing by ITER's identity law, and mildly mixing implies mixing
    "ITER mildly-mixing": "a57415a44eb402b7",
    "ITER minimal": "b49f1c47840cab83",
    # inconclusive -> refuted: ITER's law, E = 0 at every step, proves the disjoint pair never hit
    "ITER mixing": "bcb2233b3aef3800",
    "ITER multi-sensitive:1/16": "038763cf7c41abd1",
    "ITER multi-sensitive:1/2,2": "a3120959f5296603",
    "ITER multi-sensitive:1/4,2": "a3120959f5296603",
    # inconclusive -> refuted: ITER's law is 0 at every multiple of 1, so slot 1 never connects the disjoint pair
    "ITER multi-transitive:2": "ee0d20ff7d076e5c",
    "ITER sensitive:1/2": "907865227aa34af3",
    "ITER sensitive:1/3": "907865227aa34af3",
    "ITER sensitive:1/8": "907865227aa34af3",
    "ITER strongly-transitive": "51daf0a7b03e2cfe",
    "ITER surjective-sequence": "ae8b86e1f0d2bf66",
    "ITER syndetically-sensitive:1/4": "faa898eb1661427a",
    # inconclusive -> refuted: ITER's law, E = 0 at every step, proves the disjoint pair never hit
    "ITER syndetically-transitive": "bcb2233b3aef3800",
    "ITER thickly-sensitive:1/2": "7869765e6aca9775",
    "ITER thickly-sensitive:1/4,2": "7064d0d0cefbb9fb",
    "ITER thickly-sensitive:1/4,40": "f38ee0924b001a98",
    # inconclusive -> refuted: iterate 1 is ITER itself, refuted transitive by its identity law
    "ITER totally-transitive:2": "d6c43d1ea3a47d96",
    # inconclusive -> refuted: ITER's law, E = 0 at every step, proves the disjoint pair never hit
    "ITER transitive": "bcb2233b3aef3800",
    # inconclusive -> refuted: ITER's law, E = 0 at every step, proves the disjoint pair never hit
    "ITER weakly-mixing:2": "bcb2233b3aef3800",
    # inconclusive -> refuted: ITER's law, E = 0 at every step, proves the disjoint pair never hit
    "ITER weakly-mixing:3": "bcb2233b3aef3800",
    "LATE almost-periodic-point": "4559716471734926",
    "LATE dense-periodic-points": "03d9e0f749e1d4a2",
    "LATE feeble-open": "a96f3eb460d239f6",
    "LATE mildly-mixing": "29c976a6ae6b94b1",
    "LATE minimal": "b49f1c47840cab83",
    "LATE mixing": "45039dbe9810f602",
    "LATE multi-sensitive:1/16": "677522e9b4a7efe4",
    "LATE multi-sensitive:1/2,2": "6d1fbe2475c40b25",
    "LATE multi-sensitive:1/4,2": "6d1fbe2475c40b25",
    "LATE multi-transitive:2": "777010c680026e93",
    "LATE sensitive:1/2": "1147759c704a324f",
    "LATE sensitive:1/3": "1147759c704a324f",
    "LATE sensitive:1/8": "1147759c704a324f",
    "LATE strongly-transitive": "51daf0a7b03e2cfe",
    "LATE surjective-sequence": "ae8b86e1f0d2bf66",
    "LATE syndetically-sensitive:1/4": "5029c5ea9961a643",
    "LATE syndetically-transitive": "bafa4a312ac7f875",
    "LATE thickly-sensitive:1/2": "82ef1e41204ac9f1",
    "LATE thickly-sensitive:1/4,2": "4813708a30394e86",
    "LATE thickly-sensitive:1/4,40": "c29b8afa044e9823",
    "LATE totally-transitive:2": "1384833182aee07c",
    "LATE transitive": "7794827685c8afd6",
    "LATE weakly-mixing:2": "90c31dbc4ff919e1",
    "LATE weakly-mixing:3": "90c31dbc4ff919e1",
    "LATESQ almost-periodic-point": "f708032b5b4b3e58",
    "LATESQ dense-periodic-points": "b0bdbad46fa47792",
    "LATESQ feeble-open": "f9906499cc6671d2",
    "LATESQ mildly-mixing": "276ca26774b78de4",
    "LATESQ minimal": "4a913848a1c5c3c7",
    "LATESQ mixing": "d6f73cf46ef24df7",
    "LATESQ multi-sensitive:1/16": "37f43a19f3f18864",
    "LATESQ multi-sensitive:1/2,2": "37f43a19f3f18864",
    "LATESQ multi-sensitive:1/4,2": "37f43a19f3f18864",
    # inconclusive -> refuted: a pair no prefix table reaches fails slot 1
    "LATESQ multi-transitive:2": "d6f73cf46ef24df7",
    "LATESQ sensitive:1/2": "37f43a19f3f18864",
    "LATESQ sensitive:1/3": "37f43a19f3f18864",
    "LATESQ sensitive:1/8": "37f43a19f3f18864",
    "LATESQ strongly-transitive": "d3d069608940b039",
    "LATESQ surjective-sequence": "3e88d3dbad6b60b4",
    "LATESQ syndetically-sensitive:1/4": "37f43a19f3f18864",
    # reason text: the never-hit pair now cites table reach, the strongest grade
    "LATESQ syndetically-transitive": "d6f73cf46ef24df7",
    "LATESQ thickly-sensitive:1/2": "37f43a19f3f18864",
    "LATESQ thickly-sensitive:1/4,2": "37f43a19f3f18864",
    "LATESQ thickly-sensitive:1/4,40": "37f43a19f3f18864",
    "LATESQ totally-transitive:2": "f6720e986f8163ff",
    "LATESQ transitive": "d6f73cf46ef24df7",
    "LATESQ weakly-mixing:2": "d6f73cf46ef24df7",
    "LATESQ weakly-mixing:3": "d6f73cf46ef24df7",
    "PERM almost-periodic-point": "607e8475742b7697",
    "PERM dense-periodic-points": "bea1bd471bd08831",
    "PERM feeble-open": "f9906499cc6671d2",
    "PERM mildly-mixing": "615bdbfed478dc1d",
    "PERM minimal": "9dda57c4dd88cbb3",
    "PERM mixing": "80ff3f5ba33b2c49",
    "PERM multi-sensitive:1/16": "37f43a19f3f18864",
    "PERM multi-sensitive:1/2,2": "37f43a19f3f18864",
    "PERM multi-sensitive:1/4,2": "37f43a19f3f18864",
    "PERM multi-transitive:2": "777010c680026e93",
    "PERM sensitive:1/2": "37f43a19f3f18864",
    "PERM sensitive:1/3": "37f43a19f3f18864",
    "PERM sensitive:1/8": "37f43a19f3f18864",
    "PERM strongly-transitive": "7979114bfbea102b",
    "PERM surjective-sequence": "ae8b86e1f0d2bf66",
    "PERM syndetically-sensitive:1/4": "37f43a19f3f18864",
    "PERM syndetically-transitive": "291aa3d38dc62534",
    "PERM thickly-sensitive:1/2": "37f43a19f3f18864",
    "PERM thickly-sensitive:1/4,2": "37f43a19f3f18864",
    "PERM thickly-sensitive:1/4,40": "37f43a19f3f18864",
    "PERM totally-transitive:2": "94b3ad6a8e9dec98",
    "PERM transitive": "9fa5e34ce6f80d0a",
    "PERM weakly-mixing:2": "d6088b48393ab1fa",
    "PERM weakly-mixing:3": "786f5c8ab00d6a19",
    "POW almost-periodic-point": "4559716471734926",
    "POW dense-periodic-points": "5f1320f2176e98cb",
    "POW feeble-open": "a96f3eb460d239f6",
    # witnessed -> refuted: the sparse-support law beats tails cut off at the horizon
    "POW mildly-mixing": "d4d79454639b1446",
    "POW minimal": "b49f1c47840cab83",
    # witnessed -> refuted: the sparse-support law beats tails cut off at the horizon
    "POW mixing": "784c2fd97004ac4d",
    "POW multi-sensitive:1/16": "677522e9b4a7efe4",
    "POW multi-sensitive:1/2,2": "6d1fbe2475c40b25",
    "POW multi-sensitive:1/4,2": "6d1fbe2475c40b25",
    "POW multi-transitive:2": "ae5c52acfaac7814",
    "POW sensitive:1/2": "1147759c704a324f",
    "POW sensitive:1/3": "1147759c704a324f",
    "POW sensitive:1/8": "1147759c704a324f",
    "POW strongly-transitive": "51daf0a7b03e2cfe",
    "POW surjective-sequence": "ae8b86e1f0d2bf66",
    "POW syndetically-sensitive:1/4": "5029c5ea9961a643",
    "POW syndetically-transitive": "784c2fd97004ac4d",
    "POW thickly-sensitive:1/2": "82ef1e41204ac9f1",
    "POW thickly-sensitive:1/4,2": "4813708a30394e86",
    "POW thickly-sensitive:1/4,40": "c29b8afa044e9823",
    "POW totally-transitive:2": "7ceb18f30dd179f7",
    "POW transitive": "c41986493bc18e90",
    "POW weakly-mixing:2": "2d3f119d24fe2c9e",
    "POW weakly-mixing:3": "2d3f119d24fe2c9e",
    "PROD almost-periodic-point": "d96c54f411833fc2",
    "PROD dense-periodic-points": "a65d7b0d38306157",
    "PROD feeble-open": "c5e9804943640e6b",
    # inconclusive -> refuted: the ALT factor's excluded residue (factor rule)
    "PROD mildly-mixing": "7b81ca2d48f5b2d1",
    "PROD minimal": "964914b8234e12c3",
    # inconclusive -> refuted: the ALT factor's excluded residue (factor rule)
    "PROD mixing": "dc8fb4707db03e8e",
    "PROD multi-sensitive:1/16": "0c00cb635c6aba59",
    "PROD multi-sensitive:1/2,2": "9ae387533b94db0d",
    "PROD multi-sensitive:1/4,2": "9ae387533b94db0d",
    "PROD multi-transitive:2": "53b154b599526ddc",
    "PROD sensitive:1/2": "9ba0c8a13b106339",
    "PROD sensitive:1/3": "9ba0c8a13b106339",
    "PROD sensitive:1/8": "9ba0c8a13b106339",
    "PROD surjective-sequence": "ae8b86e1f0d2bf66",
    "PROD syndetically-sensitive:1/4": "6a5191d556f351bd",
    "PROD syndetically-transitive": "eee5913c8bbf3a19",
    "PROD thickly-sensitive:1/2": "248910889a79c1f9",
    "PROD thickly-sensitive:1/4,2": "c046b3dc5686e810",
    "PROD thickly-sensitive:1/4,40": "bb07fb30ef0ad9df",
    "PROD totally-transitive:2": "dcaf64d3a799b4a6",
    "PROD transitive": "033b7fb1dc1ec854",
    "PROD weakly-mixing:2": "6ee9815d63bcfdee",
    "PROD weakly-mixing:3": "6ee9815d63bcfdee",
    "ROT almost-periodic-point": "a91e38281ac78782",
    "ROT dense-periodic-points": "ed8d25946ef7b88c",
    "ROT feeble-open": "a96f3eb460d239f6",
    # reason text: sparse support, graded above the excluded residue
    "ROT mildly-mixing": "4732307e8edc9b59",
    "ROT minimal": "b1083df492b43699",
    # reason text: sparse support, graded above the excluded residue
    "ROT mixing": "f5a2c6d49bb46def",
    "ROT multi-sensitive:1/16": "e87bf0cbebadfe61",
    "ROT multi-sensitive:1/2,2": "1bb1b0d1c1770b3e",
    "ROT multi-sensitive:1/4,2": "25c43115fb4cfc1a",
    "ROT multi-transitive:2": "777010c680026e93",
    "ROT sensitive:1/2": "f548b537acc0c7bb",
    "ROT sensitive:1/3": "0fe73d0b8d03d705",
    "ROT sensitive:1/8": "89e40b5ca13b0324",
    "ROT strongly-transitive": "9039bba7052d52a5",
    "ROT surjective-sequence": "ae8b86e1f0d2bf66",
    "ROT syndetically-sensitive:1/4": "1615f9c1e21d62dd",
    "ROT syndetically-transitive": "f5a2c6d49bb46def",
    "ROT thickly-sensitive:1/2": "f548b537acc0c7bb",
    "ROT thickly-sensitive:1/4,2": "fc77d968d64a9c66",
    "ROT thickly-sensitive:1/4,40": "24c956d02c742e1b",
    "ROT totally-transitive:2": "3c1f583c551c77bc",
    "ROT transitive": "0d9e0b2a1c1ac53c",
    "ROT weakly-mixing:2": "e22723a965cf0f39",
    "ROT weakly-mixing:3": "786f5c8ab00d6a19",
    "SQUASH almost-periodic-point": "06c5da286580dfdc",
    "SQUASH dense-periodic-points": "2799561d8816ef5b",
    "SQUASH feeble-open": "f9906499cc6671d2",
    # cited pair: B0 is never hit from itself, the first pair with a reason
    "SQUASH mildly-mixing": "724df099bab20674",
    "SQUASH minimal": "bd857bc39b3e869a",
    # cited pair: B0 is never hit from itself, the first pair with a reason
    "SQUASH mixing": "f1338ab7f5ed9966",
    "SQUASH multi-sensitive:1/16": "37f43a19f3f18864",
    "SQUASH multi-sensitive:1/2,2": "37f43a19f3f18864",
    "SQUASH multi-sensitive:1/4,2": "37f43a19f3f18864",
    # inconclusive -> refuted: B0 is never hit from itself, so slot 1 fails
    "SQUASH multi-transitive:2": "f1338ab7f5ed9966",
    "SQUASH sensitive:1/2": "37f43a19f3f18864",
    "SQUASH sensitive:1/3": "37f43a19f3f18864",
    "SQUASH sensitive:1/8": "37f43a19f3f18864",
    "SQUASH strongly-transitive": "625c42ae2856c0dd",
    "SQUASH surjective-sequence": "4a7570e37e5c0887",
    "SQUASH syndetically-sensitive:1/4": "37f43a19f3f18864",
    # reason text: B0 -> B0 now cites table reach, the strongest grade
    "SQUASH syndetically-transitive": "f1338ab7f5ed9966",
    "SQUASH thickly-sensitive:1/2": "37f43a19f3f18864",
    "SQUASH thickly-sensitive:1/4,2": "37f43a19f3f18864",
    "SQUASH thickly-sensitive:1/4,40": "37f43a19f3f18864",
    # cited pair: B0 is never hit from itself, the first pair with a reason
    "SQUASH totally-transitive:2": "39a730e4ddc1fe37",
    # cited pair: B0 is never hit from itself, the first pair with a reason
    "SQUASH transitive": "f1338ab7f5ed9966",
    # inconclusive -> refuted: every unhit pair is walked, and B0 -> B0 is never hit
    "SQUASH weakly-mixing:2": "f1338ab7f5ed9966",
    # inconclusive -> refuted: every unhit pair is walked, and B0 -> B0 is never hit
    "SQUASH weakly-mixing:3": "f1338ab7f5ed9966",
    "SWAPS almost-periodic-point": "4a2e16765b499017",
    # witnessed: periods 6, 3, 6 and 1, read off the (point, phase) loops
    "SWAPS dense-periodic-points": "95957acfd443f7a7",
    "SWAPS feeble-open": "f9906499cc6671d2",
    "SWAPS mildly-mixing": "303e53ad4570257c",
    # refuted: the exact orbit of 1 is {1, 2, 3}
    "SWAPS minimal": "4684ee1fa8a48871",
    # refuted: no reachable prefix table moves {1} onto {4}
    "SWAPS mixing": "bcb8f8587b37c39e",
    "SWAPS multi-sensitive:1/16": "37f43a19f3f18864",
    "SWAPS multi-sensitive:1/2,2": "37f43a19f3f18864",
    "SWAPS multi-sensitive:1/4,2": "37f43a19f3f18864",
    "SWAPS multi-transitive:2": "bcb8f8587b37c39e",
    "SWAPS sensitive:1/2": "37f43a19f3f18864",
    "SWAPS sensitive:1/3": "37f43a19f3f18864",
    "SWAPS sensitive:1/8": "37f43a19f3f18864",
    # refuted: the images of {1} reach only {1, 2, 3}
    "SWAPS strongly-transitive": "d56d1a523c3acb1d",
    "SWAPS surjective-sequence": "ae8b86e1f0d2bf66",
    "SWAPS syndetically-sensitive:1/4": "37f43a19f3f18864",
    "SWAPS syndetically-transitive": "bcb8f8587b37c39e",
    "SWAPS thickly-sensitive:1/2": "37f43a19f3f18864",
    "SWAPS thickly-sensitive:1/4,2": "37f43a19f3f18864",
    "SWAPS thickly-sensitive:1/4,40": "37f43a19f3f18864",
    "SWAPS totally-transitive:2": "9f299d4dddb302db",
    # refuted: no reachable prefix table moves {1} onto {4}
    "SWAPS transitive": "bcb8f8587b37c39e",
    # refuted: no reachable prefix table moves {1} onto {4}
    "SWAPS weakly-mixing:2": "bcb8f8587b37c39e",
    "SWAPS weakly-mixing:3": "bcb8f8587b37c39e",
    "TAIL almost-periodic-point": "4559716471734926",
    "TAIL dense-periodic-points": "7b0d40fd47cec18c",
    "TAIL feeble-open": "a96f3eb460d239f6",
    # witnessed -> refuted: the excluded residue beats tails cut off at the horizon
    "TAIL mildly-mixing": "b90f7617f59c7a7b",
    "TAIL minimal": "e4dad6533613dba6",
    # witnessed -> refuted: the excluded residue beats tails cut off at the horizon
    "TAIL mixing": "7ca0318d9d3f13cb",
    "TAIL multi-sensitive:1/16": "b355dacabf07baeb",
    "TAIL multi-sensitive:1/2,2": "ce498f3d25eb67af",
    "TAIL multi-sensitive:1/4,2": "93a8ce283fdf1a23",
    "TAIL multi-transitive:2": "313b923765187bc5",
    "TAIL sensitive:1/2": "e3a62dcb868b5811",
    "TAIL sensitive:1/3": "a1a3414f02c56c9b",
    "TAIL sensitive:1/8": "a1a3414f02c56c9b",
    "TAIL strongly-transitive": "4610ec0f74fe9013",
    "TAIL surjective-sequence": "ae8b86e1f0d2bf66",
    "TAIL syndetically-sensitive:1/4": "67e39d976bc6edac",
    "TAIL syndetically-transitive": "a89bbadb6229499a",
    "TAIL thickly-sensitive:1/2": "03100a02bca45bf6",
    "TAIL thickly-sensitive:1/4,2": "f2e8bd9adf3368f4",
    "TAIL thickly-sensitive:1/4,40": "001a3e70d5c7e943",
    "TAIL totally-transitive:2": "1364b9613c6c926d",
    "TAIL transitive": "d94dd55cc768e17a",
    "TAIL weakly-mixing:2": "16d887a5dd70a163",
    "TAIL weakly-mixing:3": "16d887a5dd70a163",
    "TPROD almost-periodic-point": "d96c54f411833fc2",
    "TPROD dense-periodic-points": "a65d7b0d38306157",
    "TPROD feeble-open": "c5e9804943640e6b",
    "TPROD mildly-mixing": "0a48ef833b777844",
    "TPROD minimal": "964914b8234e12c3",
    "TPROD mixing": "2cdbfcebdfd271f2",
    "TPROD multi-sensitive:1/16": "0c00cb635c6aba59",
    "TPROD multi-sensitive:1/2,2": "9ae387533b94db0d",
    "TPROD multi-sensitive:1/4,2": "9ae387533b94db0d",
    "TPROD multi-transitive:2": "a95f824de0406acc",
    "TPROD sensitive:1/2": "9ba0c8a13b106339",
    "TPROD sensitive:1/3": "9ba0c8a13b106339",
    "TPROD sensitive:1/8": "9ba0c8a13b106339",
    "TPROD surjective-sequence": "ae8b86e1f0d2bf66",
    "TPROD syndetically-sensitive:1/4": "6a5191d556f351bd",
    "TPROD syndetically-transitive": "1cff7fa979145600",
    "TPROD thickly-sensitive:1/2": "248910889a79c1f9",
    "TPROD thickly-sensitive:1/4,2": "c046b3dc5686e810",
    "TPROD thickly-sensitive:1/4,40": "bb07fb30ef0ad9df",
    "TPROD totally-transitive:2": "00cf76cf9c4d1b49",
    "TPROD transitive": "a5537d1fad2fd32a",
    "TPROD weakly-mixing:2": "dd6aea61f559b0be",
    "TPROD weakly-mixing:3": "dd6aea61f559b0be",
    "consistency ALT weakly-mixing 3 1 32 2": "298e07d30e20f46e",
    "consistency CS multi-transitive 2 1 32 3": "97002a5a735fa5ec",
    "consistency CS multi-transitive 2 1 32 40": "502bd08953ba3f5c",
    "consistency CS weakly-mixing 2 1 32 4": "bb248495379bbaed",
    "consistency CS weakly-mixing 2 1 32 40": "1999fa0de8850e9e",
    "consistency CS weakly-mixing 2 2 24 3": "7f1900c2f6684ce2",
    "consistency TAIL multi-transitive 2 1 64 2": "b4be757a93d7bbdc",
}


@pytest.mark.parametrize(
    "system,source,basis,horizon,prop", list(_cases()),
    ids=[_key(c[0], c[4]) for c in _cases()],
)
def test_verdict_digest_is_pinned(system, source, basis, horizon, prop):
    v = _verdict(source, system, basis, horizon, prop)
    assert _verdict_digest(v) == PINNED[_key(system, prop)]
    # the digest leaves out the two fields check_property adds to what the checker found
    assert v.property == prop.render()
    assert v.config == {"basis": basis, "horizon": horizon, "law_horizon": ck.DEFAULT_LAW_HORIZON}


@pytest.mark.parametrize("case", CONSISTENCY, ids=[" ".join(map(str, c)) for c in CONSISTENCY])
def test_consistency_digest_is_pinned(case):
    assert _consistency_digest(*case) == PINNED["consistency " + " ".join(map(str, case))]


# A => B for every non-autonomous system by definition (mildly mixing is
# read as implying mixing, as the checker reads it), closed under chaining
IMPLIES = {
    "mildly-mixing": ("mixing", "weakly-mixing:2", "syndetically-transitive", "transitive"),
    "mixing": ("weakly-mixing:2", "syndetically-transitive", "transitive"),
    "weakly-mixing:2": ("transitive",),
    "syndetically-transitive": ("transitive",),
    "multi-transitive:2": ("transitive",),
    "totally-transitive:2": ("transitive",),
    "strongly-transitive": ("transitive",),
}


def implication_breaks(spec, basis: int, horizon: int) -> list:
    """The (A, B) with A => B that one system has witnessed for A and
    refuted for B at one basis and horizon."""
    basis = max(basis, sp.min_resolution(spec.space))
    status = {
        rendered: ck.check_property(spec, ndsl.read_property(rendered), basis, horizon).status
        for rendered in [*IMPLIES, "transitive"]
    }
    return [
        (a, b) for a, implied in IMPLIES.items() for b in implied
        if status[a] == ck.WITNESSED and status[b] == ck.REFUTED
    ]


# PROD and its tail at basis 2 have 2^20 basis pairs, half a gigabyte of pair masks
@pytest.mark.parametrize("system,basis,horizon", [
    (system, basis, horizon)
    for system in SYSTEMS for basis, horizon in [(1, 64), (2, 64), (1, 100)]
    if (system, basis) not in {("PROD", 2), ("TPROD", 2)}
])
def test_no_golden_system_is_witnessed_for_a_and_refuted_for_what_a_implies(system, basis, horizon):
    spec = ndsl.parse(SYSTEMS[system][0]).system(system)
    assert implication_breaks(spec, basis, horizon) == []


def test_no_finite2_oracle_shape_is_witnessed_for_a_and_refuted_for_what_a_implies():
    from test_finite_oracle import shapes

    broken = [(spec, implication_breaks(spec, 1, 64)) for spec in shapes(sp.FiniteSpace(2))]
    assert [(spec, pairs) for spec, pairs in broken if pairs] == []


def test_every_pinned_case_runs():
    keys = {_key(c[0], c[4]) for c in _cases()}
    keys |= {"consistency " + " ".join(map(str, c)) for c in CONSISTENCY}
    assert keys == set(PINNED)


# the evidence fields recheck_verdict reads: tables of a time per basis pair,
# single times, and the labels of cited basis opens
PAIR_TIMES = ("witness_times", "per_pair_first_hit", "tail_start_per_pair")
LABELS = ("refuting_pair", "missed_open")


def _tampered(spec, v: ck.Verdict):
    """(what, evidence) for each corruption of one field of v's evidence that
    recheck_verdict reads: a pair key dropped or added, a time set to 0,
    H + 1, -1 or "x", a label's index set to n or -1 or its description to
    another open's.  Table entries are sampled, one a table, by a seed of
    the verdict."""
    basis = sp.enumerate_basis(spec.space, v.config["basis"])
    n, H, ev = len(basis), v.config["horizon"], v.evidence
    rng = random.Random(f"{v.property} {v.config} {ev}")
    bad_times = (0, H + 1, -1, "x")
    for key in PAIR_TIMES:
        if key in ev:
            table = ev[key]
            pair = rng.choice(sorted(table))
            yield f"{key} without {pair}", {**ev, key: {k: t for k, t in table.items() if k != pair}}
            yield f"{key} with {n}->0", {**ev, key: {**table, f"{n}->0": table[pair]}}
            for t in bad_times:
                yield f"{key} {pair} at {t!r}", {**ev, key: {**table, pair: t}}
    for order, l in ev.get("witness_l_per_order", {}).items():
        for t in bad_times:
            yield f"l of order {order} at {t!r}", {**ev, "witness_l_per_order": {
                **ev["witness_l_per_order"], order: t}}
    if "common_time_all_pairs" in ev:
        for t in bad_times:
            yield f"common time at {t!r}", {**ev, "common_time_all_pairs": t}
    for key in LABELS:
        cited = ev.get(key)
        for place, label in ([(None, cited)] if isinstance(cited, str) else enumerate(cited or ())):
            index, description = label.split(":", 1)
            other = ck._label(basis, (int(index[1:]) + 1) % n).split(":", 1)[1]
            for forged in {f"B{n}:{description}", f"B-1:{description}", f"{index}:{other}"} - {label}:
                if place is None:
                    yield f"{key} {forged}", {**ev, key: forged}
                else:
                    yield f"{key} {forged}", {**ev, key: [*cited[:place], forged, *cited[place + 1:]]}


def test_every_decided_golden_verdict_rechecks_and_no_tampered_one_does():
    """Every decided verdict of the golden systems passes recheck_verdict,
    and each corruption of one field it reads (_tampered) fails it: the
    re-check returns False, and raises nothing."""
    failures, tampered = [], 0
    for system, source, basis, horizon, prop in _cases():
        spec = ndsl.parse(source).system(system)
        v = ck.check_property(spec, prop, basis, horizon)
        if v.status == ck.INCONCLUSIVE:
            continue
        if not ck.recheck_verdict(spec, v):
            failures.append(f"{_key(system, prop)}: the true evidence fails")
        for what, evidence in _tampered(spec, v):
            tampered += 1
            try:
                accepted = ck.recheck_verdict(spec, ck.Verdict(v.property, v.status, v.config, evidence))
            except Exception as exc:  # noqa: BLE001 - any escape is a failure of the re-check
                accepted = type(exc).__name__
            if accepted is not False:
                failures.append(f"{_key(system, prop)}: {what} -> {accepted}")
    assert failures == []
    assert tampered > 600
