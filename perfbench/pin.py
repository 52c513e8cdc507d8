"""Write perfbench/pinned.json: the reference results the correctness gate
compares against.

    python3 perfbench/pin.py

- corpus: per expectation, its scenario, description, the status written in
  corpus.py and the evidence digest of `ndslab corpus --format json`;
- orbit: the digest of every orbit-scan request the generator can draw.

Run it only at a commit whose outputs are known good; the digests are the
byte-identity contract that later changes are held to.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

import child  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402


def main() -> int:
    mods = child.import_ndslab(HERE.parent / "src")
    rc, text = child._cli_call(mods["cli"], ["corpus", "--format", "json"])
    if rc != 0:
        print("corpus run did not meet its expectations; nothing pinned", file=sys.stderr)
        return 1
    corpus = [[scen, desc, exp, dig] for scen, desc, exp, _act, dig in
              gate.corpus_results(json.loads(text))]
    specs, pairs = child.orbit_inputs(mods, {"systems": gen.ORBIT_SYSTEMS})
    orbit = {}
    for req in gen.orbit_grid():
        payload = gate.orbit_payload(req["kind"], child.orbit_request(mods, specs, pairs, req))
        orbit[gen.orbit_key(req)] = gate.digest(payload)
    out = {"corpus": corpus, "orbit": orbit}
    (HERE / "pinned.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(corpus)} corpus expectations and {len(orbit)} orbit-scan requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
