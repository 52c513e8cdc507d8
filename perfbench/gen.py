"""Seeded input generator for the ndslab benchmark.

`generate(workload, seed, seconds, outdir)` writes the inputs of one run into
`outdir` and returns the manifest it also writes there as `manifest.json`.
The same (workload, seed, seconds) always gives byte-identical files.  The
manifest records every input's family and why it was drawn.

Workloads are stratified: each family gets a fixed share of the requests,
and whatever sets a request's cost (directive set, basis, horizon, levels...)
cycles through a fixed list, so runs with different seeds carry the same
costs; the seed draws the systems, the remaining parameters and the order.

Nothing is filtered on how the program fares on an input.  The one input
class that fails today by construction (finite permutations whose period
exceeds the prefix-table walk) is written to a separate untimed probe list,
so the defect is reported on every run but a fix for it does not read as a
latency regression.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# requests per second of --seconds: at the seed commit a check-sweep run and
# an orbit-scan run each last --seconds to within 10 %, on a 2-core 2.1 GHz
# x86 box
CHECK_FILES_PER_SECOND = 3.6
ORBIT_REQUESTS_PER_SECOND = 5.0

# properties that read the cached pair-mask table at the same (basis, horizon):
# two of them in one file share the hit-mask work
MASK_GROUP = ("transitive", "weakly-mixing", "mixing", "syndetically-transitive")

# family -> why it is in the mix.  These are the input families the benchmark
# is defined over; no user traffic has been observed to weight them by, so
# each gets an equal share of the files.  (The sensitivity family of
# properties is not a family of systems: the "sens" slots of the directive
# shapes below put it on every family.)
CHECK_FAMILIES = {
    "shift-ap": "paired ap(first,step) sigma^k / sigma^-k families: the paper's shift examples",
    "shift-pow": "pow(2|3) families: sparse firing times, long identity runs between them",
    "shift-derived": "tail and iterate of shift families: derived-system term dispatch",
    "circle": "circle rotations at basis 3-4: enclosure compares in the mask kernel",
    "finite": "finite(n<=40) permutations of mixed cycle structure: table laws",
    "product": "products at basis 1: rectangle basis, per-part laws",
}
# A recipe fixes what sets a check's cost: its scale, directive set, basis,
# horizon and the shape of the system.  The i-th file of a family follows
# recipe i mod RECIPES, so at --seconds 30 every recipe runs once and every
# seed carries the same costs; the seed draws the systems themselves and the
# order of the files.
RECIPES = 18
# One recipe in USER_EVERY checks at the scale `ndslab check` is used at
# (USER_SCALE), one directive per file: that is 1/6 of the files of every
# family but the finite one, whose checks cost about 1 ms at any scale, so
# about 14 % of all files and the p90 falls among them.  The other recipes
# check at desk scale, which keeps 100 or more files within the run time.
USER_EVERY = 6
# space -> (basis, horizon, the property of each user-scale recipe in turn).
# Shift basis 3 at horizon 1024 (about 30 s per transitivity check) and
# product transitivity at basis 1, horizon 256 (about 5 s) are left out: one
# of them would take a sizeable part of the run.
USER_SCALE = {
    "shift": (2, 1024, ("transitive", "sensitive:1/2", "sensitive:1/2")),
    "circle": (4, 1024, ("transitive", "weakly-mixing", "syndetically-transitive")),
    "product": (1, 256, ("sensitive:1/2",)),
}

PROPERTIES = {
    "shift": {
        "mask": MASK_GROUP,
        "sens": ("sensitive:1/2", "multi-sensitive:1/2", "thickly-sensitive:1/2",
                 "syndetically-sensitive:1/4"),
        "other": ("multi-transitive:2", "minimal", "dense-periodic-points", "feeble-open",
                  "surjective-sequence"),
    },
    "circle": {
        "mask": ("transitive", "weakly-mixing", "syndetically-transitive"),
        "sens": ("sensitive:1/4", "sensitive:1/8"),
        "other": ("minimal", "dense-periodic-points", "surjective-sequence"),
    },
    "finite": {
        "mask": ("transitive", "weakly-mixing", "mixing"),
        "sens": ("sensitive:1/2",),
        "other": ("minimal", "strongly-transitive", "dense-periodic-points"),
    },
    "product": {
        "mask": ("transitive", "weakly-mixing", "syndetically-transitive"),
        "sens": ("sensitive:1/2",),
        "other": ("feeble-open",),
    },
}

# directive shapes, one per recipe in turn
SHAPES = (
    ("any",),
    ("mask", "mask"),
    ("mask", "sens"),
    ("mask", "mask", "other"),
    ("sens", "other"),
)

# finite permutations: orders up to this bound keep a check within the
# latency range of the other families
FINITE_MAX_ORDER = 2000
# the prefix-table walk in maps gives up after 10^4 steps; orders beyond it
# raise LawValidationError on every property (the known-failure probe)
LONG_PERIOD_MIN_ORDER = 10_001
PROBE_FILES = 2

# orbit-scan: the shift systems every request draws from (pinned grid)
ORBIT_SYSTEMS = {
    "cs1": "space shift(2);\nsystem S {\n  else: sigma^1;\n}\n",
    "cs2": "space shift(2);\nsystem S {\n  else: sigma^-2;\n}\n",
    "ap12": "space shift(2);\nsystem S {\n  at ap(1,2,k): sigma^k;\n  at ap(2,2,k): sigma^-k;\n}\n",
    "ap34-tail": "space shift(2);\nsystem F {\n  at ap(3,2,k): sigma^k;\n  at ap(4,2,k): sigma^-k;\n}\n"
                 "system S = tail(F, 2);\n",
    "mod3": "space shift(2);\nsystem S {\n  at ap(1,3): sigma^1;\n  at ap(2,3): sigma^2;\n  else: sigma^-1;\n}\n",
}
LY_CANDIDATES = 8
LY_HORIZONS = (1024, 1280, 1536, 1792, 2048)
L21_LEVELS = (6, 7, 8, 9, 10)
L21_HORIZON = 4096
EQ_EPSILONS = ("1/2", "1/4", "1/8")
EQ_WINDOWS = (2, 3, 4)
EQ_HORIZONS = (1024, 2048)
CC_HORIZONS = (64, 256)
CC_WINDOWS = (4, 5, 6, 7, 8)

# kind -> (share of the requests, why it is in the mix).  The benchmark is
# defined over three kinds of orbit request: Li-Yorke scans, lemma-2.1
# constructions and convergence windows.  As with the check-sweep families,
# no traffic has been observed to weight them by, so each gets a third; the
# convergence third is split evenly between its two functions.
ORBIT_KINDS = {
    "li-yorke": (1 / 3, "chaos.li_yorke_scan on one candidate pair: the exact shift_distance path"),
    "lemma21": (1 / 3, "chaos.lemma21_construct at 6-10 levels: prefix exponents plus a stepwise verify"),
    "equicontinuity": (1 / 6, "convergence.equicontinuity_modulus: the step fold over windows"),
    "collective": (1 / 6, "convergence.check_collective_convergence windows against the identity"),
}


def _quota(total: int, shares: dict) -> dict:
    """Largest-remainder split of `total` over the families' shares."""
    raw = {k: total * share for k, (share, _why) in shares.items()}
    out = {k: int(v) for k, v in raw.items()}
    rest = sorted(raw, key=lambda k: (out[k] - raw[k], k))
    for k in rest[: total - sum(out.values())]:
        out[k] += 1
    return out


def _table(perm: list) -> str:
    return "table{" + ",".join(f"{i}->{perm[i - 1]}" for i in range(1, len(perm) + 1)) + "}"


def _perm_from_cycles(rng: random.Random, n: int, cycles: tuple) -> list:
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    perm = list(range(1, n + 1))
    pos = 0
    for c in cycles:
        cyc = ids[pos : pos + c]
        pos += c
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b
    return perm


def _short_cycles(rng: random.Random, n: int) -> tuple:
    """A random cycle structure of n points whose order is at most
    FINITE_MAX_ORDER (redrawn until it is)."""
    while True:
        left, cycles = n, []
        while left:
            c = rng.randint(1, left)
            cycles.append(c)
            left -= c
        if math.lcm(*cycles) <= FINITE_MAX_ORDER:
            return tuple(sorted(cycles, reverse=True))


def _long_cycles(rng: random.Random) -> tuple:
    """Distinct cycle lengths summing to at most 40 with order beyond the
    prefix-table walk, e.g. 3+5+7+11+13 (order 15015)."""
    while True:
        k = rng.randint(4, 5)
        cycles = tuple(sorted(rng.sample(range(3, 17), k)))
        if sum(cycles) <= 40 and math.lcm(*cycles) >= LONG_PERIOD_MIN_ORDER:
            return cycles


def _shift_pair(rng: random.Random, rec: random.Random) -> tuple:
    """Rules for a paired ap family: sigma^k on one residue class, sigma^-k on
    another (disjoint by construction).  The recipe's `rec` draws the step,
    which sets the cost; `rng` draws the classes and the signs."""
    step = rec.choice((2, 2, 3))
    a = rng.randint(1, 4)
    b = a + rng.choice([d for d in range(1, 2 * step) if d % step])
    sa, sb = rng.choice((("", "-"), ("-", "")))
    return (f"  at ap({a},{step},k): sigma^{sa}k;\n  at ap({b},{step},k): sigma^{sb}k;\n",
            f"ap({a},{step})/ap({b},{step})")


def _shift_pow(rng: random.Random, rec: random.Random) -> tuple:
    base = rec.choice((2, 3))
    sa, sb = rng.choice((("", "-"), ("-", "")))
    return (f"  at pow({base},0,k): sigma^{sa}k;\n  at pow({base},1,k): sigma^{sb}k;\n",
            f"pow({base})")


def _directives(rng: random.Random, pools: dict, shape: tuple) -> list:
    out = []
    for slot in shape:
        pool = [p for k in ("mask", "sens", "other") for p in pools[k]] if slot == "any" else pools[slot]
        choices = [p for p in pool if p not in out] or list(pool)
        out.append(rng.choice(choices))
    return out


def _check_file(rng: random.Random, family: str, i: int) -> dict:
    """The i-th NDSL file of a family: a system, then 1-3 check directives on
    it at one basis and horizon.  `rng` draws the system; the recipe's own
    generator draws everything that sets the cost."""
    recipe = i % RECIPES
    rec = random.Random(f"recipe:{family}:{recipe}")
    user = family != "finite" and recipe % USER_EVERY == USER_EVERY - 1
    # position of the recipe among its family's user-scale or desk-scale ones
    if user:
        nth = recipe // USER_EVERY
    elif family == "finite":
        nth = recipe
    else:
        nth = recipe - recipe // USER_EVERY
    if family in ("shift-ap", "shift-pow", "shift-derived"):
        space = "shift"
        pow_base = family == "shift-pow" or (family == "shift-derived" and rec.random() < 0.3)
        rules, label = (_shift_pow if pow_base else _shift_pair)(rng, rec)
        text = f"space shift(2);\nsystem F {{\n{rules}}}\n"
        name = "F"
        if family == "shift-derived":
            op = rec.choice(("tail", "tail", "iterate"))
            k = rec.randint(2, 4) if op == "tail" else rec.randint(2, 3)
            text += f"system G = {op}(F, {k});\n"
            name, label = "G", f"{op}({label}, {k})"
        if nth % 2:
            basis, horizon = 2, rec.choice((96, 128, 160))
        else:
            basis, horizon = 1, rec.choice((256, 320, 384))
    elif family == "circle":
        space = "circle"
        # the pow(3) rotation costs half as much: user-scale recipes use ap
        if user or rec.random() < 0.5:
            a = rng.randint(1, 2)
            rules = f"  at ap({a},2,k): rot^k;\n  at ap({a + 1},2,k): rot^-k;\n"
            label = f"rot ap({a},2)/ap({a + 1},2)"
        else:
            rules = "  at pow(3,0,k): rot^k;\n  at pow(3,1,k): rot^-k;\n"
            label = "rot pow(3)"
        text = f"space circle(sqrt2m1);\nsystem F {{\n{rules}}}\n"
        name = "F"
        basis, horizon = 3 + (nth // len(SHAPES)) % 2, rec.choice((128, 192, 256))
    elif family == "finite":
        space = "finite"
        n = rec.randint(3, 40)
        cycles = _short_cycles(rng, n)
        perm = _perm_from_cycles(rng, n, cycles)
        if (recipe + i // RECIPES) % 2:
            rules = f"  else: {_table(perm)};\n"
            label = f"finite({n}) cycles {'+'.join(map(str, cycles))}"
        else:
            other = _perm_from_cycles(rng, n, _short_cycles(rng, n))
            rules = f"  at ap(1,2): {_table(perm)};\n  else: {_table(other)};\n"
            label = f"finite({n}) alternating, cycles {'+'.join(map(str, cycles))}"
        text = f"space finite({n});\nsystem F {{\n{rules}}}\n"
        name = "F"
        basis, horizon = 1, rec.choice((64, 96, 128))
    elif family == "product":
        space = "product"
        rf, lf = _shift_pair(rng, rec)
        rg, lg = _shift_pair(rng, rec)
        text = (f"space shift(2);\nsystem F {{\n{rf}}}\nsystem G {{\n{rg}}}\n"
                "system P = product(F, G);\n")
        name, label = "P", f"product({lf}, {lg})"
        basis, horizon = 1, rec.choice((16, 24, 32))
    else:
        raise ValueError(f"unknown check-sweep family {family!r}")
    if user:
        basis, horizon, props = USER_SCALE[space]
        props = [props[nth % len(props)]]
    else:
        props = _directives(rec, PROPERTIES[space], SHAPES[nth % len(SHAPES)])
    for prop in props:
        text += f"check {name} {prop} horizon {horizon} basis {basis};\n"
    return {
        "family": family,
        "scale": "user" if user else "desk",
        "system": label,
        "basis": basis,
        "horizon": horizon,
        "properties": props,
        "shares_work": sum(p in MASK_GROUP for p in props) >= 2,
        "why": CHECK_FAMILIES[family],
        "text": text,
    }


def _probe_file(rng: random.Random) -> dict:
    cycles = _long_cycles(rng)
    n = rng.randint(sum(cycles), 40)
    perm = _perm_from_cycles(rng, n, cycles)
    prop = rng.choice(PROPERTIES["finite"]["mask"] + PROPERTIES["finite"]["other"])
    return {
        "family": "finite-long-period",
        "system": f"finite({n}) cycles {'+'.join(map(str, cycles))}, order {math.lcm(*cycles)}",
        "basis": 1,
        "horizon": 64,
        "properties": [prop],
        "shares_work": False,
        "why": "permutation order beyond the prefix-table walk: raises LawValidationError today",
        "text": f"space finite({n});\nsystem F {{\n  else: {_table(perm)};\n}}\n"
                f"check F {prop} horizon 64 basis 1;\n",
    }


def _check_sweep(rng: random.Random, seconds: int, outdir: Path) -> dict:
    total = max(len(CHECK_FAMILIES), round(CHECK_FILES_PER_SECOND * seconds))
    quota = _quota(total, {f: (1 / len(CHECK_FAMILIES), why) for f, why in CHECK_FAMILIES.items()})
    files = [_check_file(rng, fam, i) for fam in sorted(quota) for i in range(quota[fam])]
    rng.shuffle(files)
    # every request starts from the caches of a fresh `ndslab check` (child.py
    # resets them), so a file repeating an earlier file's system, basis and
    # horizon reuses nothing; the share is recorded all the same
    seen, repeats = set(), 0
    for f in files:
        key = (f["text"].split("\ncheck ")[0], f["basis"], f["horizon"])
        repeats += key in seen
        seen.add(key)
    probes = [_probe_file(rng) for _ in range(PROBE_FILES)]
    for prefix, group in (("req", files), ("probe", probes)):
        for idx, entry in enumerate(group):
            entry["file"] = f"{prefix}-{idx:03d}.ndsl"
            (outdir / entry["file"]).write_text(entry.pop("text"))
    return {
        "requests": files,
        "probes": probes,
        "shares_work_share": sum(f["shares_work"] for f in files) / len(files),
        "repeated_system_share": repeats / len(files),
        "user_scale_share": sum(f["scale"] == "user" for f in files) / len(files),
    }


def _cost_cells(kind: str) -> list:
    """(system, parameters) of a kind's requests, over the parameters that
    set a request's cost."""
    systems = sorted(ORBIT_SYSTEMS)
    if kind == "li-yorke":
        return [(s, {"horizon": h}) for s in systems for h in LY_HORIZONS]
    if kind == "lemma21":
        return [(s, {"levels": lv, "horizon": L21_HORIZON}) for s in systems for lv in L21_LEVELS]
    if kind == "equicontinuity":
        return [(s, {"k": k, "horizon": h}) for s in systems for k in EQ_WINDOWS for h in EQ_HORIZONS]
    if kind == "collective":
        return [(s, {"horizon": h}) for s in systems for h in CC_HORIZONS]
    raise ValueError(f"unknown orbit-scan kind {kind!r}")


def orbit_key(request: dict) -> str:
    """Key of a request in the pinned orbit-scan results."""
    params = ",".join(f"{k}={request['params'][k]}" for k in sorted(request["params"]))
    return f"{request['kind']}|{request['system']}|{params}"


def orbit_grid() -> list:
    """Every orbit-scan request the generator can draw (the pinned grid)."""
    out = []
    for system in ORBIT_SYSTEMS:
        for j in range(LY_CANDIDATES):
            for h in LY_HORIZONS:
                out.append({"kind": "li-yorke", "system": system,
                            "params": {"candidate": j, "horizon": h}})
        for lv in L21_LEVELS:
            out.append({"kind": "lemma21", "system": system,
                        "params": {"levels": lv, "horizon": L21_HORIZON}})
        for eps in EQ_EPSILONS:
            for k in EQ_WINDOWS:
                for h in EQ_HORIZONS:
                    out.append({"kind": "equicontinuity", "system": system,
                                "params": {"epsilon": eps, "k": k, "horizon": h}})
        for h in CC_HORIZONS:
            for w in CC_WINDOWS:
                out.append({"kind": "collective", "system": system,
                            "params": {"horizon": h, "max_window": w}})
    return out


def _orbit_scan(rng: random.Random, seconds: int) -> dict:
    total = max(len(ORBIT_KINDS), round(ORBIT_REQUESTS_PER_SECOND * seconds))
    quota = _quota(total, ORBIT_KINDS)
    requests = []
    for kind in sorted(quota):
        # whole passes over the kind's cost cells, then a fixed sample of
        # them: every seed carries the same costs
        cells = _cost_cells(kind)
        passes, rest = divmod(quota[kind], len(cells))
        chosen = cells * passes + random.Random(f"cells:{kind}").sample(cells, rest)
        for i, (system, params) in enumerate(chosen):
            params = dict(params)
            if kind == "li-yorke":
                # candidates differ in cost by up to 2x: fixed, not drawn
                params["candidate"] = i % LY_CANDIDATES
            elif kind == "equicontinuity":
                params["epsilon"] = rng.choice(EQ_EPSILONS)
            elif kind == "collective":
                params["max_window"] = rng.choice(CC_WINDOWS)
            req = {"kind": kind, "system": system, "params": params, "family": kind,
                   "why": ORBIT_KINDS[kind][1]}
            req["key"] = orbit_key(req)
            requests.append(req)
    rng.shuffle(requests)
    return {"requests": requests, "systems": ORBIT_SYSTEMS}


def generate(workload: str, seed: int, seconds: int, outdir) -> dict:
    """Write the inputs of one run to `outdir`; return the manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        body = {"requests": [{"family": "corpus", "argv": ["corpus", "--format", "json"],
                              "why": "the paper's 12 scenarios and 44 expectations, pinned configs"}]}
    elif workload == "check-sweep":
        body = _check_sweep(rng, seconds, outdir)
    elif workload == "orbit-scan":
        body = _orbit_scan(rng, seconds)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "seconds": seconds, **body}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest
