"""The four workloads: inputs from a seed, the one timed call, the output check.

Each operation runs in a fresh interpreter (see ``op.py``), because every
``fmtori`` command starts a new process and pays for cold ``lru_cache``s.
``build`` is the set-up the benchmark times as ``setup_s``, ``run`` is the
operation timed as ``wall_s``, and ``check`` runs after the timer stops.

The workloads call the library's modules by attribute (``product_audit.x``,
never a name imported from it), so that the traced run, which rebinds module
attributes, sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from fmtori import acceptance, corpus, oracles, partners, product_audit, varieties

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# search bounds, as the workloads and the regress gate use them
L2_BOUND = 2
L2_LIMIT = 2
KERNEL_BOUND = 2
GATE_KERNEL_BOUND = 3
PARTNER_COEFF_BOUND = 1
PARTNER_DENOM_BOUND = 2


def expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text("utf-8"))


def candidates_through(basis, bound: int, found) -> int:
    """Candidates a search scans, in the lexicographic order of
    ``itertools.product(range(-bound, bound + 1), repeat=len(basis))``, up to
    and including the hit ``found`` (a class matrix), or the whole box."""
    if found is None:
        return (2 * bound + 1) ** len(basis)
    pos = 0
    for c in varieties.coefficients_in_basis(found, basis):
        pos = pos * (2 * bound + 1) + (c + bound)
    return pos + 1


def sha256_json(obj) -> str:
    return hashlib.sha256(corpus.render_json(obj).encode("utf-8")).hexdigest()


def int_rows(m) -> list[list[int]]:
    return [[int(x) for x in row] for row in m.data]


# -- regress: the release gate ------------------------------------------------


def build_regress(seed: int):
    return None


def run_regress(_inputs):
    return acceptance.run_all()


def regress_identity_digest(report: dict) -> str:
    """Digest of the nine identity criteria; the determinism replay is left
    out so that removing the replay does not change it."""
    return sha256_json([c for c in report["criteria"] if c["name"] != "determinism"])


def check_regress(_inputs, report, exp) -> tuple[bool, int]:
    ok = report["ok"] and regress_identity_digest(report) == exp["regress_sha256"]
    # candidates of the gate's own searches, counted once for the nine
    # criteria: the l=2 product-class scan and the kernel-class searches
    a = corpus.square_lattice_curve()
    crit = {c["name"]: c for c in report["criteria"]}
    prod_basis = varieties.product(a, a).variety.ns_basis
    hits = crit["l2_search_audit"]["cases"]
    last = corpus.matrix_from_json(hits[-1]["audit"]["class"]) if len(hits) == L2_LIMIT else None
    n = candidates_through(prod_basis, L2_BOUND, last)
    dual_basis = varieties.dual(a).ns_basis
    for row in crit["kernel_class_search"]["cases"]:
        basis = dual_basis if row["target"] == "dual_projection_kernel" else a.ns_basis
        found = corpus.matrix_from_json(row["found"]) if row["found"] else None
        n += candidates_through(basis, GATE_KERNEL_BOUND, found)
    return ok, n


# -- partners: enumeration on E_i x E_i -----------------------------------------


def build_partners(seed: int):
    return corpus.square_curve_product()


def run_partners(p):
    return partners.enumerate_partners(
        p, coeff_bound=PARTNER_COEFF_BOUND, denom_bound=PARTNER_DENOM_BOUND
    )


def partners_digest(entries) -> str:
    return sha256_json([
        {
            "coefficients": list(e.coefficients),
            "denominator": e.denominator,
            "partner": corpus.variety_to_json(e.record.partner),
            "fingerprint": {
                "g": e.partner_fingerprint.g,
                "ns_rank": e.partner_fingerprint.ns_rank,
                "profile_bound": e.partner_fingerprint.profile_bound,
                "profiles": [list(t) for t in e.partner_fingerprint.profiles],
            },
        }
        for e in entries
    ])


def check_partners(p, entries, exp) -> tuple[bool, int]:
    ok = (
        len(entries) == exp["partners_count"]
        and partners_digest(entries) == exp["partners_sha256"]
        and all(varieties.is_isomorphism_certificate(e.record.dual_certificate) for e in entries)
    )
    # every (normalized coefficient vector, denominator) pair is a candidate
    r = len(p.ns_basis)
    per_denominator = ((2 * PARTNER_COEFF_BOUND + 1) ** r - 1) // 2
    return ok, per_denominator * PARTNER_DENOM_BOUND


# -- search_l2: the l=2 product-class funnel --------------------------------------


def build_search_l2(seed: int):
    return corpus.square_lattice_curve()


def run_search_l2(a):
    return product_audit.search_product_classes(a, a, l=2, coeff_bound=L2_BOUND, limit=L2_LIMIT)


def check_search_l2(a, hits, exp) -> tuple[bool, int]:
    ok = (
        [int_rows(pc.m) for pc in hits] == exp["search_l2_hits"]
        and all(product_audit.audit_equivalence(pc, 2).all_pass for pc in hits)
    )
    basis = varieties.product(a, a).variety.ns_basis
    last = hits[-1].m if len(hits) == L2_LIMIT else None
    return ok, candidates_through(basis, L2_BOUND, last)


# -- kernel_search: kernel-prescribed class searches on E_i x E_i -------------------


def build_kernel_search(seed: int):
    """One target per distinct kernel of the bound-2 box at l = 2 and l = 3.

    A search's cost depends only on its target, and the box holds 9 distinct
    targets at l = 2 and 11 at l = 3 whose costs differ by a factor of 16.
    Drawing classes uniformly would let the seed decide which rare, costly
    targets appear, so the seed draws one class N from each target's group
    (recorded in expected.json) and the order of the searches, alternating
    l = 2 and l = 3.
    """
    rng = random.Random(seed)
    p = corpus.square_curve_product()
    groups = expected()["kernel_target_groups"]
    draws = {}
    for l in (2, 3):
        draws[l] = [rng.choice(g) for g in groups[str(l)]]
        rng.shuffle(draws[l])
    order = []
    for i in range(max(len(d) for d in draws.values())):
        order += [(l, draws[l][i]) for l in (2, 3) if i < len(draws[l])]
    targets = [
        (l, product_audit.kernel_torsion_subgroup(p, p.ns_class(tuple(n)), l))
        for l, n in order
    ]
    return p, targets


def run_kernel_search(inputs):
    p, targets = inputs
    return [
        product_audit.search_kernel_class(p, l, t, coeff_bound=KERNEL_BOUND)
        for l, t in targets
    ]


def check_kernel_search(inputs, found, exp) -> tuple[bool, int]:
    p, targets = inputs
    n = sum(candidates_through(p.ns_basis, KERNEL_BOUND, c.e if c else None) for c in found)
    ok = len(found) == len(targets) and all(
        cls is not None
        and product_audit.kernel_torsion_subgroup(p, cls, l) == target
        and oracles.same_point_sets(
            oracles.kernel_points_of_class(cls.e, l), oracles.subgroup_points(target)
        )
        for (l, target), cls in zip(targets, found)
    )
    return ok, n


BUILD = {
    "regress": build_regress,
    "partners": build_partners,
    "search_l2": build_search_l2,
    "kernel_search": build_kernel_search,
}
RUN = {
    "regress": run_regress,
    "partners": run_partners,
    "search_l2": run_search_l2,
    "kernel_search": run_kernel_search,
}
CHECK = {
    "regress": check_regress,
    "partners": check_partners,
    "search_l2": check_search_l2,
    "kernel_search": check_kernel_search,
}
