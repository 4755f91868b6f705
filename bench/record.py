"""Record the reference outputs the benchmark's checks compare against.

    python3 bench/record.py

rewrites ``bench/expected.json`` from the library at the current checkout.
Run it only when a change is meant to alter an output; the file in the
repository holds the values recorded when the benchmark was defined.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fmtori import corpus, product_audit  # noqa: E402

import workloads as w  # noqa: E402


def kernel_target_groups() -> dict:
    """Nonzero classes of the kernel_search box, grouped by their target
    K(N) meet l-torsion; groups in order of their first class."""
    p = corpus.square_curve_product()
    box = [c for c in itertools.product(range(-w.KERNEL_BOUND, w.KERNEL_BOUND + 1),
                                        repeat=len(p.ns_basis)) if any(c)]
    out = {}
    for l in (2, 3):
        groups: dict = {}
        for c in box:
            target = product_audit.kernel_torsion_subgroup(p, p.ns_class(c), l)
            groups.setdefault(target, []).append(list(c))
        out[str(l)] = list(groups.values())
    return out


def main() -> None:
    report = w.run_regress(w.build_regress(0))
    if not report["ok"]:
        sys.exit("regress gate fails; nothing recorded")
    entries = w.run_partners(w.build_partners(0))
    hits = w.run_search_l2(w.build_search_l2(0))
    exp = {
        "regress_sha256": w.regress_identity_digest(report),
        "partners_count": len(entries),
        "partners_sha256": w.partners_digest(entries),
        "search_l2_hits": [w.int_rows(pc.m) for pc in hits],
        "kernel_target_groups": kernel_target_groups(),
    }
    w.EXPECTED_FILE.write_text(json.dumps(exp) + "\n", "utf-8")
    print(f"wrote {w.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
