#!/usr/bin/env python3
"""Record the component-text digest of every instance a workload can draw.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/record_digests.py

It rewrites ``perfbench/digests.json``.  Each digest is that of the
incremental engine's component text.  Where the recursive engine is
affordable (non-generic input, or generic with p <= 80) its text must be
byte-equal, and where the oracle box fits the default budget the oracle
must certify the components; otherwise the script stops without writing.
"""

import json
import sys

from run import HERE, digest, import_library

import workloads


def main():
    lib = import_library()
    from monideal.oracle import BudgetError, components_generate
    out = {}
    for inst in sorted(workloads.pool_instances(), key=lambda i: i.name):
        g = lib.GeneratorSet.from_vectors(inst.n, inst.vectors)
        comps = lib.decompose_incremental(g)
        text = lib.emit_components(comps)
        if not inst.name.startswith("generic") or g.p <= 80:
            if lib.emit_components(lib.decompose_recursive(g)) != text:
                sys.exit(f"{inst.name}: engines disagree")
        try:
            if not components_generate(comps, g):
                sys.exit(f"{inst.name}: oracle rejects the components")
        except BudgetError:
            pass
        out[inst.name] = digest(text)
        print(inst.name, out[inst.name], flush=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(out)} digests")


if __name__ == "__main__":
    main()
