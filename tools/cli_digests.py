"""Exit code and stdout sha256 of every CLI step of the benchmark's op sets.

Runs op sets ``--sets`` of each workload and the probe ops, for each of
``--seeds``, through ``perfbench/workloads.py`` and ``worker.run_op``
(imported, not changed), and writes ``{"workload/seed/set/op/step":
[exit code, stdout sha256]}`` as JSON; probe ops are keyed
``probe/seed/-/op/step``. ``--root`` names the checkout whose ``src`` and
``perfbench`` are imported.

    python3 tools/cli_digests.py --out after.json
    python3 tools/cli_digests.py --root ../parent --out before.json
    python3 tools/cli_digests.py --compare before.json after.json  # exit 1 if any differ
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile


def digests(root: str, seeds, sets) -> dict:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from worker import run_op

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            batches = [(w, i, workloads.make_ops(w, seed, i, root, workdir))
                       for w in workloads.WHY for i in sets]
            for workload, index, ops in batches + [("probe", "-", workloads.probe_ops(seed, workdir))]:
                for op in ops:
                    for step, (code, stdout, _) in enumerate(run_op(op)):
                        key = f"{workload}/{seed}/{index}/{op.name}/{step}"
                        assert key not in out, key
                        out[key] = [code, hashlib.sha256(stdout.encode()).hexdigest()]
    return out


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--sets", type=int, nargs="+", default=[0, 1])
    p.add_argument("--out", default="cli_digests.json")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        a, b = map(_load, args.compare)
        differ = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
        for k in differ:
            print(k, a.get(k), b.get(k))
        print(f"{len(differ)} of {len(a.keys() | b.keys())} steps differ")
        return 1 if differ else 0
    found = digests(os.path.abspath(args.root), args.seeds, args.sets)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(found, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
