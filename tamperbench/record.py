"""Record the reference outputs the benchmark checks every operation against.

    python3 tamperbench/record.py [--seeds 16] [--size N] [--out PATH]

For every workload and each corpus seed 0..R-1 this stores, untimed:
``train-64`` the per-step loss history of one ``train()`` call, and the
infer workloads each item's probability sum, index-weighted probability
sum, tampered-pixel count and count of pixels within the ambiguity margin
of the threshold. ``--out`` is written afresh. Record only at a commit
whose outputs are known good: the references define correctness for every
later run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads as w


def record(wl, size: int, seeds: int) -> dict:
    work = w.fresh_workdir("record-" + wl.name)
    try:
        per_seed = []
        for seed in range(seeds):
            state = w.set_up(wl, size, seed, work, seed, warm=False)
            if wl.kind == "train":
                per_seed.append(w.train_call(state))
            else:
                per_seed.append([w.infer_frame(state, i)[1] for i in range(len(state.items))])
            print(f"{wl.name}: seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "size": size,
        "count": wl.count,
        "steps": w.TRAIN_STEPS if wl.kind == "train" else None,
        "seeds": per_seed,
    }


def main(argv) -> int:
    p = argparse.ArgumentParser(description="record tamperloc benchmark references")
    p.add_argument("--seeds", type=int, default=16, help="corpus seeds 0..N-1")
    p.add_argument("--size", type=int, default=None, help="frame side override")
    p.add_argument("--out", default=str(w.REFERENCE))
    args = p.parse_args(argv)
    doc = {name: record(wl, args.size or wl.size, args.seeds) for name, wl in w.WORKLOADS.items()}
    # one line per workload keeps the file small and its diffs readable
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(doc.items()))
    Path(args.out).write_text("{\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
