"""How the synthetic corpus is made, and why it is exactly reproducible.

Every frame is described by a small spec (texture kinds, seeds, region,
per-side noise and compression levels); the dataset manifest records the
spec of every item. Regenerating with the same seed therefore reproduces
every file byte for byte, which is what makes the acceptance protocol's
determinism check possible.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from tamperloc.datagen import load_manifest, make_dataset


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


with tempfile.TemporaryDirectory(prefix="corpus_demo_") as tmp:
    root = Path(tmp)
    manifest = make_dataset(root / "a", count=6, size=64, seed=5, inpaint_fraction=0.5)
    print(f"dataset: {manifest.counts['train']} train + {manifest.counts['eval']} eval items")
    kinds = [item["kind"] for item in manifest.items]
    print(f"tampering kinds: {kinds}")

    # the manifest stores the full recipe of each item
    item = manifest.items[0]
    print(f"\nfirst item ({item['kind']}):")
    print(json.dumps(item["spec"], indent=2, sort_keys=True)[:400])

    # byte-for-byte reproducibility: same seed, fresh directory, same files
    make_dataset(root / "b", count=6, size=64, seed=5, inpaint_fraction=0.5)

    da, db = digest(root / "a"), digest(root / "b")
    print(f"\nsha256 over all files, run a: {da[:32]}...")
    print(f"sha256 over all files, run b: {db[:32]}...")
    print(f"identical: {da == db}")

    reloaded = load_manifest(root / "a")
    print(f"\nmanifest round trip: {len(reloaded.items)} items, seed {reloaded.seed}, "
          f"size {reloaded.size}")
    print(f"corpora written to {root}, which is removed on exit")
