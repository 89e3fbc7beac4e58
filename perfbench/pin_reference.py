"""Pin the reference digests that the correctness gate compares against.

Run once at the commit whose outputs are the reference (the seed commit):

    python3 perfbench/pin_reference.py

It trains ``train-plaintext``'s configuration for every training seed in
the input pool and records the SHA-256 of each metrics CSV in
``perfbench/reference.json``. Later commits must reproduce these bytes.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import INPUT_POOL, PLAIN_EPOCHS, REFERENCE, Package, csv_bytes, sha256  # noqa: E402


def main() -> None:
    m = Package()
    data = m.vqa.load_digits_csv()
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for seed in range(INPUT_POOL):
            _, metrics = m.vqa.train(data, m.vqa.TrainConfig(epochs=PLAIN_EPOCHS, seed=seed))
            digests[str(seed)] = sha256(csv_bytes(m, metrics, Path(tmp)))
            print(seed, digests[str(seed)], flush=True)
    REFERENCE.write_text(json.dumps({"train-plaintext": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
