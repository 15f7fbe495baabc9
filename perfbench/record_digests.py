#!/usr/bin/env python3
"""Record the key digests that ``run.py`` checks every build against.

For each build workload and seed, generates the inputs, builds one key and
stores the SHA-256 of its ``save_key`` bytes in ``digests.json``.  Re-record
only with a deliberate key change (a key-format version bump); otherwise a
digest mismatch in a run is a determinism failure.

    python3 perfbench/record_digests.py --seeds 0-31 [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from inputs import generate
from workloads import DIGESTS, BuildWorkload, Outcome

STATE = Path(__file__).resolve().parent.parent / ".perfbench"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    table = json.loads(DIGESTS.read_text(encoding="ascii"))
    STATE.mkdir(exist_ok=True)
    for workload in ("build-flat", "audit-bucketed"):
        entry = table.setdefault(workload + ("/smoke" if args.smoke else ""), {})
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=STATE) as tmp:
                generate(workload, seed, Path(tmp), args.smoke)
                work = BuildWorkload(workload, Path(tmp), seed, args.smoke, Outcome())
                work.setup()
                _, digest, _ = work.build()
            entry[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", flush=True)
        table[workload + ("/smoke" if args.smoke else "")] = dict(sorted(entry.items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
