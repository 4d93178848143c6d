"""Rewrite the committed goldens under ``esrbench/expected/``.

    python3 esrbench/goldens.py            # des-figures, engine-replay seeds 1..10
    python3 esrbench/goldens.py 11 12      # plus engine-replay seeds 11 and 12

Run it only when a change is *meant* to alter what the engine or the
simulator decides; the diff of the golden files is then part of the
change's review.
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    common.bootstrap()
    import des_figures
    import engine_replay

    des_figures.write_expected()
    for seed in list(range(1, 11)) + [int(arg) for arg in sys.argv[1:]]:
        engine_replay.write_expected(seed)
        print(f"engine-replay seed {seed} written", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
