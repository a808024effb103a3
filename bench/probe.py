"""Set-up probe: time ``import blockspec.cli`` in a fresh process, then the
calibration kernel (once to warm it, then the median of three passes).

    PYTHONPATH=$PWD/src python3 bench/probe.py

Prints one JSON object: ``{"import_s": ..., "kernel_s": ...}``.
"""

import json
import sys
from time import perf_counter

from calibrate import settled_kernel_s


def main() -> int:
    start = perf_counter()
    import blockspec.cli  # noqa: F401

    import_s = perf_counter() - start
    print(json.dumps({"import_s": import_s, "kernel_s": settled_kernel_s()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
