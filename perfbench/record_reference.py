"""Rewrite ``perfbench/reference.json``: digests of every checked output.

    python3 perfbench/record_reference.py

Run it from the repository root on a commit whose outputs are known good;
the benchmark then requires every later run to reproduce them byte for
byte.  Point-query outputs depend on the seed and are checked by their
defining properties instead, so they have no digest.
"""

import json
import os
import sys

sys.dont_write_bytecode = True

import run
import wl_cli
import wl_discrete
import wl_surfaces

ROOT = run.ROOT


def main() -> int:
    run.pin_environment(__file__)  # record under the environment the outputs are checked in
    sys.path.insert(0, os.path.join(ROOT, "src"))
    reference = {
        wl.name: wl(ROOT, 0, {}).record()
        for wl in (wl_cli.CliWorkload, wl_surfaces.SurfacesWorkload, wl_surfaces.LadderWorkload,
                   wl_discrete.DiscreteWorkload)
    }
    with open(os.path.join(ROOT, "perfbench", "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
