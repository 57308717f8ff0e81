"""Traced CLI launcher: ``cli_child.py <summary-path> <kstab argv...>``.

Times the import of ``kstab.cli``, installs the span wrappers, runs
``kstab.cli.main(argv)`` and exits with its code.  The span summary goes to
``<summary-path>.json`` and the spans to ``<summary-path>.tsv``; stdout
carries only the command's own output.
"""

import json
import sys
from time import perf_counter

import tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import kstab.cli

    import_s = perf_counter() - t0
    spans = tracer.Tracer()
    spans.install()
    code = kstab.cli.main(argv)
    spans.uninstall()
    sys.stdout.flush()
    summary = spans.summary()
    summary["counts"]["cli.import_s"] = import_s
    main_id = spans.stems.index("cli.main")
    summary["main_s"] = sum(spans.end[i] - spans.start[i] for i in range(len(spans.start)) if spans.name_id[i] == main_id)
    with open(summary_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    spans.dump(summary_path + ".tsv")
    return code


if __name__ == "__main__":
    sys.exit(main())
