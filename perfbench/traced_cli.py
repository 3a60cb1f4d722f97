"""Run one CLI command under tracing and write the trace aggregates.

    python3 perfbench/traced_cli.py OUT.json <subcommand> [options...]

Standard output and the exit code are those of ``spaltenstein`` itself;
the aggregates go to OUT.json and the spans to OUT.json.spans.jsonl.
"""

import json
import sys
from time import perf_counter


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import spaltenstein.cli as cli
    import_s = perf_counter() - t0
    from tracing import Tracer, cache_sizes

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdout.flush()
        dump = tracer.dump()
        dump["caches"], dump["caches_absent"] = cache_sizes()
        dump["import_s"] = [import_s]
        with open(out_path, "w") as fh:
            json.dump(dump, fh)
        tracer.write_spans(out_path + ".spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
