"""One benchmark child process.

    python3 bench/child.py SPAWN_TIME RESULT_JSON MODE [CLI ARGUMENT ...]

Run from the root of a checkout.  SPAWN_TIME is the CLOCK_MONOTONIC
reading the parent took just before starting this process; the time from
it to the moment ``walshvie.cli`` is imported is the set-up time.  MODE
is ``setup`` (import only), ``plain`` (run ``walshvie.cli.main`` on the
CLI arguments), ``trace`` (the same with every package function wrapped
in a span) or ``alloc`` (the same with tracemalloc inside each solve).
The record is written to RESULT_JSON as JSON.
"""

import json
import os
import sys
import time


def main():
    spawn = float(sys.argv[1])
    result_path, mode, cli_argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import walshvie
    import walshvie.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    record = {"setup_s": ready - spawn, "cli_file": os.path.abspath(walshvie.cli.__file__)}
    if mode != "setup":
        probe = None
        if mode in ("trace", "alloc"):
            import spans

            probe = spans.Tracer() if mode == "trace" else spans.AllocProbe()
            probe.install(walshvie)
        start = time.perf_counter()
        try:
            status = walshvie.cli.main(cli_argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code if isinstance(exc.code, int) else 2
        record["wall_s"] = time.perf_counter() - start
        record["status"] = status
        if probe is not None:
            record.update(probe.report())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
