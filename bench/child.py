"""One measured pass: a fresh interpreter that runs `eegid` CLI commands.

Usage: python3 child.py SPEC_JSON

The spec names the package source directory, the commands (argument lists
for `eegid.cli.main`), whether to trace, and where to write the result.  The
result records the monotonic time just before the first command (the end of
set-up), each command's exit code or exception, and, when traced, the spans.
With no commands the pass only imports the package, which warms the byte
code and file caches before anything is timed.
"""

import json
import signal
import sys
import time

_TIMEOUT_S = 120  # a hung pass dies instead of holding the run past its limit


def main():
    signal.alarm(_TIMEOUT_S)
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from eegid import cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    commands = []
    for argv in spec["commands"]:
        try:
            code, error = cli.main(argv), None
        except Exception as exc:  # a crash is a failed operation, not a harness error
            code, error = None, f"{type(exc).__name__}: {exc}"
        commands.append({"argv": argv, "exit": code, "error": error})
    result = {"ready": ready, "commands": commands}
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
