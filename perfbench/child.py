"""One benchmark child: import fairank, then run CLI commands in-process.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py '{"commands": [[...argv...], ...], "trace": false}'

It prints ``ready`` on stdout as soon as ``fairank.cli`` and NumPy are
imported, so the parent can time set-up. Then it runs each command through
``fairank.cli.main`` with stdout sent to stderr, and prints one JSON line:
each command's exit code, wall time and machine-speed samples
(calibrate.py), the set-up samples, the process's peak resident memory
and, with ``"trace": true``, the span summary of spans.Tracer.
"""

import contextlib
import json
import resource
import sys
import time
import traceback

import calibrate

SAMPLER = calibrate.Sampler()
SAMPLER.start()  # before the imports, so set-up is sampled too
START_MARK = SAMPLER.mark()

import numpy  # noqa: E402,F401  (imported before "ready": part of set-up)

import fairank  # noqa: E402
import fairank.cli  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident memory. VmHWM covers only the program
    image since exec; ru_maxrss would also count the parent's memory, which
    the forked child carried until exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_commands(job):
    tracer = None
    if job["trace"]:
        from spans import Tracer

        SAMPLER.stop()  # per-layer times are raw; keep ticks out of the spans
        tracer = Tracer()
        tracer.install()
    commands = []
    for argv in job["commands"]:
        before = SAMPLER.mark()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            try:
                if tracer is None:
                    code = fairank.cli.main(argv)
                else:
                    code = tracer.span("cli.main", fairank.cli.main, argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails this command, not the run
                traceback.print_exc()
                code = -1
        wall_s = time.perf_counter() - start
        speed = calibrate.window(before, SAMPLER.mark())
        commands.append({"code": code, "wall_s": wall_s - speed["handler_s"],
                         "speed": speed})
        if tracer is not None:
            tracer.probe()
    return {
        "commands": commands,
        "peak_rss_mb": peak_rss_mb(),
        "fairank_file": fairank.__file__,
        "trace": None if tracer is None else tracer.summary(),
    }


if __name__ == "__main__":
    setup_speed = calibrate.window(START_MARK, SAMPLER.mark())
    print("ready", flush=True)
    try:
        result = run_commands(json.loads(sys.argv[1]))
    finally:
        SAMPLER.stop()  # a tick after the handler is gone would kill the process
    result["setup_speed"] = setup_speed
    print(json.dumps(result), flush=True)
