"""Start ``netpower serve`` with its layers timed from outside.

Usage::

    python3 perfbench/launcher.py STATS_OUT serve --preset synth-1k ...

Wraps the public build and request-path functions listed in
:mod:`layers`, installs the program's own kernel profiler and span
tracer, then hands the remaining arguments to the CLI entry point.
When the server exits (SIGTERM), the accumulated layer times are
written to ``STATS_OUT`` as JSON.
"""

import json
import sys
from pathlib import Path

import layers


def main(argv):
    """Run the CLI under the layer clock; returns its exit code."""
    stats_out = Path(argv[0])
    clock = layers.LayerClock()
    clock.install(layers.BUILD_POINTS + layers.SERVE_POINTS)

    from repro import cli
    from repro.obs import profile, tracing

    profiler = profile.Profiler()
    tracer = tracing.Tracer()
    profile.set_profiler(profiler)
    tracing.set_tracer(tracer)
    try:
        return cli.main(argv[1:])
    finally:
        document = {
            "layers": clock.stats,
            "kernels": layers.kernel_seconds(profiler.to_dict()),
            "finalize_s": layers.span_seconds(tracer.roots,
                                              "sim.finalize"),
        }
        partial = stats_out.with_suffix(".partial")
        partial.write_text(json.dumps(document))
        partial.replace(stats_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
