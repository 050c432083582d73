"""Run ``kpbs serve`` in this process with the benchmark's layer wrappers.

Usage: ``python3 perfbench/serve_daemon.py SUMMARY.json [serve options]``.

The daemon is the stock CLI entry point (``repro.cli.main.main``) with
the default configuration; this launcher only installs the wrappers of
:mod:`tracing` first and, once the daemon has stopped (SIGTERM), writes
the span summary, the retained spans, the daemon's own
``serve.request.seconds`` samples and its threshold-probe count to
``SUMMARY.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import harness
import tracing


def main(argv: list[str]) -> int:
    summary_path = Path(argv[0])
    harness.use_source()
    from repro import obs
    from repro.cli.main import main as cli_main

    rec = tracing.Recorder()
    tracing.install(rec)
    # Enabled here rather than by the daemon, so the registry outlives
    # the server's own shutdown and can be read below.
    registry, _ = obs.enable()
    code = cli_main(["serve", *argv[1:]])

    requests = registry.histogram("serve.request.seconds")
    rec.write_chrome(summary_path.with_suffix(".trace.json"))
    harness.write_json(summary_path, {
        "spans": rec.summary(),
        "request_s": list(requests.values),
        "threshold_probes": registry.counter(
            "matching.bottleneck.threshold_probes"
        ).value,
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
