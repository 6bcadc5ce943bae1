"""Serve ``CleaningService`` exactly as ``repro serve`` does, with spans.

Usage (from the repository root, with ``src`` and ``perfbench`` on
``PYTHONPATH``)::

    python3 perfbench/launcher.py --spans-out SPANS.json serve --root DIR --port 0

Installs the timing wrappers of :mod:`tracing` in this process, then
hands the remaining arguments to ``repro.cli.main``.  Tracing starts
enabled, so session creation is traced as set-up.  The benchmark client
drives it through routes that the wrapped handler answers before the
program sees the request:

``GET /_bench/trace/off``  stop recording; the spans so far are set-up
``GET /_bench/trace/on``   record the traced segment
``GET /_bench/flush``      stop recording and write the set-up and
                           segment spans, plus the degradation counters
                           before and after the segment, to ``--spans-out``

Every other request is tagged with its ``X-Request-Id`` header, so the
client can match its round trip to the handler span.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from tracing import Tracer, install


def _reply(handler, body: Dict[str, object]) -> None:
    payload = json.dumps(body).encode("utf-8")
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(payload)))
    handler.end_headers()
    handler.wfile.write(payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans-out", required=True, help="file the spans are written to")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER, help="arguments of `repro serve`")
    args = parser.parse_args(argv)

    from repro import cli
    from repro.resilience.degradation import global_degradations
    from repro.service.app import ServiceHandler

    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    traced_get, traced_post = ServiceHandler.do_GET, ServiceHandler.do_POST
    setup_spans: List[list] = []
    counters_at_enable: Dict[str, int] = {}

    def control(handler) -> None:
        if handler.path == "/_bench/trace/off":
            tracer.enabled = False
            setup_spans.extend(span.as_list() for span in tracer.spans)
            tracer.spans.clear()
            _reply(handler, {"tracing": False})
        elif handler.path == "/_bench/trace/on":
            counters_at_enable.update(global_degradations().snapshot())
            tracer.enabled = True
            _reply(handler, {"tracing": True})
        elif handler.path == "/_bench/flush":
            tracer.enabled = False
            document = {
                "setup_spans": setup_spans,
                "spans": [span.as_list() for span in tracer.spans],
                "degradations_before": dict(counters_at_enable),
                "degradations_after": global_degradations().snapshot(),
            }
            with open(args.spans_out, "w", encoding="utf-8") as out:
                json.dump(document, out)
            _reply(handler, {"spans": len(tracer.spans)})
        else:
            handler.send_error(404)

    def do_GET(handler) -> None:  # noqa: N802 (stdlib naming)
        if handler.path.startswith("/_bench/"):
            control(handler)
            return
        tracer.set_request(handler.headers.get("X-Request-Id"))
        traced_get(handler)

    def do_POST(handler) -> None:  # noqa: N802
        tracer.set_request(handler.headers.get("X-Request-Id"))
        traced_post(handler)

    ServiceHandler.do_GET = do_GET
    ServiceHandler.do_POST = do_POST
    return cli.main(args.serve_args)


if __name__ == "__main__":
    sys.exit(main())
