"""MCBound HTTP backend in its own process, as the benchmark deploys it.

JobTrace.load -> load_trace_into_db -> MCBound (with a ModelStore, so
publish is part of every retrain) -> build_app -> serve.  The server
prints ``{"port": N}`` on one stdout line once it listens, and runs until
its stdin is closed.  With ``--spans FILE`` it installs the tracing
wrappers first and writes the recorded spans to FILE on the way out.

Run:  PYTHONPATH=src python3 e2ebench/server.py --trace-file T --store DIR \
          --config '{"algorithm": "KNN", ...}' [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import MCBound, MCBoundConfig, build_app, load_trace_into_db
from repro.fugaku.trace import JobTrace
from repro.web import serve

import tracing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-file", required=True, help="JobTrace.save path")
    parser.add_argument("--store", required=True, help="model store directory")
    parser.add_argument("--config", required=True, help="MCBoundConfig fields as JSON")
    parser.add_argument("--spans", help="write recorded spans to this file")
    args = parser.parse_args()

    framework = MCBound(
        MCBoundConfig(**json.loads(args.config)),
        load_trace_into_db(JobTrace.load(args.trace_file)),
        model_store_root=args.store,
    )
    app = build_app(framework)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer, app, framework)
    handle = serve(app)
    print(json.dumps({"port": handle.port}), flush=True)
    sys.stdin.read()
    handle.stop()
    if tracer is not None:
        tracing.resolve_publish_bytes(tracer, framework)
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
