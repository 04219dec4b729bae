"""One analyzer process: the ``minicheck`` console script run from the
checkout's ``src/``, plus an exit record for the benchmark.

    python3 perfbench/launch.py analyze prog.mc --state-dir state

With ``PERFBENCH_RECORD=FILE`` the process writes its peak resident set to
FILE as it exits; with ``PERFBENCH_TRACE=1`` as well, it first wraps the
layers (see tracing.py) and adds their spans to the record.
"""

import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    record_path = os.environ.get("PERFBENCH_RECORD")
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from minicheck import cli
    try:
        return cli.main(sys.argv[1:])
    finally:
        if record_path:
            record = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                record["spans"] = tracer.spans
                record["missing"] = tracer.missing
                record["install_s"] = tracer.install_s
            with open(record_path, "w") as f:
                json.dump(record, f)


if __name__ == "__main__":
    sys.exit(main())
