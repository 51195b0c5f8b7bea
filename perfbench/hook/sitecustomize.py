"""Start-up hook: trace this process when PERFBENCH_TRACE_DIR is set.

``perfbench/run.py --trace 1`` puts this directory on ``PYTHONPATH``
before it starts the daemons of a ``Router`` (which passes its
environment to every child), so each daemon records spans around the
program's public functions and writes them to that directory at exit.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.trace_process(os.environ["PERFBENCH_TRACE_DIR"])
