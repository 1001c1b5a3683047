"""One cold set-up in a fresh interpreter: imports, family, parameter
sampling and test instances.  Prints ``ready`` when done; the parent times
process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import env  # noqa: F401  (thread pins and import path)
import pipeline
import workloads

pipeline.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print("ready", flush=True)
