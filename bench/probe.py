"""Set-up probe: import sivreg and warm up the layers of one workload.

Usage: python3 probe.py WORKLOAD

The parent times the whole process, from interpreter start to exit.
"""

import importlib
import sys

if __name__ == "__main__":
    importlib.import_module(sys.argv[1]).warm_up()
