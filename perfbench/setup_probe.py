"""Time one set-up in a fresh interpreter: import msplogit, then load a CSV.

Usage: python3 setup_probe.py SRC_DIR CSV_PATH CONFIG_JSON

CONFIG_JSON holds the ``RunConfig`` column settings.  Prints the
seconds from before the import to after ``cli.load_csv`` returns, which
includes importing numpy and scipy and validating the dataset.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from msplogit import cli

    cli.load_csv(sys.argv[2], cli.RunConfig(command="fit", data=sys.argv[2], **json.loads(sys.argv[3])))
    print(repr(time.perf_counter() - START))
