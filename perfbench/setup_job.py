"""The set-up every job pays before its first numerical call.

    python perfbench/setup_job.py <config>...

Imports `wwm.cli`, then loads each config and builds its grid, scheme and
state with the CLI's own `_build`.  Needs `wwm` importable
(PYTHONPATH=src).
"""

import sys

from wwm import cli


def main(paths):
    for path in paths:
        cli._build(cli.load_config(path))


if __name__ == "__main__":
    main(sys.argv[1:])
