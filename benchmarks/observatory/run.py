"""Script entry point: ``python3 benchmarks/observatory/run.py ...``.

The ``BENCHMARK.json`` command.  Puts the checkout root on ``sys.path`` in
place of this directory (so sibling module names can never shadow the
stdlib), then hands over to :mod:`benchmarks.observatory.cli`.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __name__ == "__main__":
    sys.path[:] = [ROOT] + [p for p in sys.path
                            if os.path.abspath(p or os.getcwd()) != HERE]
    from benchmarks.observatory.cli import main
    sys.exit(main())
