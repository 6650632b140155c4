"""Entry point: works as a script, a directory and ``-m benchmarks.ledger``.

Puts the checkout's ``src`` (the program) and root (this package) on the
path itself, so the command needs no ``PYTHONPATH``, and pins string
hashing so that one seed means the same work in every process: dict and
set layouts, in the program and its ndb-server child, no longer differ
from run to run.
"""

import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])

    from benchmarks.ledger.cli import main

    sys.exit(main())
