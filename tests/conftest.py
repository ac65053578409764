"""Make PYTHONPATH entries absolute before any test changes directory.

The documented command runs the suite with ``PYTHONPATH=src``.  Tests that
start a child interpreter from inside ``tmp_path`` inherit that variable,
and a relative entry would no longer point at the package there.
"""

import os

_entries = os.environ.get("PYTHONPATH")
if _entries:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) if p else p for p in _entries.split(os.pathsep)
    )
