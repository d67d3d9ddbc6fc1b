"""Entry point of one workload child (started by ``run.py``).

Kept apart from ``workloads.py`` so that module is imported exactly once
under its own name — ``layers.py`` tells the workload classes apart with
``isinstance``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    sys.exit(workloads.main())
