"""Unpaired MR/CT slice synthesis with a cycle-consistent adversarial model."""

import os

__version__ = "0.1.0"


def thread_cap():
    """The BLAS thread cap CYCLESYNTH_THREADS sets: its value if that is an integer >= 1
    written in decimal digits alone, else None (no cap). The one reading of the variable:
    the CLI sets the BLAS thread variables from it before numpy is imported, so this
    module imports no numpy, and train picks the number of processes from it."""
    value = os.environ.get("CYCLESYNTH_THREADS", "")
    return int(value) if value.isdecimal() and int(value) >= 1 else None
