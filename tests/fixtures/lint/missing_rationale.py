"""SUP001 fixture: a suppression without a rationale is itself flagged."""

import time


def bare_directive():
    return time.time()  # repro: noqa[DET001]
