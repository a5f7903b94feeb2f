"""Suppression fixture: rationale-carrying noqa directives hide findings."""

import time


def suppressed_clock():
    return time.time()  # repro: noqa[DET001] -- fixture exercising the suppression path


def suppressed_standalone():
    # repro: noqa[DET001] -- directive on its own line covers the call below
    return time.perf_counter()
