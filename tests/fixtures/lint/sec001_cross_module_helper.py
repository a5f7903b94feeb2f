"""Helper module for the cross-module SEC001 fixtures.

Neither function is a taint source or a sink by *name*.  Only the
interprocedural summaries reveal that ``frame_rows`` forwards its
argument's taint to its return value and that ``persist_blob`` hands
its argument to a transactional write sink.
"""


def frame_rows(rows):
    header = len(rows).to_bytes(8, "little")
    return header + rows


def persist_blob(tx, blob):
    tx.write(0, blob)
