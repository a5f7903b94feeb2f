"""SEC001 silent fixture: the cross-module flow is sealed before the sink.

Same call shape as ``sec001_cross_module_bad.py``, but the framed
buffer passes through ``engine.seal`` (a sanitizer) before reaching the
transactional write, and the helper receives ciphertext.
"""

from sec001_cross_module_helper import frame_rows, persist_blob


def checkpoint(net, engine, tx):
    payload = net.save_weights()
    framed = frame_rows(payload)
    sealed = engine.seal(framed)
    tx.write(64, sealed)


def checkpoint_via_helper(net, engine, tx):
    payload = net.save_weights()
    persist_blob(tx, engine.seal(payload))
