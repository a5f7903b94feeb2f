"""SEC001 fire fixture: plaintext crosses call boundaries to a sink.

Neither flow is visible inside one function:

* ``checkpoint`` launders the tainted buffer through ``frame_rows``
  (another module) before writing it — locally, ``framed`` is just the
  result of a call;
* ``checkpoint_via_helper`` passes the tainted buffer to a helper whose
  *body* contains the sink — locally there is no sink call at all.
"""

from sec001_cross_module_helper import frame_rows, persist_blob


def checkpoint(net, tx):
    payload = net.save_weights()
    framed = frame_rows(payload)
    tx.write(64, framed)


def checkpoint_via_helper(net, tx):
    payload = net.save_weights()
    persist_blob(tx, payload)
