"""Property tests for the cluster network + event loop substrate.

Hypothesis drives arbitrary message schedules — interleaved sends,
partitions, and heals over a 3-host mesh — and checks the substrate's
contracts:

* determinism: the same schedule replays to the identical delivery log
  (payloads, edges, and sim times);
* per-link FIFO: messages on one directed edge arrive in send order,
  partitions notwithstanding;
* partition blackout: a partitioned edge delivers nothing strictly
  between the cut and the heal;
* exactly-once: after a final heal-all flush, every sent message is
  delivered exactly once — heal neither duplicates nor drops;
* transit floor: no message arrives before ``send + latency +
  size/bandwidth``.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.loop import EventLoop
from repro.cluster.network import ClusterNetwork
from repro.simtime.clock import SimClock

HOSTS = ("a", "b", "c")
EDGES = tuple(
    (src, dst) for src in HOSTS for dst in HOSTS if src != dst
)

#: Schedule op: ("send", edge, nbytes) | ("partition", edge) |
#: ("heal", edge), each at an integer-microsecond tick.
_op = st.one_of(
    st.tuples(
        st.just("send"),
        st.sampled_from(EDGES),
        st.integers(min_value=1, max_value=1 << 16),
    ),
    st.tuples(st.just("partition"), st.sampled_from(EDGES)),
    st.tuples(st.just("heal"), st.sampled_from(EDGES)),
)

schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2000), _op),
    min_size=1,
    max_size=40,
)


#: A send into a cut link while an earlier message is still in flight:
#: the later one is held at send time, the earlier one at arrival, so a
#: heal that flushed in catch order delivered ``[1, 0]``.
SEND_INTO_CUT_BEHIND_IN_FLIGHT = [
    (163, ("partition", ("a", "b"))),
    (162, ("send", ("a", "b"), 1)),
    (212, ("send", ("a", "b"), 1)),
]

#: A partition and a heal of one edge at the same tick, in that order:
#: the loop drains them in push order, so the edge is never cut.  An
#: oracle that broke the tie by the kind's name ("heal" < "partition")
#: invented a cut from 0 to the end that swallowed the send.
PARTITION_HEAL_SAME_TICK = [
    (0, ("partition", ("a", "b"))),
    (0, ("heal", ("a", "b"))),
    (50, ("partition", ("a", "c"))),
    (0, ("send", ("a", "b"), 1)),
]

#: A delivery that lands exactly on a heal's tick: advancing the clock
#: by ``t - now`` left it one ulp short of 1517e-6, inside the window.
DELIVERY_AT_THE_HEAL = [
    (0, ("partition", ("a", "b"))),
    (280, ("send", ("a", "b"), 1)),
    (1517, ("heal", ("a", "b"))),
]


def run_schedule(ops):
    """Execute a schedule; returns (sends, deliveries, end_time).

    ``sends``: ``[(edge, msg_id, send_time, nbytes)]`` in send order.
    ``deliveries``: ``[(edge, msg_id, deliver_time)]`` in arrival order.
    A final heal-all past the last tick flushes every held message.
    """
    clock = SimClock()
    loop = EventLoop(clock)
    network = ClusterNetwork(clock, loop=loop)
    for src, dst in EDGES:
        network.connect(src, dst, duplex=False)
    loop.register("call", lambda fn: fn())

    sends = []
    deliveries = []
    counter = {"next": 0}

    def do_send(edge, nbytes):
        def act():
            msg_id = counter["next"]
            counter["next"] += 1
            sends.append((edge, msg_id, clock.now(), nbytes))
            network.send(
                edge[0],
                edge[1],
                b"\x00" * nbytes,
                lambda payload, e=edge, m=msg_id: deliveries.append(
                    (e, m, clock.now())
                ),
            )
        return act

    for tick, op in ops:
        at = tick * 1e-6
        if op[0] == "send":
            loop.push(at, "call", do_send(op[1], op[2]))
        elif op[0] == "partition":
            edge = op[1]
            loop.push(
                at,
                "call",
                lambda e=edge: network.partition(e[0], e[1], duplex=False),
            )
        else:
            edge = op[1]
            loop.push(
                at,
                "call",
                lambda e=edge: network.heal(e[0], e[1], duplex=False),
            )

    end = (max(tick for tick, _ in ops) + 1) * 1e-6

    def heal_all():
        for src, dst in EDGES:
            network.heal(src, dst, duplex=False)

    loop.push(end, "call", heal_all)
    loop.run()
    return sends, deliveries, end


@settings(max_examples=60, deadline=None)
@given(schedules)
def test_same_schedule_replays_identically(ops):
    first = run_schedule(ops)
    second = run_schedule(ops)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(schedules)
@example(SEND_INTO_CUT_BEHIND_IN_FLIGHT)
def test_per_link_fifo(ops):
    sends, deliveries, _ = run_schedule(ops)
    for edge in EDGES:
        sent_order = [m for e, m, _, _ in sends if e == edge]
        arrival_order = [m for e, m, _ in deliveries if e == edge]
        assert arrival_order == sent_order


@settings(max_examples=60, deadline=None)
@given(schedules)
@example(PARTITION_HEAL_SAME_TICK)
@example(DELIVERY_AT_THE_HEAL)
def test_partition_blackout(ops):
    """Nothing arrives strictly inside a (partition, heal) window."""
    sends, deliveries, end = run_schedule(ops)
    for edge in EDGES:
        # Reconstruct the edge's partition intervals from the schedule
        # (the final heal-all closes any still-open cut at ``end``).
        # Same-tick events run in push order, i.e. their order in ops.
        events = sorted(
            (tick, index, op[0])
            for index, (tick, op) in enumerate(ops)
            if op[0] in ("partition", "heal") and op[1] == edge
        )
        intervals = []
        cut_at = None
        for tick, _, kind in events:
            t = tick * 1e-6
            if kind == "partition" and cut_at is None:
                cut_at = t
            elif kind == "heal" and cut_at is not None:
                intervals.append((cut_at, t))
                cut_at = None
        if cut_at is not None:
            intervals.append((cut_at, end))
        for e, _, at in deliveries:
            if e != edge:
                continue
            for lo, hi in intervals:
                assert not (lo < at < hi), (
                    f"delivery on {edge} at {at} inside partition "
                    f"window ({lo}, {hi})"
                )


@settings(max_examples=60, deadline=None)
@given(schedules)
@example(SEND_INTO_CUT_BEHIND_IN_FLIGHT)
def test_heal_neither_duplicates_nor_drops(ops):
    sends, deliveries, _ = run_schedule(ops)
    assert sorted(m for _, m, _, _ in sends) == sorted(
        m for _, m, _ in deliveries
    )


@settings(max_examples=60, deadline=None)
@given(schedules)
def test_transit_time_floor(ops):
    sends, deliveries, _ = run_schedule(ops)
    clock = SimClock()
    network = ClusterNetwork(clock)
    for src, dst in EDGES:
        network.connect(src, dst, duplex=False)
    arrived = {m: at for _, m, at in deliveries}
    for edge, msg_id, sent_at, nbytes in sends:
        link = network.link(*edge)
        floor = sent_at + link.transit_time(nbytes)
        assert arrived[msg_id] >= floor - 1e-12
