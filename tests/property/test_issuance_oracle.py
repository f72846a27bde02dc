"""The engine's issuance round against the plain reference round.

``Engine._gpu_round`` visits only busy SMs and issues each fault with one
fused warp step; ``fault_oracle.reference_round`` walks every SM and issues
with a look-ahead then a take.  Random SM, warp, µTLB and buffer states —
satisfied occurrences, pages already pending in the µTLB (merges), full
µTLBs, a buffer one entry from capacity and injected overflow drops among
them — must leave both with the same buffer window, µTLBs, SM budgets and
counters, and warp queues.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import UvmSystem
from repro.config import default_config
from repro.gpu.fault import AccessType
from repro.gpu.warp import Phase, WarpProgram, WarpState
from tests.property.fault_oracle import reference_round

#: A small page universe, so merges and duplicate occurrences are common.
PAGES = 10
page_st = st.integers(min_value=0, max_value=PAGES - 1)
occurrence_st = st.tuples(page_st, st.sampled_from([AccessType.READ, AccessType.WRITE]))


@st.composite
def warp_states(draw):
    missing = draw(st.sets(page_st, min_size=1, max_size=5))
    # Queue pages outside ``missing`` are occurrences satisfied before
    # they issued.
    queue = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(sorted(missing)), st.just(AccessType.READ)),
                occurrence_st,
            ),
            max_size=8,
        )
    )
    head = draw(st.integers(min_value=0, max_value=max(0, len(queue) - 1)))
    ready = draw(st.booleans())
    return missing, queue, head, ready


@st.composite
def round_states(draw):
    num_sms = draw(st.integers(min_value=1, max_value=6))
    sms_per_utlb = draw(st.integers(min_value=1, max_value=3))
    num_utlbs = (num_sms + sms_per_utlb - 1) // sms_per_utlb
    utlb_limit = draw(st.integers(min_value=1, max_value=6))
    capacity = draw(st.integers(min_value=2, max_value=24))
    return {
        "num_sms": num_sms,
        "sms_per_utlb": sms_per_utlb,
        "utlb_limit": utlb_limit,
        "rate": draw(st.integers(min_value=1, max_value=6)),
        "capacity": capacity,
        "fill": draw(
            st.one_of(st.just(capacity - 1), st.integers(min_value=0, max_value=capacity))
        ),
        "sites": draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "fault_buffer.overflow": st.sampled_from([0.3, 0.9]),
                    "fault_buffer.duplicate": st.just(0.3),
                    "utlb.stall": st.just(0.3),
                    "utlb.early_cancel": st.just(0.5),
                },
            )
        ),
        "seed": draw(st.integers(min_value=0, max_value=3)),
        "burst": draw(st.booleans()),
        "window_usec": draw(st.sampled_from([0.0, 5.0, 40.0])),
        "sms": [
            {
                "warps": draw(st.lists(warp_states(), max_size=3)),
                "queued": draw(st.lists(st.lists(page_st, min_size=1, max_size=3), max_size=2)),
                "backlog": draw(st.sampled_from([0.0, 0.0, 2.5])),
            }
            for _ in range(num_sms)
        ],
        # A full µTLB holds ``utlb_limit`` pending pages.
        "pending": [
            draw(
                st.one_of(
                    st.sets(page_st, min_size=utlb_limit, max_size=utlb_limit),
                    st.sets(page_st, max_size=utlb_limit),
                )
            )
            for _ in range(num_utlbs)
        ],
    }


def build(state) -> UvmSystem:
    """A system holding ``state`` (deterministic: equal states build equal
    systems)."""
    cfg = default_config(prefetch_enabled=False)
    cfg.seed = state["seed"]
    cfg.gpu.num_sms = state["num_sms"]
    cfg.gpu.sms_per_utlb = state["sms_per_utlb"]
    cfg.gpu.utlb_outstanding_limit = state["utlb_limit"]
    cfg.gpu.sm_fault_rate_limit = state["rate"]
    cfg.gpu.fault_buffer_entries = state["capacity"]
    if state["sites"]:
        cfg.inject.enabled = True
        cfg.inject.sites = {
            site: {"rate": rate} for site, rate in state["sites"].items()
        }
    system = UvmSystem(cfg)
    engine = system.engine
    device = engine.device
    engine.clock.advance(100.0)
    engine._window_start = engine.clock.now - state["window_usec"]
    now = engine.clock.now

    buffer = device.fault_buffer
    for i in range(state["fill"]):
        buffer._entries.flat.extend((0, 0, 1000 + i, AccessType.READ, 0))
        buffer._entries.timestamps.append(now - 1.0)
    buffer.total_pushed += state["fill"]

    for utlb, pending in zip(device.utlbs, state["pending"]):
        utlb.pending_pages = set(pending)

    for sm, sm_state in zip(device.sms, state["sms"]):
        sm.occupancy_limit = 4
        sm.compute_backlog_usec = sm_state["backlog"]
        for missing, queue, head, ready in sm_state["warps"]:
            program = WarpProgram([Phase.of(sorted(missing))])
            warp = WarpState(program, engine._next_uid(), sm.sm_id)
            warp.missing = set(missing)
            warp._unissued = list(queue)
            warp._unissued_head = head
            warp.ready_at = now if ready else now + 10.0
            sm.active.append(warp)
            engine._warps[warp.uid] = warp
        for reads in sm_state["queued"]:
            sm.enqueue(WarpProgram([Phase.of(reads, compute_usec=1.0)]))
    return system


def observed(system, busy_sm_ids):
    device = system.engine.device
    buffer = device.fault_buffer
    return {
        "clock": system.clock.now,
        "window_rows": list(buffer._entries.flat),
        "window_times": list(buffer._entries.timestamps),
        "buffer_counters": (
            buffer.total_pushed,
            buffer.total_overflow_dropped,
            buffer.total_injector_dropped,
            buffer.total_injected,
        ),
        "utlbs": [
            (sorted(u.pending_pages), u._merge_counter, u.total_early_cancelled)
            for u in device.utlbs
        ],
        "sm_windows": [
            (sm.rate_limit, sm.budget) for sm in device.sms if sm.sm_id in busy_sm_ids
        ],
        "warps": [
            [
                (
                    w.uid,
                    list(w._unissued),
                    w._unissued_head,
                    sorted(w.missing),
                    w.ready_at,
                )
                for w in sm.active
            ]
            for sm in device.sms
        ],
        "waiters": {page: [w.uid for w in ws] for page, ws in system.engine._waiters.items()},
    }


class TestIssuanceMatchesTheReference:
    @given(round_states())
    @settings(max_examples=150, deadline=None)
    def test_round_matches_reference_round(self, state):
        # The engine leaves an idle SM's window fields alone until a launch
        # makes it busy, so budgets are compared on busy SMs only.
        busy = {
            sm_id
            for sm_id, sm_state in enumerate(state["sms"])
            if sm_state["warps"] or sm_state["queued"] or sm_state["backlog"]
        }
        engine_sys = build(state)
        reference_sys = build(state)
        got = engine_sys.engine._gpu_round(state["burst"])
        want = reference_round(reference_sys.engine, state["burst"])
        assert got == want
        assert observed(engine_sys, busy) == observed(reference_sys, busy)
