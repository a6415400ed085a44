"""Differential test: the one detector judge against the per-history scans.

:func:`repro.analysis.check_fd_class` and
:func:`repro.analysis.detection_latency` are reads of the one
:class:`~repro.analysis.qos.IncrementalQoS` fold.  The oracle below is the
earlier, independent formulation — per-process histories re-scanned once
per property and once per candidate witness — kept here verbatim in
substance.  Both must agree field for field (name, ok, stabilized_at,
end_time, witness, detail) on thousands of seeded random ``fd`` /
``crash`` streams: off-channel records, ``trusted=None``, repeated
outputs, equal timestamps, silent processes, and correct sets that
disagree with the recorded crashes.
"""

import random

from repro.analysis import PropertyCheck, check_fd_class, detection_latency
from repro.fd.classes import ALL_CLASSES
from repro.sim import Trace

STREAMS = 2000


# --------------------------------------------------------------- the oracle
def oracle_histories(trace, channel):
    histories = {}
    for ev in trace.events:
        if ev.kind == "fd" and ev.get("channel") == channel:
            histories.setdefault(ev.pid, []).append(
                (ev.time, ev.get("suspected"), ev.get("trusted")))
    return histories


def oracle_stabilization(histories, pids, violated):
    worst = 0.0
    for pid in pids:
        clean_since = None
        for time, suspected, trusted in histories.get(pid, []):
            if violated(pid, suspected, trusted):
                clean_since = None
            elif clean_since is None:
                clean_since = time
        if clean_since is None:
            return None
        if clean_since > worst:
            worst = clean_since
    return worst


def oracle_result(name, stabilized_at, end, margin, witness=None):
    if stabilized_at is None:
        return PropertyCheck(name, False, None, end, witness)
    ok = stabilized_at <= end * (1.0 - margin)
    return PropertyCheck(name, ok, stabilized_at, end, witness)


def oracle_best(candidates):
    best = None
    for since, witness in candidates:
        if since is not None and (best is None or since < best[0]):
            best = (since, witness)
    return best


def oracle_completeness(kind, histories, crashed, correct, end, margin):
    name = f"{kind}-completeness"
    if not crashed:
        return PropertyCheck(name, True, 0.0, end,
                             detail="vacuous: no crashes")
    crashed_set = frozenset(crashed)

    def settled(pids):
        worst = oracle_stabilization(
            histories, pids, lambda _p, s, _t: not crashed_set <= s)
        return None if worst is None else max(worst, max(crashed.values()))

    if kind == "strong":
        return oracle_result(name, settled(correct), end, margin)
    best = oracle_best((settled(frozenset({p})), p) for p in correct)
    if best is None:
        return PropertyCheck(name, False, None, end)
    return oracle_result(name, best[0], end, margin, witness=best[1])


def oracle_witnessed(name, histories, correct, end, margin, violated):
    best = oracle_best(
        (oracle_stabilization(
            histories, correct, lambda _p, s, t, q=q: violated(q, s, t)), q)
        for q in correct
    )
    if best is None:
        return PropertyCheck(name, False, None, end)
    return oracle_result(name, best[0], end, margin, witness=best[1])


def oracle_check_fd_class(trace, fd_class, correct, channel, margin,
                          end_time):
    histories = oracle_histories(trace, channel)
    crashed = {ev.pid: ev.time for ev in trace.events if ev.kind == "crash"}
    end = end_time if end_time is not None else trace.end_time
    results = {}
    if fd_class.completeness in ("strong", "weak"):
        results["completeness"] = oracle_completeness(
            fd_class.completeness, histories, crashed, correct, end, margin)
    if fd_class.accuracy in ("eventual-strong", "strong"):
        results["accuracy"] = oracle_result(
            "eventual-strong-accuracy",
            oracle_stabilization(
                histories, correct, lambda _p, s, _t: bool(s & correct)),
            end, margin)
    elif fd_class.accuracy == "eventual-weak":
        results["accuracy"] = oracle_witnessed(
            "eventual-weak-accuracy", histories, correct, end, margin,
            lambda q, s, _t: q in s)
    if fd_class.leader:
        results["omega"] = oracle_witnessed(
            "omega", histories, correct, end, margin,
            lambda q, _s, t: t != q)
    if fd_class.trusted_not_suspected:
        results["trusted-not-suspected"] = oracle_result(
            "trusted-not-suspected",
            oracle_stabilization(
                histories, correct,
                lambda _p, s, t: t is not None and t in s),
            end, margin)
    return results


def oracle_detection_latency(trace, victim, crash_time, correct, channel):
    histories = oracle_histories(trace, channel)
    worst = crash_time
    for pid in correct:
        permanent_since = None
        for time, suspected, _ in histories.get(pid, []):
            if victim in suspected:
                if permanent_since is None:
                    permanent_since = time
            else:
                permanent_since = None
        if permanent_since is None:
            return None
        if permanent_since > worst:
            worst = permanent_since
    return worst - crash_time


# ----------------------------------------------------------- random streams
def random_run(rng):
    """A random run: a time-ordered trace plus the correct set to judge."""
    n = rng.randint(1, 6)
    pids = range(n)
    # After `settle` each process mostly repeats one settled output, so
    # properties do stabilize (and witnesses tie) often enough to matter.
    settle = rng.randint(0, 60)
    slandered = frozenset(p for p in pids if rng.random() < 0.15)
    leader = rng.choice([*pids, None])
    crashed = {}
    last = {}
    trace = Trace()
    t = 0.0
    for step in range(rng.randint(0, 80)):
        t += rng.choice([0.0, 0.0, 0.5, 1.0, 2.5])
        roll = rng.random()
        if roll < 0.05:
            victim = rng.choice(pids)
            crashed[victim] = t
            trace.record(t, "crash", victim)
            continue
        if roll < 0.15:
            trace.record(t, "heartbeat", rng.choice(pids))
            continue
        pid = rng.choice(pids)
        if step >= settle and rng.random() < 0.85:
            output = (frozenset(crashed) | slandered) - {pid}, leader
        elif pid in last and rng.random() < 0.3:
            output = last[pid]  # a repeated output
        else:
            output = (
                frozenset(q for q in pids if rng.random() < 0.4),
                rng.choice([*pids, None]),
            )
        channel = "fd" if rng.random() < 0.9 else "fd.other"
        if channel == "fd":
            last[pid] = output
        trace.record(t, "fd", pid, channel=channel,
                     suspected=output[0], trusted=output[1])
    shape = rng.random()
    if shape < 0.5:
        correct = frozenset(pids) - frozenset(crashed)
    elif shape < 0.9:
        correct = frozenset(p for p in pids if rng.random() < 0.6)
    else:
        correct = frozenset()
    return trace, correct, crashed


def test_check_fd_class_and_detection_latency_match_the_oracle():
    rng = random.Random(20240617)
    stabilized = witnessed = detected = 0
    for _ in range(STREAMS):
        trace, correct, crashed = random_run(rng)
        margin = rng.choice([0.1, 0.0, 0.5])
        end_time = rng.choice([None, trace.end_time + rng.choice([0, 40])])
        for fd_class in ALL_CLASSES:
            got = check_fd_class(trace, fd_class, correct, channel="fd",
                                 margin=margin, end_time=end_time)
            want = oracle_check_fd_class(trace, fd_class, correct, "fd",
                                         margin, end_time)
            assert list(got.items()) == list(want.items()), (
                fd_class.symbol, correct, trace.events)
            stabilized += sum(r.ok for r in got.values())
            witnessed += sum(r.witness is not None for r in got.values())
        victims = {**crashed, rng.randrange(7): rng.choice([0.0, 10.0])}
        for victim, at in victims.items():
            got = detection_latency(trace, victim, at, correct)
            assert got == oracle_detection_latency(
                trace, victim, at, correct, "fd"), (victim, trace.events)
            detected += got is not None
    # The streams exercise both outcomes, not only the trivial one.
    assert stabilized > STREAMS and witnessed > STREAMS // 2
    assert detected > STREAMS // 10
