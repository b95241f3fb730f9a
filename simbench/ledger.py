"""Per-layer host-time ledger of one traced simbench run.

Each layer's term is its host ns per call, measured by the stand-alone
layer replay, times its calls per instruction, counted by the untraced
reference cell's stats tree. The residual is whatever the terms do not
explain (the OoO core, the event queue and glue); terms plus residual
sum exactly to the untraced ns per instruction.

A layer whose replayed call count differs from the stats-tree count by
more than COUNT_TOLERANCE (relative) is unresolved: its term is left
out and its time stays in the residual.
"""

import math

# Largest relative replay-vs-stats call-count difference measured on
# the four workloads (README.md, "Ledger self-checks"), with headroom.
COUNT_TOLERANCE = 0.01

LAYERS = ("trace", "vm", "cache", "dramcache", "dram")


def per_call(cost):
    """Mean ns of one timed call, 0 when the call never happened."""
    return cost["ns"] / cost["calls"] if cost["calls"] else 0.0


def call_counts(stats):
    """Stats-tree counts of each layer's calls, for the self-check.

    The stats tree has no count of writebackLine calls: its L2
    write-back counter also counts dirty lines flushed by page
    invalidation, which never reach the organization. dramcache is
    checked on that counter as the replay's L2 caches count it.
    """
    return {
        "trace": stats["records"],
        "vm": stats["vm_lookups"],
        "cache": stats["cache_l1"] + stats["cache_l2"],
        "dramcache": stats["org_l3"] + stats["vm_walks"]
        + stats["cache_l2_wb"],
        "dram": stats["dram_in"] + stats["dram_off"],
    }


def replay_counts(replay):
    """The same counts as the layer replay made them."""
    c = replay["counts"]
    return {
        "trace": c["records"],
        "vm": c["vm_lookups"],
        "cache": c["cache"],
        "dramcache": c["org_l3"] + replay["org_miss"]["calls"]
        + c["l2_wb"],
        "dram": c["dram"],
    }


def layer_ns(stats, replay):
    """Host ns each layer costs over the whole reference cell.

    dramcache calls are timed inclusive of the DRAM accesses they make;
    the dram term is subtracted from them so no time counts twice.
    writebackLine time is spread over the L2 write-back counter (see
    call_counts), so it scales with the stats tree's count of those.
    """
    dram = per_call(replay["dram_access"]) * (stats["dram_in"]
                                              + stats["dram_off"])
    l2_wb = replay["counts"]["l2_wb"]
    wb_ns = replay["org_writeback"]["ns"] / l2_wb if l2_wb else 0.0
    org = (per_call(replay["org_access"]) * stats["org_l3"]
           + per_call(replay["org_miss"]) * stats["vm_walks"]
           + wb_ns * stats["cache_l2_wb"])
    return {
        "trace": per_call(replay["trace_next"]) * stats["records"],
        "vm": per_call(replay["vm_lookup"]) * stats["vm_lookups"]
        + per_call(replay["vm_insert"]) * stats["vm_inserts"],
        "cache": per_call(replay["cache_access"])
        * (stats["cache_l1"] + stats["cache_l2"]),
        "dramcache": org - dram,
        "dram": dram,
    }


def build_ledger(untraced_ns_per_inst, stats, replay,
                 tolerance=COUNT_TOLERANCE):
    """Returns {"terms", "residual", "unresolved", "count_diff"}.

    terms maps each resolved layer to ns per instruction; unresolved
    lists the layers left out. Raises ValueError if the terms and the
    residual do not add back up to untraced_ns_per_inst.
    """
    insts = stats["insts"]
    want = call_counts(stats)
    got = replay_counts(replay)
    diff = {k: abs(got[k] - want[k]) / max(want[k], 1) for k in LAYERS}
    unresolved = [k for k in LAYERS if diff[k] > tolerance]
    # dramcache's term is net of dram's; without a resolved dram term
    # the subtraction is not trustworthy either.
    if "dram" in unresolved and "dramcache" not in unresolved:
        unresolved.append("dramcache")
    ns = layer_ns(stats, replay)
    terms = {k: ns[k] / insts for k in LAYERS if k not in unresolved}
    residual = untraced_ns_per_inst - math.fsum(terms.values())
    total = math.fsum(list(terms.values()) + [residual])
    if not math.isclose(total, untraced_ns_per_inst, rel_tol=1e-12,
                        abs_tol=1e-9):
        raise ValueError("ledger terms %r + residual %r != %r"
                         % (terms, residual, untraced_ns_per_inst))
    return {"terms": terms, "residual": residual,
            "unresolved": unresolved, "count_diff": diff}
