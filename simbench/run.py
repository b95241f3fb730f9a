#!/usr/bin/env python3
"""simbench: the simulator's host-performance benchmark.

    python3 simbench/run.py --workload reach-mcf --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. Builds simbench/ (with the simulator
sources under src/) into .bench_build/simbench, generates the
workload's input trace from --seed, runs it, checks the outputs and
prints one JSON result as the last line of stdout. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Exits non-zero when a build, a cell or an output check fails.

Every run also appends a record with its host fingerprint and
provenance to .bench_build/simbench-results/runs.jsonl; compare.py
compares two such files and refuses mismatched fingerprints.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "simbench")
RESULTS = os.path.join(BUILD, "simbench-results")
BINARY = os.path.join(BUILD_DIR, "simbench")

sys.path.insert(0, HERE)
import ledger  # noqa: E402

ORGS = ("nol3", "bi", "sram", "ctlb", "ideal", "alloy", "banshee",
        "unison")


class BenchError(Exception):
    """A failure before any result exists (build, tool crash)."""


def log(msg):
    print("simbench: " + msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout, stdout, stderr=None):
    """Runs cmd in its own process group and returns (exit code,
    stdout text). On a timeout or any exception (SIGTERM included) the
    whole group -- make's compilers too -- is stopped and reaped."""
    p = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % " ".join(cmd[:2]))
    finally:
        if p.poll() is None:
            # SIGTERM first: make deletes a half-written target on it.
            os.killpg(p.pid, signal.SIGTERM)
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(p.pid, signal.SIGKILL)
                p.wait()


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "simbench-build.log")
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j",
              str(os.cpu_count() or 1)]]
    with open(log_path, "w") as out:
        for cmd in steps:
            if run_child(cmd, 850, out, subprocess.STDOUT)[0] != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed (%s)" % log_path)


def tool(args, timeout):
    """Runs the simbench binary; returns (exit code, parsed JSON)."""
    rc, out = run_child([BINARY] + args, timeout, subprocess.PIPE)
    try:
        return rc, json.loads(out)
    except json.JSONDecodeError:
        raise BenchError("simbench %s exited %d without a report"
                         % (args[0], rc))


def sha256_files(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def source_files():
    out = []
    for top in ("src", "simbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            out += [os.path.join(d, f) for f in sorted(files)
                    if not f.endswith(".pyc")]
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(build_info):
    """What must match for two runs' host times to be comparable."""
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "lto": build_info["lto"],
        "assertions": build_info["assertions"],
    }


def provenance():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "git_rev": git_rev,
        "source_sha256": sha256_files(source_files()),
        "binary_sha256": sha256_files([BINARY]),
    }


def end_to_end(run):
    return {
        "kips": statistics.median(run["kips"]),
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_ipc": run["sim_ipc"],
        "sim_l3_lat_cyc": run["sim_l3_lat_cyc"],
    }


def per_layer(gen, lay):
    s, rep, ref = lay["stats"], lay["replay"], lay["reference"]
    pki = 1000.0 / s["insts"]
    ns_per_inst = statistics.median(ref["ns_per_inst"])
    led = ledger.build_ledger(ns_per_inst, s, rep)
    traced_kips = rep["insts"] / rep["wall_s"] / 1000.0
    m = {
        "trace.records_pki": s["records"] * pki,
        "trace.ns_per_record": ledger.per_call(rep["trace_next"]),
        "trace.gen_ns_per_record": gen["gen_ns_per_record"],
        "core.mem_refs_pki": s["records"] * pki,
        "core.rob_stalls_pki": s["rob_stalls"] * pki,
        "core.mshr_stalls_pki": s["mshr_stalls"] * pki,
        "cache.l1_acc_pki": s["cache_l1"] * pki,
        "cache.l1_miss_rate": s["cache_l1_miss"] / max(s["cache_l1"], 1),
        "cache.l2_miss_rate": s["cache_l2_miss"] / max(s["cache_l2"], 1),
        "cache.l2_wb_pki": s["cache_l2_wb"] * pki,
        "cache.ns_per_access": ledger.per_call(rep["cache_access"]),
        "vm.tlb_acc_pki": s["vm_lookups"] * pki,
        "vm.walks_pki": s["vm_walks"] * pki,
        "vm.tlb_evict_pki": s["vm_evictions"] * pki,
        "vm.ns_per_lookup": ledger.per_call(rep["vm_lookup"]),
        "vm.ns_per_insert": ledger.per_call(rep["vm_insert"]),
        "dramcache.ns_per_miss": ledger.per_call(rep["org_miss"]),
        "dramcache.ns_per_access": ledger.per_call(rep["org_access"]),
        "dramcache.ns_per_writeback":
            ledger.per_call(rep["org_writeback"]),
        "dramcache.victim_hits_pki": s["org_victim_hits"] * pki,
        "dramcache.fills_pki": s["org_fills"] * pki,
        "dramcache.page_wb_pki": s["org_page_wb"] * pki,
        "dramcache.free_stalls_pki": s["org_free_stalls"] * pki,
        "dramcache.l3_acc_pki": s["org_l3"] * pki,
        "dramcache.inpkg_hit_rate": s["org_l3_hits"] / max(s["org_l3"], 1),
        "dramcache.tag_probes_pki": s["org_tag_probes"] * pki,
        "dram.inpkg_acc_pki": s["dram_in"] * pki,
        "dram.offpkg_acc_pki": s["dram_off"] * pki,
        "dram.offpkg_bytes_pki": s["dram_off_bytes"] * pki,
        "dram.ns_per_access": ledger.per_call(rep["dram_access"]),
        "dram.inpkg_row_hit_rate":
            s["dram_in_row_hits"] / max(s["dram_in"], 1),
        "dram.offpkg_row_hit_rate":
            s["dram_off_row_hits"] / max(s["dram_off"], 1),
        "sys.warmup_s": statistics.median(ref["warmup_s"]),
        "sys.measure_s": statistics.median(ref["measure_s"]),
        "runner.busy_frac": lay["runner"]["busy_frac"],
        "runner.job_s_max": lay["runner"]["job_s_max"],
        "ckpt.save_s": lay["ckpt"]["save_s"],
        "ckpt.restore_s": lay["ckpt"]["restore_s"],
        "ckpt.bytes": lay["ckpt"]["bytes"],
        "ledger.untraced_ns_per_inst": ns_per_inst,
        "ledger.residual_ns_per_inst": led["residual"],
        "ledger.timer_ns": lay["timer_ns"],
        "ledger.unresolved_layers": len(led["unresolved"]),
        "ledger.tracing_overhead_kips": traced_kips - 1e6 / ns_per_inst,
    }
    for org in ORGS:
        m["sys.ipc." + org] = lay["ipc_by_org"][org]
    for layer in ledger.LAYERS:
        # An unresolved layer has no term; its time is in the residual.
        m[layer + ".ns_per_inst"] = led["terms"].get(layer, 0.0)
    return m, led


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(RESULTS, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        trace_path = os.path.join(work, "input.mtrace")
        rc, gen = tool(["gen", "--workload", args.workload, "--seed",
                        str(args.seed), "--out", trace_path], 300)
        if rc != 0:
            raise BenchError("input generation failed: %s"
                             % gen.get("failures"))
        common = ["--workload", args.workload, "--input", trace_path,
                  "--seconds", str(args.seconds)]
        if args.trace:
            spans = os.path.join(RESULTS, "spans-%s-seed%d.json"
                                 % (args.workload, args.seed))
            rc, raw = tool(["layers"] + common + ["--spans", spans],
                           args.seconds + 170)
        else:
            rc, raw = tool(["run"] + common, args.seconds + 170)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = raw["attempted"], raw["failed"]
    failures = list(raw["failures"])
    metrics, extra = {}, {}
    if failed == 0 and rc == 0:
        try:
            if args.trace:
                metrics, led = per_layer(gen, raw)
                extra = {"unresolved": led["unresolved"],
                         "count_diff": led["count_diff"]}
            else:
                metrics = end_to_end(raw)
        except (ValueError, KeyError, ZeroDivisionError,
                statistics.StatisticsError) as e:
            failed += 1
            failures.append("metric computation: %r" % (e,))
    for f in failures:
        log("FAILED: " + f)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = failed == 0 and rc == 0 and not missing
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(raw["build"]),
        "provenance": provenance(),
        "input": {"content_hash": gen["content_hash"],
                  "bytes": gen["bytes"]},
        "correct": correct, "metrics": metrics, "failures": failures,
        **extra,
    }
    with open(os.path.join(RESULTS, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("simbench-provenance " + json.dumps(
        {k: record[k] for k in ("fingerprint", "provenance", "input")},
        sort_keys=True))

    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed if failed or correct else 1,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    # On SIGTERM, unwind: run_child kills and reaps its process group,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (BenchError, OSError) as e:
        log("error: %s" % e)
        sys.exit(2)
