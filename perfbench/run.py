#!/usr/bin/env python3
"""Build and run the splap benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload small_msg|bulk|ga_scf --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The benchmark binary is built from perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
Every run prints its metrics by name and unit, then one host-record line,
and ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_msg", "bulk", "ga_scf")
INSTRUMENTS = {
    "none": [],
    "address": ["-DSPLAP_SANITIZE=address"],
    "thread": ["-DSPLAP_SANITIZE=thread"],
    "audit": ["-DSPLAP_AUDIT=ON"],
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(instrument):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, target, "perfbench" + ("" if instrument == "none" else "-" + instrument))
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            + INSTRUMENTS[instrument],
            ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "splap_perfbench")


def src_digest():
    """Content hash of src/, which identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_binary(binary, argv):
    r = subprocess.run([binary] + argv, capture_output=True, text=True, timeout=170)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    return r.returncode, lines


def run_hashes(binary, wl, seed):
    """The hashes a one-second run prints on its "workload W seed N: ..."
    line: "request list" (op kinds, targets, sizes and order), "inputs"
    (the request list plus the seed's data) and "fingerprint" (every
    virtual-time result and count of a round)."""
    code, lines = run_binary(binary, ["--workload", wl, "--seed", str(seed),
                                      "--seconds", "1", "--trace", "0"])
    if code != 0:
        print(f"selfcheck {wl} seed {seed}: run failed")
    head = next((l for l in lines if l.startswith("workload ")), "")
    hashes = {}
    for part in head.split(", ")[2:]:
        name, _, value = part.rpartition(" ")
        hashes[name] = value
    return code == 0 and len(hashes) == 3, hashes


def selfcheck(binary):
    """Same seed twice in two processes: identical inputs and virtual
    results. Another seed: another request list."""
    ok = True
    for wl in WORKLOADS:
        runs = [run_hashes(binary, wl, seed) for seed in (7, 7, 8)]
        ok = ok and all(r[0] for r in runs)
        a, b, c = (r[1] for r in runs)
        same = a == b
        differs = a.get("request list") != c.get("request list")
        print(f"selfcheck {wl}: same seed repeats across processes: {'ok' if same else 'FAILED'}; "
              f"another seed changes the request list: {'ok' if differs else 'FAILED'}")
        ok = ok and same and differs
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="check determinism across processes and seeds, then exit")
    p.add_argument("--instrument", choices=sorted(INSTRUMENTS), default="none",
                   help="sanitizer or audit build; its wall metrics are flagged invalid")
    args = p.parse_args()
    if not args.selfcheck and args.workload is None:
        fail("--workload is required")

    knobs = sorted(k for k in os.environ if k.startswith("SPLAP_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) +
             " set: the benchmark measures the defaults users get")

    binary = build(args.instrument)
    if args.selfcheck:
        sys.exit(0 if selfcheck(binary) else 1)

    load_before = os.getloadavg()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans-out", os.path.join(os.path.dirname(binary),
                                             f"spans-{args.workload}-{args.seed}.jsonl")]
    code, lines = run_binary(binary, argv)
    if not lines or not lines[-1].startswith("{"):
        fail(f"benchmark produced no result (exit {code})")
    result = json.loads(lines[-1])
    build_info = json.loads([l for l in lines if l.startswith("build ")][0][len("build "):])
    steal = json.loads([l for l in lines if l.startswith("steal ")][0][len("steal "):])
    for line in lines[:-1]:
        print(line)
    quiet = steal["steal_run"] <= steal["steal_limit"]
    host = {
        "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        **build_info,
        **steal,
        # Instrumented builds and runs on a host whose hypervisor stole more
        # CPU time than the limit do not measure the code's wall speed.
        "wall_metrics_valid": args.instrument == "none" and quiet,
    }
    print("host " + json.dumps(host))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
