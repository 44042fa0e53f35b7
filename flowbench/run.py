#!/usr/bin/env python3
"""Flow benchmark for compsyn: the paper's synthesis-for-testability flow.

    python3 flowbench/run.py --workload resynth_p2 --seed 1 --seconds 36 --trace 0

Run from the repository root. The first run builds the flowbench program
(flowbench.cpp against ../src) into .bench_build/flowbench. The benchmark
then generates seeded .bench circuits, times a few cold launches of
flowbench as the set-up cost, runs the workload for --seconds and prints, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
reports the per-layer metrics of a separately traced run. README.md in this
directory defines every metric.

Workloads:
  resynth_p2  resynth_flow's default flow (redundancy removal, Procedure 2
              at K=6, redundancy removal, equivalence check) on small
              circuits rich in interval (comparison-function) SOP blocks:
              cone enumeration, identification and unit costing dominate.
  redundancy  the irredundancy step alone (redundancy removal, equivalence
              check) on XOR-rich circuits with planted redundant terms: the
              fault-simulation filter and PODEM dominate; no resynthesis.
  flow_p3     as resynth_p2 with Procedure 3 (path objective, gate increase
              allowed) on mixed circuits.
"""
import argparse
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "flowbench")
PROGRAM = os.path.join(BUILD_DIR, "flowbench")

# Circuits keep 16 inputs so every result is proven equivalent by an
# exhaustive sweep (the library sweeps up to 20 inputs). Sizes are chosen so
# a run samples 1200-3500 circuits: per-circuit cost varies a lot, and only
# that many samples give medians that are steady from seed to seed. "count"
# circuits are generated per run, about twice what a run uses today (flowbench
# cycles through them again if a faster build runs out); "gates" is
# the gate-node budget; sop/adder shares of blocks, the rest glue gates;
# redundant/contained are the chances of planting a redundant prime or a
# contained term into an SOP block.
WORKLOADS = {
    "resynth_p2": dict(flow="p2", count=4000, inputs=16, gates=24, sop=0.70,
                       adder=0.10, redundant=0.05, contained=0.0),
    "redundancy": dict(flow="rr", count=8000, inputs=16, gates=80, sop=0.35,
                       adder=0.35, redundant=0.60, contained=0.30),
    "flow_p3": dict(flow="p3", count=4000, inputs=16, gates=24, sop=0.55,
                    adder=0.20, redundant=0.15, contained=0.0),
}
SETUP_LAUNCHES = 9
SETUP_CIRCUITS = 200
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840
# Latencies are divided by the median of the REF_WINDOW reference timings on
# each side of them; flowbench times one after every REF_EVERY circuits.
REF_WINDOW = 10
REF_EVERY = 4
# Set-up launches are stated in seconds at the host speed where one reference
# computation takes REF_NOMINAL_MS; each launch times the reference itself.
REF_NOMINAL_MS = 2.0

END_TO_END = {
    "latency": "ref",
    "latency_p90": "ref",
    "gate_ratio": "ratio",
    "path_ratio": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "flow_ms": "ms", "parse_ms": "ms", "rr_ms": "ms", "verify_ms": "ms",
    "resynth_passes": "count", "replacements": "count",
    "cones_considered": "count", "comparison_cones": "count",
    "rr_removed": "count", "rr_faults_checked": "count", "rr_aborted": "count",
    "probe_cone_enum_ms": "ms", "probe_cone_function_ms": "ms",
    "probe_identify_ms": "ms", "probe_podem_ms": "ms", "probe_fsim_ms": "ms",
    "probe_cones": "count", "probe_comparison_share": "ratio",
    "probe_podem_backtracks": "count", "probe_podem_aborts": "count",
}


def log(msg):
    print(f"flowbench: {msg}", file=sys.stderr, flush=True)


# -- circuit generation ------------------------------------------------------

_COVER_CACHE = {}


def cube_minterms(cube):
    width = len(cube)
    free = [i for i, v in enumerate(cube) if v is None]
    base = sum(v << (width - 1 - i) for i, v in enumerate(cube) if v is not None)
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        out.append(base + sum(b << (width - 1 - i) for b, i in zip(bits, free)))
    return out


def interval_cover(width, lo, hi):
    """Primes and an irredundant prime cover of ON = [lo, hi] (MSB first)."""
    key = (width, lo, hi)
    if key in _COVER_CACHE:
        return _COVER_CACHE[key]
    on = set(range(lo, hi + 1))
    implicants = [c for c in itertools.product((0, 1, None), repeat=width)
                  if set(cube_minterms(c)) <= on]
    imp_set = set(implicants)

    def is_prime(c):
        for i, v in enumerate(c):
            if v is not None and c[:i] + (None,) + c[i + 1:] in imp_set:
                return False
        return True

    primes = sorted((c for c in implicants if is_prime(c)),
                    key=lambda c: (sum(v is not None for v in c), str(c)))
    cover, left = [], set(on)
    while left:
        best = max(primes, key=lambda c: len(left & set(cube_minterms(c))))
        cover.append(best)
        left -= set(cube_minterms(best))
    for c in list(cover):  # drop primes the others already cover
        rest = set()
        for d in cover:
            if d is not c:
                rest |= set(cube_minterms(d))
        if on <= rest:
            cover.remove(c)
    _COVER_CACHE[key] = (primes, cover)
    return primes, cover


class BenchText:
    def __init__(self, n_inputs):
        self.lines = []
        self.inputs = [f"x{i}" for i in range(n_inputs)]
        self.gates = 0
        self.outputs = []

    def gate(self, op, fanins):
        name = f"n{self.gates}"
        self.gates += 1
        self.lines.append(f"{name} = {op}({', '.join(fanins)})")
        return name

    def text(self):
        head = [f"INPUT({x})" for x in self.inputs]
        head += [f"OUTPUT({o})" for o in self.outputs]
        return "\n".join(head + self.lines) + "\n"


def add_sop(b, rng, variables, cfg):
    """An interval function over `variables` as a two-level SOP, optionally
    with a redundant prime or a redundant contained term planted."""
    width = len(variables)
    top = (1 << width) - 1
    lo = rng.randrange(top)
    hi = lo + 1 + rng.randrange(min(top - lo, 6))
    primes, cover = interval_cover(width, lo, hi)
    terms = list(cover)
    if rng.random() < cfg["redundant"]:
        extra = [p for p in primes if p not in cover]
        if extra:
            terms.append(rng.choice(extra))
    if rng.random() < cfg["contained"]:
        base = rng.choice(cover)
        free = [i for i, v in enumerate(base) if v is None]
        if free:
            i = rng.choice(free)
            terms.append(base[:i] + (rng.randrange(2),) + base[i + 1:])
    inverted = {}

    def literal(i, v):
        if v:
            return variables[i]
        if i not in inverted:
            inverted[i] = b.gate("NOT", [variables[i]])
        return inverted[i]

    products = []
    for cube in terms:
        lits = [literal(i, v) for i, v in enumerate(cube) if v is not None]
        products.append(lits[0] if len(lits) == 1 else b.gate("AND", lits))
    if len(products) == 1:
        return products[0] if products[0] not in variables else \
            b.gate("BUFF", products)
    return b.gate("OR", products)


def make_circuit(rng, cfg):
    """Column-mixing random multilevel circuit: each step builds a block over
    a few distinct columns (wires) and overwrites one of them with its
    result, so all logic stays live; final columns become outputs."""
    b = BenchText(cfg["inputs"])
    cols = list(b.inputs)
    paths = [1.0] * len(cols)
    cap = 2.0e5

    def pick(k):
        return rng.sample(range(len(cols)), k)

    def harvest():
        big = max(range(len(cols)), key=lambda i: paths[i])
        if cols[big] not in b.inputs:
            b.outputs.append(cols[big])
        cols[big] = rng.choice(b.inputs)
        paths[big] = 1.0

    # Block kinds follow the target mix exactly (the kind furthest below its
    # share goes next), so circuits of one workload differ in detail, not in
    # composition, and per-circuit cost varies less between seeds.
    shares = {"sop": cfg["sop"], "adder": cfg["adder"],
              "glue": 1.0 - cfg["sop"] - cfg["adder"]}
    built = {k: 0 for k in shares}
    while b.gates < cfg["gates"]:
        total = sum(built.values()) + 1
        kind = max(shares, key=lambda k: shares[k] * total - built[k])
        built[kind] += 1
        if kind == "sop":
            idx = pick(3 + rng.randrange(3))
            est = 2.0 * sum(paths[i] for i in idx)
            if est > cap:
                harvest()
                continue
            out = add_sop(b, rng, [cols[i] for i in idx], cfg)
            j = rng.choice(idx)
        elif kind == "adder":
            m = 2 + rng.randrange(3)
            idx = pick(2 * m)
            est = 2.0 * sum(paths[i] for i in idx)
            if est > cap:
                harvest()
                continue
            carry, sums = None, []
            for k in range(m):
                x, y = cols[idx[2 * k]], cols[idx[2 * k + 1]]
                axb = b.gate("XOR", [x, y])
                if carry is None:
                    sums.append(axb)
                    carry = b.gate("AND", [x, y])
                else:
                    sums.append(b.gate("XOR", [axb, carry]))
                    g1 = b.gate("AND", [x, y])
                    g2 = b.gate("AND", [axb, carry])
                    carry = b.gate("OR", [g1, g2])
            sums.append(carry)
            for k, s in enumerate(sums):
                cols[idx[k]] = s
                paths[idx[k]] = est
            continue
        else:
            idx = pick(2 + rng.randrange(2))
            est = 2.0 * sum(paths[i] for i in idx)
            if est > cap:
                harvest()
                continue
            op = rng.choice(("AND", "OR", "NAND", "NOR"))
            out = b.gate(op, [cols[i] for i in idx])
            j = rng.choice(idx)
            est /= 2.0
        cols[j] = out
        paths[j] = est
    for c in cols:
        if c not in b.inputs and c not in b.outputs:
            b.outputs.append(c)
    return b.text()


def make_inputs(workload, seed, count):
    cfg = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    chunks = []
    for i in range(count):
        chunks.append(f"#@circuit {workload}_{seed}_{i}\n")
        chunks.append(make_circuit(rng, cfg))
    return "".join(chunks).encode()


def find_nth(data, needle, n):
    """Offset of the n-th (0-based) occurrence of needle, or len(data)."""
    pos = -1
    for _ in range(n + 1):
        pos = data.find(needle, pos + 1)
        if pos < 0:
            return len(data)
    return pos


# -- build and run -------------------------------------------------------------

def run_child(cmd, stdin, timeout):
    """Runs cmd to completion in its own process group; on timeout the whole
    group (a build's compiler processes too) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out, err


def build():
    src = os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        log("compsyn sources (src/) not found next to the benchmark")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for cmd in steps:
        code, out, err = run_child(cmd, b"", BUILD_TIMEOUT_S)
        if code != 0:
            sys.stderr.write((out + err).decode(errors="replace")[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_flowbench(args, stdin):
    code, out, err = run_child([PROGRAM] + args, stdin, CHILD_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(err.decode(errors="replace")[-4000:])
        raise RuntimeError(f"flowbench exited {code}")
    return json.loads(out.decode().strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(q * len(s) + 0.5) - 1))]


def geomean(values):
    return statistics.geometric_mean(values) if values else 0.0


def normalized(latency, reference):
    """Each latency divided by the median reference time around it (flowbench
    times the reference after every REF_EVERY-th circuit)."""
    out = []
    for i, value in enumerate(latency):
        j = i // REF_EVERY
        window = reference[max(0, j - REF_WINDOW):j + REF_WINDOW + 1]
        out.append(value / statistics.median(window))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not build():
        return 2
    flow = f"--flow={WORKLOADS[a.workload]['flow']}"
    circuits = make_inputs(a.workload, a.seed, WORKLOADS[a.workload]["count"])

    # Set-up: cold launches that parse SETUP_CIRCUITS inputs and run one flow
    # on a circuit fixed per workload (so its cost does not vary with the
    # seed); the median launch time is the set-up cost.
    setup_input = (make_inputs(a.workload, "setup", 1) +
                   circuits[:find_nth(circuits, b"#@circuit ", SETUP_CIRCUITS)])
    setup_times, setup_failed = [], 0
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        r = run_flowbench([flow, "--setup"], setup_input)
        wall = time.perf_counter() - t0 - sum(r["reference_ms"]) / 1000.0
        setup_times.append(wall * REF_NOMINAL_MS / statistics.median(r["reference_ms"]))
        setup_failed += r["failed"]

    args = [flow, f"--seconds={a.seconds}"] + (["--trace"] if a.trace else [])
    r = run_flowbench(args, circuits)
    failed = r["failed"] + setup_failed
    if r["first_error"]:
        log(f"check failed: {r['first_error']}")
    if r["attempted"] > r["distinct_circuits"]:
        log(f"ran out of distinct circuits ({r['distinct_circuits']})")
    if a.trace:
        layers = r["layers"]
        values = {k: layers[k] / max(1, r["checked"]) for k in PER_LAYER
                  if k != "probe_comparison_share"}
        values["probe_comparison_share"] = (
            layers["probe_comparison_functions"] / max(1, layers["probe_cones"]))
        units = PER_LAYER
    else:
        lat = normalized(r["latency_ms"], r["reference_ms"])
        values = {
            "latency": statistics.median(lat),
            "latency_p90": percentile(lat, 0.90),
            "gate_ratio": geomean(r["gate_ratio"]),
            "path_ratio": geomean(r["path_ratio"]),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    log(f"{a.workload} seed={a.seed}: {r['attempted']} circuits in "
        f"{r['wall_ms'] / 1000.0:.1f} s, median latency "
        f"{statistics.median(r['latency_ms']):.2f} ms, median reference "
        f"{statistics.median(r['reference_ms']):.3f} ms")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0 and r["attempted"] >= 1,
                      "attempted": r["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
