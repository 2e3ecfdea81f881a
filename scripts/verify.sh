#!/usr/bin/env bash
# Tier-1 verification: lints, build + full test suite, then instrumented
# smoke runs of the experiment benches. Runs fully offline (the workspace
# has no external dependencies) and uses DSE_SMOKE=1 so the search-based
# benches finish in CI time.
#
# Usage: scripts/verify.sh [--skip-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

export DSE_SMOKE="${DSE_SMOKE:-1}"
export DSE_THREADS="${DSE_THREADS:-4}"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (offline, -D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release (offline) =="
cargo build --release --offline

echo "== spa-lint: source rules + semantic validators + concurrency analysis (--deny) =="
# Fails on any unwaived finding (Layers 1 and 3), semantic validation
# failure, or lock-order cycle; refreshes results/LINT.json and
# results/LOCKS.txt.
cargo run --release --offline -p lint -- --deny
# The lock-order graph artifact must exist, be non-trivial, and be
# acyclic — a cycle is a potential deadlock in the serving stack.
test -s results/LOCKS.txt
grep -q "cycles: none" results/LOCKS.txt

echo "== cargo test (offline) =="
cargo test -q --offline

if [[ "${1:-}" != "--skip-bench" ]]; then
    echo "== bench_dse: executor speedup (OBS_LEVEL=summary) =="
    OBS_LEVEL=summary cargo run --release --offline -p experiments --bin bench_dse
    # The instrumented smoke run must leave a real obs report in the JSON.
    python3 - <<'EOF'
import json, sys
with open("results/BENCH_dse.json") as f:
    doc = json.load(f)
obs = doc.get("obs")
if not obs or obs == "null" or not obs.get("spans"):
    sys.exit("verify: BENCH_dse.json has no obs report despite OBS_LEVEL=summary")
counters = obs.get("counters", {})
for key in ("dse.candidates",):
    if counters.get(key, 0) <= 0:
        sys.exit(f"verify: obs counter {key} missing or zero")
print(f"   obs report OK: {len(obs['spans'])} spans, {len(counters)} counters")
EOF

    echo "== fault-injection smoke: scripted worker deaths + cache poison =="
    # The armed run must survive every scripted fault (exit 0), stay
    # deterministic, and record each injection in the report.
    FAULT_PLAN='dse.worker@*,cache.poison@5' \
        cargo run --release --offline -p experiments --bin bench_dse
    python3 - <<'EOF'
import json, sys
with open("results/BENCH_dse.json") as f:
    doc = json.load(f)
if not doc.get("faults_armed"):
    sys.exit("verify: FAULT_PLAN was not armed")
if doc.get("faults_injected", 0) <= 0:
    sys.exit("verify: the fault plan never fired")
if doc.get("status") != "complete" or not doc.get("deterministic"):
    sys.exit("verify: injected faults perturbed the search result")
print(f"   fault smoke OK: {doc['faults_injected']} injections, result intact")
EOF
    # The armed/instrumented runs overwrite BENCH_dse.json; regenerate the
    # canonical report in the exact pinned configuration the golden JSON
    # diff compares against (smoke budgets, 2 threads, obs off), so the
    # checked-in artifact matches `results/BENCH_dse.json`'s golden role.
    DSE_SMOKE=1 OBS_LEVEL=off \
        cargo run --release --offline -p experiments --bin bench_dse -- --threads 2

    echo "== milp engine gates: presolve must cut nodes, warm starts must hit =="
    # The canonical report just regenerated above carries the MILP engine
    # block: every configuration already proved bit-identical to the cold
    # reference inside bench_dse (it asserts before reporting), so the
    # gates here are the *performance* contracts — presolve strictly
    # reduces the branch-and-bound node count across the pinned instance
    # set, and the warm-start path actually lands hits.
    python3 - <<'EOF'
import json, sys
with open("results/BENCH_dse.json") as f:
    doc = json.load(f)
milp = doc.get("milp") or {}
cold = milp.get("cold_nodes", 0)
pre = milp.get("presolved_nodes", 0)
if cold <= 0 or pre <= 0:
    sys.exit("verify: milp block missing from BENCH_dse.json")
if pre >= cold:
    sys.exit(f"verify: presolve did not reduce B&B nodes ({cold} -> {pre})")
rate = milp.get("warm_hit_rate", 0)
if rate <= 0:
    sys.exit("verify: the warm-start path never landed a hit")
if not milp.get("deterministic"):
    sys.exit("verify: milp engine configurations diverged")
print(f"   milp OK: nodes {cold} -> {pre} with presolve, warm hit rate {rate}")
EOF

    echo "== eval-throughput smoke: batched kernels must not lose to scalar; the engine sweep must scale =="
    python3 - <<'EOF'
import json, sys
with open("results/BENCH_dse.json") as f:
    doc = json.load(f)
tp = doc.get("eval_throughput") or {}
ratio = tp.get("batch_vs_scalar", 0)
if ratio < 1.0:
    sys.exit(f"verify: batched kernel slower than scalar ({ratio}x)")
cache_ratio = tp.get("cache_batch_vs_scalar", 0)
# `evaluate_probes` runs the scalar entry's probe once per key, so cold
# batch probes sit at parity with scalar; anything below 0.9 means the
# batch entry added per-probe work of its own.
if cache_ratio < 0.9:
    sys.exit(f"verify: batched cache path regressed vs scalar ({cache_ratio}x)")
# The engine sweep (AutoSeg::run over the 14 gen_zoo designs), best of
# 10 interleaved rounds per thread count.
curve = doc.get("speedup_curve") or []
if len(curve) < 2:
    sys.exit("verify: speedup_curve missing from BENCH_dse.json")
if tp.get("host_cpus", 1) > 1:
    if curve[1]["speedup"] <= curve[0]["speedup"]:
        sys.exit(f"verify: 2 threads did not beat 1 on a multi-core host: {curve}")
    print(f"   eval throughput OK: batch {ratio}x, engine sweep 2-thread speedup {curve[1]['speedup']}x")
else:
    print(f"   eval throughput OK: batch {ratio}x (single-CPU host, curve gate skipped)")
EOF
fi

echo "== spa-serve: stdio transcript (mid-request deadline, torn checkpoint write) =="
SERVE_TMP="$(mktemp -d)"
python3 - target/release/spa-serve "$SERVE_TMP" <<'EOF'
import json, os, subprocess, sys, time

bin_, tmp = sys.argv[1], sys.argv[2]
cache_dir = os.path.join(tmp, "cache")

EVAL = {"v": 1, "id": 1, "req": "eval_pu", "dataflow": "best",
        "layer": {"in_c": 64, "in_h": 28, "in_w": 28, "out_c": 128,
                  "out_h": 28, "out_w": 28, "kernel": 3, "stride": 1,
                  "groups": 1, "is_fc": False},
        "pu": {"rows": 16, "cols": 16}}

def run(label, lines, fault=None, pause_before_last=0.0):
    """Runs one spa-serve --stdio session; returns {id: terminal response}.

    `pause_before_last` sleeps before the final (shutdown) line so
    in-flight work can reach its own deadline instead of being cancelled
    by the shutdown. Every stdout line must be valid JSON with a known
    response kind, the process must exit 0, and stderr must contain no
    panic."""
    env = dict(os.environ)
    env["SERVE_CACHE_DIR"] = cache_dir
    env.pop("FAULT_PLAN", None)
    env.pop("SERVE_SOCKET", None)
    if fault:
        env["FAULT_PLAN"] = fault
    p = subprocess.Popen([bin_, "--stdio"], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env)
    for line in lines[:-1]:
        p.stdin.write(line + "\n")
    p.stdin.flush()
    if pause_before_last:
        time.sleep(pause_before_last)
    out, err = p.communicate(input=lines[-1] + "\n", timeout=120)
    if p.returncode != 0:
        sys.exit(f"verify: spa-serve ({label}) exited {p.returncode}:\n{err}")
    if "panic" in err.lower():
        sys.exit(f"verify: spa-serve ({label}) panicked:\n{err}")
    term = {}
    for line in out.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if doc.get("kind") not in ("done", "partial", "progress", "error"):
            sys.exit(f"verify: spa-serve ({label}) emitted unknown kind: {line}")
        if doc["kind"] != "progress":
            term[doc.get("id")] = doc
    return term

# Session 1: evals, a codesign that must hit its deadline mid-request,
# malformed and unknown requests, then graceful shutdown.
lines = [json.dumps(dict(EVAL, id=1)), json.dumps(dict(EVAL, id=2)),
         json.dumps({"v": 1, "id": 4, "req": "codesign", "model": "alexnet",
                     "budget": "eyeriss", "method": "mip-baye",
                     "hw_iters": 4000, "seg_iters": 48, "deadline_ms": 50}),
         "{not json",
         json.dumps({"v": 1, "id": 6, "req": "frobnicate"}),
         json.dumps({"v": 1, "id": 3, "req": "status"}),
         json.dumps({"v": 1, "id": 7, "req": "shutdown"})]
t = run("cold", lines, pause_before_last=0.3)
for i in (1, 2):
    if t.get(i, {}).get("kind") != "done":
        sys.exit(f"verify: eval id {i} not answered done: {t.get(i)}")
cd = t.get(4, {})
if cd.get("kind") == "partial":
    if cd.get("reason") != "deadline" or cd["completed_gens"] >= cd["planned_gens"]:
        sys.exit(f"verify: codesign partial is not a typed deadline stop: {cd}")
elif cd.get("kind") != "done":  # done = legal race on a very fast machine
    sys.exit(f"verify: codesign id 4 unanswered: {cd}")
if t.get(None, {}).get("code") != "bad-json":
    sys.exit(f"verify: malformed line not rejected as bad-json: {t.get(None)}")
if t.get(6, {}).get("code") != "unknown-request":
    sys.exit(f"verify: unknown req not typed: {t.get(6)}")
st = t.get(3, {}).get("result", {})
queue = st.get("queue", {})
if st.get("protocol") != 1 or queue.get("max_inflight", 0) < 1 or \
        any(k not in queue for k in ("depth", "running", "closed", "high_water")):
    sys.exit(f"verify: status report malformed: {st}")

# Session 2 (torn write): a deadline-cut codesign checkpoints into
# SERVE_CACHE_DIR, and FAULT_PLAN tears its checkpoint writes. `@*` tears
# every write, so the file left behind is torn whichever generation the
# deadline stops at.
SEARCH = {"v": 1, "id": 1, "req": "codesign", "model": "alexnet",
          "budget": "eyeriss", "method": "mip-baye", "hw_iters": 4000,
          "seg_iters": 48, "seed": 11, "deadline_ms": 50}
lines = [json.dumps(SEARCH), json.dumps({"v": 1, "id": 3, "req": "shutdown"})]
t = run("torn", lines, fault="ckpt.torn@*", pause_before_last=0.3)
if t.get(1, {}).get("kind") != "partial":
    sys.exit(f"verify: deadline-cut codesign not answered partial: {t.get(1)}")
torn = [f for f in os.listdir(cache_dir) if f.endswith("-11.ckpt")]
if len(torn) != 1:
    sys.exit(f"verify: no checkpoint left by the deadline-cut codesign: {torn}")

# Session 3 (recovery): the restarted server resumes the resubmitted
# search from the torn file, which must fail typed as corrupt, never a
# panic, and the server must keep serving.
lines = [json.dumps(SEARCH), json.dumps(dict(EVAL, id=2)),
         json.dumps({"v": 1, "id": 3, "req": "shutdown"})]
t = run("recovery", lines, pause_before_last=0.3)
cd = t.get(1, {})
if cd.get("code") != "search-failed" or "corrupt" not in cd.get("message", ""):
    sys.exit(f"verify: torn checkpoint not reported as a typed corrupt resume: {cd}")
if t.get(2, {}).get("kind") != "done":
    sys.exit(f"verify: eval after torn-checkpoint recovery failed: {t.get(2)}")
print("   spa-serve transcript OK: typed deadline stop, torn checkpoint detected typed")
EOF
rm -rf "$SERVE_TMP"

echo "== bench_serve: socket service bench, telemetry gates (smoke) =="
# Small-N smoke of the request-grained telemetry stack: the unix-socket
# bench must produce real throughput in every phase, tail quantiles per
# phase, the server-side decomposition of eval_pu (parse, eval, respond),
# and a telemetry overhead ratio inside the 10% budget.
BENCH_SERVE_CLIENTS=2 BENCH_SERVE_REQS=8 \
    cargo run --release --offline -p experiments --bin bench_serve
python3 - <<'EOF'
import json, sys
with open("results/BENCH_serve.json") as f:
    doc = json.load(f)
phases = doc.get("phases") or {}
for name in ("cold", "warm", "restart"):
    ph = phases.get(name) or {}
    if ph.get("throughput_rps", 0) <= 0:
        sys.exit(f"verify: BENCH_serve.json phase {name} has no throughput")
    for key in ("p50_us", "p99_us"):
        if key not in ph:
            sys.exit(f"verify: BENCH_serve.json phase {name} missing {key}")
ratio = (doc.get("overhead") or {}).get("ratio", 99)
if ratio >= 1.10:
    sys.exit(f"verify: telemetry overhead {ratio}x exceeds the 10% budget")
stages = doc.get("eval_stages_us") or {}
for key in ("parse_us", "eval_us", "respond_us"):
    row = stages.get(key) or {}
    if row.get("count", 0) <= 0 or "p99" not in row:
        sys.exit(f"verify: no eval_pu {key} decomposition in server metrics: {stages}")
verbs = (doc.get("server_metrics") or {}).get("verbs") or {}
if verbs.get("eval_pu", {}).get("count", 0) <= 0:
    sys.exit("verify: server metrics missing the eval_pu verb histogram")

# Fleet block: every shard must have carried real load in every phase,
# tail quantiles must be present, and the overload burst must have shed.
fleet = doc.get("fleet")
if not fleet:
    sys.exit("verify: BENCH_serve.json has no fleet block")
shards = fleet.get("shards", 0)
for name in ("cold", "warm", "restart"):
    ph = (fleet.get("phases") or {}).get(name) or {}
    if ph.get("throughput_rps", 0) <= 0:
        sys.exit(f"verify: fleet phase {name} has no throughput")
    for key in ("p99_us", "p999_us"):
        if key not in ph:
            sys.exit(f"verify: fleet phase {name} missing {key}")
    rps = ph.get("per_shard_rps") or []
    if len(rps) != shards or any(r <= 0 for r in rps):
        sys.exit(f"verify: fleet phase {name} per-shard throughput not "
                 f"all non-zero across {shards} shards: {rps}")
overload = fleet.get("overload") or {}
if overload.get("shed_rate", 0) <= 0 or overload.get("served", 0) <= 0:
    sys.exit(f"verify: overload burst did not shed (or served nothing): {overload}")
print(f"   bench_serve OK: warm p99 {phases['warm']['p99_us']} us, "
      f"overhead {ratio:.3f}x, eval p99 {stages['eval_us']['p99']} us, "
      f"shed {overload['shed_rate']:.2f}")
EOF

echo "== spa-fleet: 3-shard smoke (kill one mid-codesign, digest-identical resume) =="
FLEET_TMP="$(mktemp -d)"
python3 - target/release/spa-fleet target/release/spa-serve "$FLEET_TMP" <<'EOF'
import json, os, signal, socket, subprocess, sys, time

fleet_bin, serve_bin, tmp = sys.argv[1], sys.argv[2], sys.argv[3]
CODESIGN = {"v": 1, "id": 1, "req": "codesign", "model": "alexnet",
            "budget": "eyeriss", "method": "mip-baye",
            "hw_iters": 4000, "seg_iters": 48, "seed": 3}

# Reference digest: the identical codesign on a plain single-shard
# spa-serve. The engine is deterministic, so the
# fleet's kill-and-resume run must land on this exact digest.
env = dict(os.environ)
env.pop("FAULT_PLAN", None)
env.pop("SERVE_SOCKET", None)
env["SERVE_CACHE_DIR"] = os.path.join(tmp, "ref-cache")
p = subprocess.Popen([serve_bin, "--stdio"], stdin=subprocess.PIPE,
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                     text=True, env=env)
p.stdin.write(json.dumps(CODESIGN) + "\n")
p.stdin.flush()
reference = None
for line in p.stdout:
    doc = json.loads(line)
    if doc.get("id") == 1 and doc.get("kind") != "progress":
        if doc.get("kind") != "done":
            sys.exit(f"verify: reference codesign did not finish: {doc}")
        reference = doc.get("result", {}).get("digest")
        break
p.communicate(input=json.dumps({"v": 1, "id": 2, "req": "shutdown"}) + "\n",
              timeout=120)
if not reference:
    sys.exit("verify: reference codesign produced no digest")

# Boot a 3-shard fleet on a fresh directory.
sock_path = os.path.join(tmp, "fleet.sock")
env = dict(os.environ)
env.pop("FAULT_PLAN", None)
env["FLEET_PROBE_MS"] = "25"
fleet = subprocess.Popen([fleet_bin, "--socket", sock_path,
                          "--dir", os.path.join(tmp, "fleet"),
                          "--shards", "3"],
                         stderr=subprocess.PIPE, text=True, env=env)
deadline = time.time() + 60
while not os.path.exists(sock_path):
    if fleet.poll() is not None or time.time() > deadline:
        sys.exit("verify: spa-fleet never opened its socket")
    time.sleep(0.05)

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)
s.settimeout(120)
rd = s.makefile("r")

def send(doc):
    s.sendall((json.dumps(doc) + "\n").encode())

# Kick off the codesign, find its owner shard from the first progress
# line, look up that shard's pid via the router-local status verb, and
# SIGTERM it mid-run.
send(CODESIGN)
owner = None
killed = False
terminal = None
for line in rd:
    doc = json.loads(line)
    if doc.get("id") == 1 and doc.get("kind") == "progress" and not killed:
        owner = doc.get("shard")
        send({"v": 1, "id": 90, "req": "status"})
    elif doc.get("id") == 90:
        pid = next(sh["pid"] for sh in doc["result"]["shards"]
                   if sh["idx"] == owner)
        os.kill(pid, signal.SIGTERM)
        killed = True
    elif doc.get("id") == 1 and doc.get("kind") != "progress":
        terminal = doc
        break
if terminal.get("kind") != "done":
    sys.exit(f"verify: fleet codesign lost across the kill: {terminal}")
if not killed:
    # Legal race on a very fast machine: the codesign finished before a
    # progress line arrived. The digest check below still stands.
    print("   (owner finished before the kill landed; digest check only)")
got = terminal.get("result", {}).get("digest")
if got != reference:
    sys.exit(f"verify: resumed codesign digest {got} != reference {reference}")

# The supervisor must have respawned the killed shard.
if killed:
    send({"v": 1, "id": 91, "req": "status"})
    for line in rd:
        doc = json.loads(line)
        if doc.get("id") == 91:
            info = next(sh for sh in doc["result"]["shards"]
                        if sh["idx"] == owner)
            if info.get("restarts", 0) < 1:
                sys.exit(f"verify: killed shard was never respawned: {info}")
            break

send({"v": 1, "id": 99, "req": "shutdown"})
try:
    fleet.wait(timeout=60)
except subprocess.TimeoutExpired:
    fleet.terminate()
    sys.exit("verify: spa-fleet did not stop on shutdown")
suffix = "killed mid-run and resumed" if killed else "undisturbed (fast finish)"
print(f"   spa-fleet smoke OK: digest {got} matches reference, owner shard {suffix}")
EOF
rm -rf "$FLEET_TMP"
# The fleet stage spawns and kills processes holding the same locks the
# analyzer models; the lock-order artifact must still be acyclic.
grep -q "cycles: none" results/LOCKS.txt

echo "== Tables III-VI and Fig. 15: regenerated release CSVs vs results/ =="
# The only committed outputs of MipSegmenter: the AlexNet case study's
# Table VI design comes from the MILP segmentation. Fig. 15 and Table III
# run the engine over the zoo and the FPGA presets (1-2 s each in release).
TAB_TMP="$(mktemp -d)"
for bin in tab0456_alexnet_case fig15_fusion tab03_fpga; do
    env -u DSE_SMOKE -u FAULT_PLAN -u OBS_LEVEL SPA_RESULTS_DIR="$TAB_TMP" \
        cargo run --release --offline -q -p experiments --bin "$bin" > /dev/null
done
for csv in tab04_no_pipeline.csv tab05_full_pipeline.csv tab06_spa.csv \
    fig15_fusion_speedup.csv tab03_fpga_baselines.csv tab03_fpga_ours.csv; do
    diff -u "results/$csv" "$TAB_TMP/$csv"
done
rm -rf "$TAB_TMP"
echo "   tables OK: tab03/tab04/tab05/tab06 and fig15 match results/"

echo "== golden results: regenerated CSVs vs results/*.csv =="
# The harness strips DSE_SMOKE etc. from the binaries it spawns, so the
# regeneration always uses the same full budgets the goldens were made with.
cargo test -q --offline -p experiments --test golden

echo "verify: OK"
