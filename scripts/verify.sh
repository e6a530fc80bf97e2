#!/usr/bin/env bash
# Hermetic verification: build and test the whole workspace, print the
# paper's tables, build and test the benchmark against it, and drive every
# runtime surface — with the network unplugged (--offline). Fails loudly if
# anything would need a registry fetch — the workspace must stay
# zero-dependency.
set -euo pipefail

cd "$(dirname "$0")/.."

# Every byte-comparison below must fail loudly if one of its inputs was
# never produced — a skipped cmp is a silently passing verification.
require() {
    for f in "$@"; do
        if [ ! -s "$f" ]; then
            echo "verify: missing or empty sidecar: $f" >&2
            exit 1
        fi
    done
}

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== experiments: the paper's tables (EXPERIMENTS.md) =="
# Printed by the release binary for the log; tests/integration.rs (above,
# on the unoptimised binary) asserts every table's shape and verdicts.
target/release/experiments

echo "== benchmark: builds and passes its own tests against this tree =="
# benchmark/ is a workspace of its own with path dependencies on crates/*:
# an API break it would hit fails here, not in the pipeline that runs it.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Everything the stages below write goes under here.
SCRATCH="$(pwd)/target/verify"

echo "== telemetry: record/replay --metrics-out round trip =="
CLI=target/release/dejavu-cli
TDIR="$SCRATCH/telemetry-verify"
mkdir -p "$TDIR"
"$CLI" record racy_counter 3 "$TDIR/trace.bin" --metrics-out "$TDIR/record.json" > /dev/null
"$CLI" replay racy_counter 3 "$TDIR/trace.bin" --metrics-out "$TDIR/replay.json" > /dev/null
# Every emitted document must be valid *canonical* JSON by our own codec.
"$CLI" checkjson "$TDIR/record.json"
"$CLI" checkjson "$TDIR/replay.json"

echo "== telemetry: byte-determinism (same run, same bytes) =="
"$CLI" record racy_counter 3 "$TDIR/trace2.bin" --metrics-out "$TDIR/record2.json" > /dev/null
require "$TDIR/record.json" "$TDIR/record2.json" "$TDIR/trace.bin" "$TDIR/trace2.bin"
cmp "$TDIR/record.json" "$TDIR/record2.json"
cmp "$TDIR/trace.bin" "$TDIR/trace2.bin"

echo "== telemetry: neutrality (fingerprints on == off) =="
"$CLI" neutrality racy_counter 3
"$CLI" neutrality producer_consumer 1
"$CLI" neutrality gc_churn 1

echo "== trace: DJVB files replay accurately and inspect canonically (fig1 family) =="
TRDIR="$SCRATCH/trace-verify"
mkdir -p "$TRDIR"
for wl in fig1_ab fig1_hot fig1_cd; do
    "$CLI" record "$wl" 5 "$TRDIR/$wl.djvb" --metrics-out "$TRDIR/$wl.rec.json" > /dev/null
    require "$TRDIR/$wl.djvb" "$TRDIR/$wl.rec.json"
    grep -o '"fingerprint":[0-9]*' "$TRDIR/$wl.rec.json" | head -1
    # Replay must verify ACCURATE (exit 0).
    "$CLI" replay "$wl" 5 "$TRDIR/$wl.djvb" > /dev/null
    # The block index prints as canonical JSON.
    "$CLI" trace inspect "$TRDIR/$wl.djvb" > "$TRDIR/$wl.inspect.json"
    "$CLI" checkjson "$TRDIR/$wl.inspect.json"
done

echo "== trace: corruption and divergence exit codes =="
# A truncated block trace is an I/O-grade error: exit 1, never a replay.
head -c 40 "$TRDIR/fig1_hot.djvb" > "$TRDIR/truncated.djvb"
rc=0
"$CLI" replay fig1_hot 5 "$TRDIR/truncated.djvb" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "verify: truncated trace replay exited $rc, want 1" >&2
    exit 1
fi
# Replaying under the wrong seed diverges from the fresh verification
# record: exit 2, distinct from I/O failures.
rc=0
"$CLI" replay fig1_hot 6 "$TRDIR/fig1_hot.djvb" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "verify: wrong-seed replay exited $rc, want 2" >&2
    exit 1
fi

echo "== profile: perturbation-free, byte-deterministic artifacts =="
PDIR="$SCRATCH/profile-verify"
rm -rf "$PDIR"; mkdir -p "$PDIR"
# Replay the same corpus-family trace twice with the flight recorder on:
# both artifact sets must be byte-identical, and the summaries canonical.
"$CLI" record fig1_hot 5 "$PDIR/trace.djvb" > /dev/null
"$CLI" profile fig1_hot 5 "$PDIR/trace.djvb" --out "$PDIR/run1" \
    > "$PDIR/summary1.json" 2> /dev/null
"$CLI" profile fig1_hot 5 "$PDIR/trace.djvb" --out "$PDIR/run2" \
    > "$PDIR/summary2.json" 2> /dev/null
require "$PDIR/run1/profile.chrome.json" "$PDIR/run2/profile.chrome.json" \
        "$PDIR/run1/profile.folded" "$PDIR/run2/profile.folded" \
        "$PDIR/summary1.json" "$PDIR/summary2.json"
cmp "$PDIR/run1/profile.chrome.json" "$PDIR/run2/profile.chrome.json"
cmp "$PDIR/run1/profile.folded" "$PDIR/run2/profile.folded"
cmp "$PDIR/summary1.json" "$PDIR/summary2.json"
"$CLI" checkjson "$PDIR/run1/profile.chrome.json"
"$CLI" checkjson "$PDIR/summary1.json"
# Neutrality across the CLI boundary: the fingerprint a *profiled* replay
# reports must equal the one the unprofiled replay metrics recorded.
"$CLI" replay fig1_hot 5 "$PDIR/trace.djvb" --metrics-out "$PDIR/replay.json" > /dev/null
require "$PDIR/replay.json"
fp_off=$(grep -o '"fingerprint":[0-9]*' "$PDIR/replay.json" | head -1)
fp_on=$(grep -o '"fingerprint":[0-9]*' "$PDIR/summary1.json" | head -1)
if [ -z "$fp_off" ] || [ "$fp_off" != "$fp_on" ]; then
    echo "verify: profiler perturbed the replay: off=$fp_off on=$fp_on" >&2
    exit 1
fi
# The known-hot fig1 spin loop tops the folded flamegraph output.
hot=$(sort -t' ' -k2 -rn "$PDIR/run1/profile.folded" | head -1)
case "$hot" in
    *";main "*|*";t2 "*) ;;
    *) echo "verify: unexpected hottest folded stack: $hot" >&2; exit 1 ;;
esac

echo "== corpus: replay the committed trace corpus against its policies =="
# The corpus is a committed artifact: a missing or empty corpus must fail
# loudly, not skip.
require tests/corpus/*.djvb tests/corpus/*.policy.json
"$CLI" check tests/corpus
# Injected fingerprint mismatch => policy violation, exit 2.
CDIR="$SCRATCH/corpus-verify"
rm -rf "$CDIR"; mkdir -p "$CDIR"
cp tests/corpus/* "$CDIR"/
sed 's/"expected_fingerprint":[0-9]*/"expected_fingerprint":12345/' \
    tests/corpus/clock_spin_s1.policy.json > "$CDIR/clock_spin_s1.policy.json"
rc=0
"$CLI" check "$CDIR" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "verify: corpus fingerprint mismatch exited $rc, want 2" >&2
    exit 1
fi
# Injected corrupt trace => I/O-grade error, exit 1.
cp tests/corpus/clock_spin_s1.policy.json "$CDIR/clock_spin_s1.policy.json"
head -c 40 tests/corpus/clock_spin_s1.djvb > "$CDIR/clock_spin_s1.djvb"
rc=0
"$CLI" check "$CDIR" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "verify: corrupt corpus trace exited $rc, want 1" >&2
    exit 1
fi
# Re-recording the corpus on an unchanged platform reproduces the
# committed bytes exactly (the corpus itself is deterministic).
"$CLI" corpus record "$CDIR/rerecord" > /dev/null
for f in tests/corpus/*; do
    require "$CDIR/rerecord/$(basename "$f")"
    cmp "$f" "$CDIR/rerecord/$(basename "$f")"
done

echo "== tier2: the --no-quicken and --no-mega ablations are invisible end to end =="
MDIR="$SCRATCH/tier-verify"
rm -rf "$MDIR"; mkdir -p "$MDIR"
fields() {
    grep -o '"fingerprint":[0-9]*\|"state_digest":[0-9]*\|"steps":[0-9]*\|"cycles":[0-9]*\|"yield_points":[0-9]*\|"thread_switches":[0-9]*' "$1"
}
for flag in --no-quicken --no-mega; do
    # The committed corpus replays accurately under its policies with
    # every tier at its default (checked in the corpus stage) and ablated.
    "$CLI" check tests/corpus "$flag"
done
# The hot loop (tier 2) and the three event guests (tier 1's heap, clock
# and native ops) record byte-identical traces in every tier, and every
# guest-observable metric matches. (The full metrics documents are NOT
# cmp'd whole: the telemetry ring legitimately differs across the
# ablation — tier-up emits observer-side compile.mega events that shift
# ring sequence numbers.)
for w in fig1_hot clock_spin native_heavy server_loop; do
    "$CLI" record "$w" 5 "$MDIR/$w.djvb" --metrics-out "$MDIR/$w.json" > /dev/null
    require "$MDIR/$w.djvb" "$MDIR/$w.json"
    fields "$MDIR/$w.json" > "$MDIR/$w.fields"
    for flag in --no-quicken --no-mega; do
        "$CLI" record "$w" 5 "$MDIR/$w$flag.djvb" "$flag" \
            --metrics-out "$MDIR/$w$flag.json" > /dev/null
        require "$MDIR/$w$flag.djvb" "$MDIR/$w$flag.json"
        cmp "$MDIR/$w.djvb" "$MDIR/$w$flag.djvb"
        fields "$MDIR/$w$flag.json" > "$MDIR/$w$flag.fields"
        require "$MDIR/$w.fields" "$MDIR/$w$flag.fields"
        cmp "$MDIR/$w.fields" "$MDIR/$w$flag.fields"
        # Cross-tier replay: the default trace drives an ablated replay and
        # the ablated trace drives a default replay, both ACCURATE (exit 0).
        "$CLI" replay "$w" 5 "$MDIR/$w.djvb" "$flag" > /dev/null
        "$CLI" replay "$w" 5 "$MDIR/$w$flag.djvb" > /dev/null
    done
done
# The tier-up itself is observable where it belongs — the observer-side
# stats channel: nonzero tier_ups on fig1_hot, and the compile.mega ring
# event present exactly when tier-2 is on. (The ring retains the last 64
# events, so the event check uses lock_convoy, whose short run keeps the
# tier-up in the retained window; fig1_hot's thousands of switches evict
# it.)
"$CLI" stats fig1_hot 5 > "$MDIR/stats.json" 2> /dev/null
"$CLI" checkjson "$MDIR/stats.json"
if grep -q '"tier_ups":0' "$MDIR/stats.json"; then
    echo "verify: fig1_hot never tiered up" >&2
    exit 1
fi
# The closed form runs under the default (`Full`) fingerprint: it folds the
# pc mixes of the iterations it retires instead of switching off.
if grep -q '"closed_iters":0' "$MDIR/stats.json"; then
    echo "verify: fig1_hot retired no closed-form iterations under the default fingerprint" >&2
    exit 1
fi
"$CLI" stats lock_convoy 5 > "$MDIR/stats-convoy.json" 2> /dev/null
grep -q '"compile.mega"' "$MDIR/stats-convoy.json" || {
    echo "verify: no compile.mega event in tier-2 record telemetry" >&2
    exit 1
}
"$CLI" stats lock_convoy 5 --no-mega > "$MDIR/stats-ablated.json" 2> /dev/null
if grep -q '"compile.mega"' "$MDIR/stats-ablated.json"; then
    echo "verify: compile.mega event emitted under --no-mega" >&2
    exit 1
fi

echo "== fleet: 64 resident sessions across connections, a debug dialogue, clean shutdown =="
FDIR="$SCRATCH/fleet-verify"
rm -rf "$FDIR"; mkdir -p "$FDIR"
# Ephemeral port: the server binds port 0 and reports its pick.
"$CLI" fleet-serve 0 --fleet-token verify-token --port-file "$FDIR/port" \
    2> "$FDIR/server.log" &
FLEET_PID=$!
for _ in $(seq 1 100); do
    [ -s "$FDIR/port" ] && break
    sleep 0.1
done
require "$FDIR/port"
FLEET_PORT=$(cat "$FDIR/port")
FLEET_ADDR="127.0.0.1:$FLEET_PORT"
# 64 sessions against the separately started server, each opened and
# recorded server-side by a one-shot connection of its own: every one is
# still resident once all 64 connections are gone. (Fingerprint parity at
# 64 concurrent sessions is fleet_service.rs's, in the tests stage.)
for seed in $(seq 1000 1063); do
    "$CLI" debug "$FLEET_ADDR" open fig1_ab "$seed" > /dev/null
done
# Live metrics snapshot: canonical JSON on stdout.
"$CLI" stats --fleet "$FLEET_ADDR" > "$FDIR/stats.json" 2> /dev/null
require "$FDIR/stats.json"
"$CLI" checkjson "$FDIR/stats.json"
grep -q '"active":64,' "$FDIR/stats.json" || {
    echo "verify: fleet did not hold 64 sessions resident across connections" >&2
    exit 1
}
grep -q '"peak":' "$FDIR/stats.json"
# The debugger front end: one-shot `debug` calls against one session
# compose into a dialogue (sessions outlive connections).
DBG=$("$CLI" debug "$FLEET_ADDR" open racy_counter 7)
# An address that is no object is an answer, not a dead worker.
"$CLI" debug "$FLEET_ADDR" "$DBG" '{"cmd":"inspect","addr":17}' | grep -q '<bad address 17>'
"$CLI" debug "$FLEET_ADDR" "$DBG" '{"cmd":"step"}' | grep -q '"step":1'
"$CLI" debug "$FLEET_ADDR" "$DBG" '{"cmd":"continue"}' | grep -q '"halted"'
rc=0
"$CLI" debug "$FLEET_ADDR" "$DBG" 'not json' > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "verify: malformed debug command exited $rc, want 1" >&2
    exit 1
fi
# Shutdown is token-gated: the wrong token is refused (exit 1)...
rc=0
"$CLI" fleet-shutdown "$FLEET_ADDR" wrong-token > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "verify: wrong-token fleet-shutdown exited $rc, want 1" >&2
    exit 1
fi
kill -0 "$FLEET_PID" 2> /dev/null || {
    echo "verify: fleet server died on a refused shutdown" >&2
    exit 1
}
# ...and the right token stops the server cleanly (exit 0 from the
# server process itself — every worker joined).
"$CLI" fleet-shutdown "$FLEET_ADDR" verify-token
rc=0
wait "$FLEET_PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "verify: fleet server exited $rc on graceful shutdown, want 0" >&2
    exit 1
fi
grep -q "clean shutdown" "$FDIR/server.log"
if grep -n "panicked" "$FDIR/server.log"; then
    echo "verify: a fleet worker panicked" >&2
    exit 1
fi

echo "== store: 150+-run corpus, dedup >= 2x, byte-exact reconstruction =="
SDIR="$SCRATCH/store-verify"
rm -rf "$SDIR"; mkdir -p "$SDIR/traces"
STORE="$SDIR/store"
# The fig1 family across 17 seeds, each run put 3 times (the fleet-ingest
# pattern): first put verified (replay + fresh record before cataloging a
# fingerprint), the repeats unverified — they must dedup onto the same
# entry either way.
for wl in fig1_ab fig1_cd fig1_hot; do
    for seed in $(seq 1 17); do
        t="$SDIR/traces/$wl-$seed.djvb"
        "$CLI" record "$wl" "$seed" "$t" > /dev/null
        "$CLI" store put "$STORE" "$wl" "$seed" "$t" > /dev/null 2> /dev/null
        "$CLI" store put "$STORE" "$wl" "$seed" "$t" --no-verify > /dev/null 2> /dev/null
        "$CLI" store put "$STORE" "$wl" "$seed" "$t" --no-verify > /dev/null 2> /dev/null
    done
done
# Maintenance idempotence, byte-level: a second gc+compact pass must leave
# every file untouched.
"$CLI" store gc "$STORE" > /dev/null 2> /dev/null
"$CLI" store compact "$STORE" > /dev/null 2> /dev/null
(cd "$STORE" && find . -type f | sort | xargs cksum) > "$SDIR/pass1.cksum"
"$CLI" store gc "$STORE" > /dev/null 2> /dev/null
"$CLI" store compact "$STORE" > /dev/null 2> /dev/null
(cd "$STORE" && find . -type f | sort | xargs cksum) > "$SDIR/pass2.cksum"
require "$SDIR/pass1.cksum" "$SDIR/pass2.cksum"
cmp "$SDIR/pass1.cksum" "$SDIR/pass2.cksum"
# The measured shape: canonical JSON, 150+ runs, dedup past the 2x line.
"$CLI" store stats "$STORE" > "$SDIR/stats.json" 2> /dev/null
"$CLI" checkjson "$SDIR/stats.json"
runs=$(grep -o '"runs":[0-9]*' "$SDIR/stats.json" | cut -d: -f2)
dedup=$(grep -o '"dedup_ratio_milli":[0-9]*' "$SDIR/stats.json" | cut -d: -f2)
if [ -z "$runs" ] || [ "$runs" -lt 100 ]; then
    echo "verify: store corpus holds $runs runs, want >= 100" >&2
    exit 1
fi
if [ -z "$dedup" ] || [ "$dedup" -lt 2000 ]; then
    echo "verify: store dedup ratio ${dedup} milli, want >= 2000 (2x)" >&2
    exit 1
fi
echo "store: runs=$runs dedup_ratio_milli=$dedup"
# Keying parity with `trace inspect --dedup`: the inspector's dedup
# summary over the same 51 distinct trace files must count exactly the
# unique blocks the store holds (both key by digest128 of the raw
# pre-compression payload).
"$CLI" trace inspect --dedup "$SDIR"/traces/*.djvb > "$SDIR/inspect.out" 2> /dev/null
tail -1 "$SDIR/inspect.out" > "$SDIR/dedup.json"
"$CLI" checkjson "$SDIR/dedup.json"
inspect_blocks=$(grep -o '"unique_blocks":[0-9]*' "$SDIR/dedup.json" | cut -d: -f2)
store_blocks=$(grep -o '"blocks":[0-9]*' "$SDIR/stats.json" | head -1 | cut -d: -f2)
if [ "$inspect_blocks" != "$store_blocks" ]; then
    echo "verify: inspect --dedup counts $inspect_blocks unique blocks," \
         "store holds $store_blocks — keying drifted" >&2
    exit 1
fi
# Byte-exact reconstruction out of the compacted store, and the
# store-served trace still replays ACCURATE (exit 0).
"$CLI" store ls "$STORE" > "$SDIR/store-ls.json" 2> /dev/null
sid=$(grep '"workload":"fig1_hot"' "$SDIR/store-ls.json" | grep '"seed":5,' \
    | sed 's/.*"id":"\([0-9a-f]*\)".*/\1/')
if [ -z "$sid" ]; then
    echo "verify: fig1_hot/5 missing from store catalog" >&2
    exit 1
fi
"$CLI" store get "$STORE" "$sid" "$SDIR/back.djvb" 2> /dev/null
require "$SDIR/back.djvb"
cmp "$SDIR/traces/fig1_hot-5.djvb" "$SDIR/back.djvb"
"$CLI" replay fig1_hot 5 "$SDIR/back.djvb" > /dev/null
# A DJVB file has one spelling. Two re-framings of a stored run that used
# to be cataloged — header byte 5 `01` -> `02` (put + get exited 0, cmp
# differed at byte 6), and the budget varint padded to `80 a0 00` with the
# block's footer offset bumped to match (landed on the honest entry,
# overwrote its file_bytes, broke every later get) — are refused, exit 1,
# and the honest entry still comes back byte for byte.
honest="$SDIR/traces/fig1_cd-5.djvb"
cid=$(grep '"workload":"fig1_cd"' "$SDIR/store-ls.json" | grep '"seed":5,' \
    | sed 's/.*"id":"\([0-9a-f]*\)".*/\1/')
len=$(wc -c < "$honest")
flen=$(od -An -tu1 -j $((len - 8)) -N1 "$honest" | tr -d ' ')
offset_at=$((len - 8 - flen + 1)) # past the footer's block count
if [ -z "$cid" ] ||
    [ "$(od -An -tx1 -j5 -N3 "$honest" | tr -d ' ')" != "018020" ] ||
    [ "$(od -An -tx1 -j"$offset_at" -N1 "$honest" | tr -d ' ')" != "08" ]; then
    echo "verify: fig1_cd/5 is no longer a paranoid, budget-4096, one-block trace" >&2
    exit 1
fi
cp "$honest" "$SDIR/paranoid2.djvb"
printf '\002' | dd of="$SDIR/paranoid2.djvb" bs=1 seek=5 conv=notrunc 2> /dev/null
{ head -c 6 "$honest"; printf '\200\240\000'; tail -c +9 "$honest"; } > "$SDIR/padded.djvb"
printf '\011' | dd of="$SDIR/padded.djvb" bs=1 seek=$((offset_at + 1)) conv=notrunc 2> /dev/null
for crafted in paranoid2 padded; do
    rc=0
    "$CLI" store put "$STORE" fig1_cd 5 "$SDIR/$crafted.djvb" --no-verify \
        > /dev/null 2> /dev/null || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "verify: store put of $crafted.djvb exited $rc, want 1" >&2
        exit 1
    fi
    rm -f "$SDIR/honest-back.djvb"
    "$CLI" store get "$STORE" "$cid" "$SDIR/honest-back.djvb" 2> /dev/null
    require "$SDIR/honest-back.djvb"
    cmp "$honest" "$SDIR/honest-back.djvb"
done
# Exit-code contract at the store boundary: claiming the wrong seed is a
# divergence (2), not an I/O error.
rc=0
"$CLI" store put "$STORE" fig1_hot 6 "$SDIR/traces/fig1_hot-5.djvb" \
    > /dev/null 2> /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "verify: wrong-seed store put exited $rc, want 2" >&2
    exit 1
fi

echo "== surface: one trace format, one server, one exit type, one semantics, one producer each, one timing harness, one packed block, one packer, one replay loop, one straight run, one reference map, one door to a hosted run, one heap extent, one heap commit, one reference read, one fleet driver, one request vocabulary, one trace spelling, one tier-2 path, one store log, one event door, no env knobs =="
fail=0
# Only the property harness reads the environment (QC_CASES / QC_SEED).
if grep -rn 'env::var' crates src --include=*.rs | grep -v '^src/qc\.rs:'; then
    echo "verify: something other than src/qc.rs reads the process environment" >&2
    fail=1
fi
# benchmark/ is the one timing harness: no bench crate, no bench target.
if [ -e crates/bench ] ||
    git ls-files '*Cargo.toml' ':!benchmark' | xargs grep -nE 'harness *= *false|\[\[bench\]\]'; then
    echo "verify: a second timing harness (crates/bench or a [[bench]] target) is back" >&2
    fail=1
fi
if grep -rnE 'sniff_format|decode_any|serve_lines|DebugClient|check_scalar|check_array|virtual_receiver|DEFAULT_CHECKPOINT_INTERVAL|fn step_once|fn mode_name|fn on_halt|checkpoints.truncate|BaselineReport' crates src --include=*.rs ||
    grep -nE 'fn advance\b' crates/dejavu/src/timetravel.rs; then
    echo "verify: a deleted half of a fork is back" >&2
    fail=1
fi
# Exit codes are chosen in one conversion and returned from `main`.
if awk '/^(impl From<CliError> for ExitCode|fn main)/ { ok = 1 } /^}/ { ok = 0 }
        /ExitCode::/ && !ok { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' \
        src/bin/dejavu-cli.rs; then
    echo "verify: ExitCode chosen outside CliError's conversion and main" >&2
    fail=1
fi
# One semantics, three tiers: the per-tier copies of the shared micro-ops,
# branch tests and accounting prelude stay deleted, and the two effects
# that are easiest to re-spell per tier are written exactly once.
if grep -rnE 'QOp::(LoadLoadAlu|CmpIf|IfZ)\b|account_fused!' crates src --include=*.rs; then
    echo "verify: a per-tier copy of a shared micro-op or branch test is back" >&2
    fail=1
fi
# One tier-2 path: tier 2 is a loop's closed form and nothing else. The
# trace-and-deopt step engine it replaced (its micro-ops and per-step
# records, the deopt-injection knobs and their counters) stays deleted.
tier2=$(find crates src examples -name '*.rs' ! -path '*/tests/*' | sort | xargs awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    !test && /MegaOp|MegaStep|mega_deopt|forced_deopts|guard_evals/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$tier2" ]; then
    echo "verify: the tier-2 step engine or its deopt machinery is spelled outside tests:" >&2
    printf '%s\n' "$tier2" >&2
    fail=1
fi
# The store is one append-only log (DESIGN §11.1): the temp-file renames,
# the per-block files and their listing, and the per-entry put logs stay
# deleted from its non-test code.
store=$(find crates/store/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    !test && /write_atomic|sweep_tmp|tmp-|\.puts"|\.blk"|list_blocks/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$store" ]; then
    echo "verify: a temp file, a block file, a put log or a block listing is spelled in the store:" >&2
    printf '%s\n' "$store" >&2
    fail=1
fi
for pat in 'wrapping_neg' 'mem.swap(' 'wrapping_div' 'wrapping_rem'; do
    n=$(grep -rnF "$pat" crates/djvm/src crates/reflect/src --include=*.rs | wc -l)
    if [ "$n" -gt 1 ]; then
        echo "verify: '$pat' is spelled $n times under crates/{djvm,reflect}/src, want 1 (Pure::exec, div_rem)" >&2
        fail=1
    fi
done
# One producer each: `ExecSpec::{live_vm, replay_vm}` is the only way to a
# Vm (the spec-less reflection demos boot a bare one), `ProgramBuilder` the
# only way to a Program.
if grep -rnE 'Vm::boot\(|(Jittered|Fixed)Timer::new|CycleClock::new' crates src tests examples --include=*.rs |
    grep -vE '^(crates/djvm/[^:]*|crates/dejavu/src/driver\.rs|crates/reflect/tests/remote_reflection\.rs|examples/remote_reflection\.rs):'; then
    echo "verify: an execution environment is spelled outside ExecSpec" >&2
    fail=1
fi
if grep -rnE 'on_init_public|full_fidelity' crates src tests examples --include=*.rs ||
    grep -n 'mod codec' crates/djvm/src/lib.rs; then
    echo "verify: a deleted wrapper or the Program JSON codec is back" >&2
    fail=1
fi
# The verifier is a table: one error constructor, no variant-style
# `CompileError`; the replayer is a cursor into a shared trace, not a
# queue of what is left of it.
n=$(grep -cF 'self.name.clone()' crates/djvm/src/compile.rs || true)
if [ "$n" -gt 1 ]; then
    echo "verify: 'self.name.clone()' is spelled $n times in compile.rs, want 1 (Verifier::fail)" >&2
    fail=1
fi
if grep -rnE 'CompileError::[A-Z]' crates src tests --include=*.rs ||
    grep -n 'VecDeque' crates/dejavu/src/replay.rs; then
    echo "verify: a variant-style CompileError constructor, or the replayer's queue of events, is back" >&2
    fail=1
fi
# A block is packed once: the second DJVB writer, the second splicer and
# the raw-block struct stay deleted, and one non-test function outside
# crates/codec names the coder. One packer: the range coder, the
# compressor race and the heat-driven tiers it fed stay deleted, and no
# product function names the LZ77 pair the benchmark probe still measures.
if grep -rnE 'assemble_block_file|RawBlock|raw_blocks|splice_blocks' crates src tests --include=*.rs; then
    echo "verify: a second DJVB writer, splicer or block struct is back" >&2
    fail=1
fi
if grep -rnE 'rc_model|RangeDecoder|Packed::race|load_heat|heat\.json' crates src tests examples --include=*.rs; then
    echo "verify: the range coder, the compressor race or the store's heat map is back" >&2
    fail=1
fi
# "FILE: fn NAME" of every non-test function, in the files named on stdin,
# with a non-comment line matching the pattern.
fns_naming() {
    sort | xargs awk -v pat="$1" '
        FNR == 1 { test = 0; fn = "(top level)" }
        /^#\[cfg\(test\)\]/ { test = 1 }
        test || /^[[:space:]]*\/\// { next }
        match($0, /fn [A-Za-z0-9_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        $0 ~ pat { print FILENAME ": fn " fn }' | sort -u
}
callers=$(find crates -name '*.rs' -path '*/src/*' ! -path 'crates/codec/*' |
    fns_naming 'codec::entropy_(de)?compress')
if [ "$(printf '%s\n' "$callers" | grep -c .)" -ne 1 ]; then
    echo "verify: codec's coder is named in other than one non-test function:" >&2
    printf '%s\n' "$callers" >&2
    fail=1
fi
lz77=$(find crates src -name '*.rs' -path '*src/*' | fns_naming 'codec::(de)?compress([^a-z_]|$)')
if [ -n "$lz77" ]; then
    echo "verify: a product function names the LZ77 pair (codec::{compress, decompress}):" >&2
    printf '%s\n' "$lz77" >&2
    fail=1
fi
# One replay loop: time travel is the product's (`dejavu::timetravel`, over
# `interp::run_until`), not the §5 comparison crate's; tier 0's `step` is
# djvm's own.
if grep -n 'baselines' crates/debugger/Cargo.toml crates/fleet/Cargo.toml crates/store/Cargo.toml ||
    grep -rn 'use baselines' crates/debugger crates/fleet crates/store src/corpus.rs --include=*.rs; then
    echo "verify: a product crate depends on the related-work comparison crate" >&2
    fail=1
fi
if grep -rnE 'interp::step\b|interp::\{[^}]*\bstep\b' crates src tests examples --include=*.rs |
    grep -v '^crates/djvm/'; then
    echo "verify: interp::step is named outside crates/djvm" >&2
    fail=1
fi
if grep -vE '^(//!|pub use dejavu::timetravel::\{[A-Za-z, ]*\};$)' crates/baselines/src/checkpoint.rs; then
    echo "verify: baselines/src/checkpoint.rs holds more than the re-export of dejavu::timetravel" >&2
    fail=1
fi
# One reference map: the root set, the frame-slot walk over the per-pc
# reference maps and the statics-or-fields layout choice are each written in
# one function; mark, copy and the state digest are policies over them.
both() { # functions of djvm + reflect naming both patterns
    comm -12 <(find crates/djvm/src crates/reflect/src -name '*.rs' | fns_naming "$1") \
        <(find crates/djvm/src crates/reflect/src -name '*.rs' | fns_naming "$2")
}
one_fn() { # what, the functions found, the one expected
    if [ "$2" != "$3" ]; then
        echo "verify: $1 in other than '$3':" >&2
        printf '%s\n' "$2" >&2
        fail=1
    fi
}
# One way to run a hook over a VM: a straight run (every mode and every §5
# scheme) is `dejavu::drive`, and a paused one is time travel's `forward`,
# reached only through a seek.
one_fn "a hook is run over a VM" \
    "$(find crates/*/src src -name '*.rs' | fns_naming 'interp::run(_until)?\\(')" \
    "crates/dejavu/src/driver.rs: fn drive
crates/dejavu/src/timetravel.rs: fn forward"
one_fn "the root set (.code_objects beside .io_read_scratch) is walked" \
    "$(both '\.code_objects' '\.io_read_scratch' | grep -vE ': fn (snapshot|restore)$' || true)" \
    "crates/djvm/src/vm.rs: fn each_root"
one_fn "a per-pc reference map is indexed" \
    "$(both 'ref_maps\[' 'ref_maps\[' | grep -vE '/(compile|dis)\.rs:' || true)" \
    "crates/djvm/src/vm.rs: fn frame_slots"
one_fn "statics-or-fields (is_classobj beside static_layouts) is chosen" \
    "$(both 'is_classobj' 'static_layouts')" \
    "crates/djvm/src/program.rs: fn layout_of"
# Checkpoints sized to what the guest wrote: a snapshot copies the words
# below the heap's extent. Only the reflection core dump copies the whole
# image, and the extent moves up only where a block is handed out and where
# a copying collection writes to-space (a restore resets it).
djvm_fns() { find crates/djvm/src -name '*.rs' | fns_naming "$1"; }
one_fn "the whole heap image is copied" \
    "$(djvm_fns 'mem\\.(clone|to_vec)\\(|mem\\.clone_from\\(')" \
    "crates/djvm/src/heap.rs: fn mem_snapshot"
one_fn "the heap's extent is advanced" \
    "$(djvm_fns '\\.extent *=[^=]' | grep -v ': fn restore$' || true)" \
    "crates/djvm/src/gc.rs: fn copying
crates/djvm/src/heap.rs: fn alloc_block"
# One heap commit: a heap's storage is the committed prefix of its address
# space. It grows in one function, called where the extent is set or rises
# and where a restore copies a snapshot back, and nothing in heap.rs sizes
# storage to the whole space up front (only the core dump zero-extends to it).
one_fn "the heap's storage grows" \
    "$(djvm_fns 'mem\\.(resize|reserve|extend|push|append|insert)')" \
    "crates/djvm/src/heap.rs: fn commit"
one_fn "the heap's storage is committed" \
    "$(djvm_fns '\\.commit\\(' | grep -v ': fn commit$' || true)" \
    "crates/djvm/src/gc.rs: fn copying
crates/djvm/src/heap.rs: fn alloc_block
crates/djvm/src/heap.rs: fn new
crates/djvm/src/heap.rs: fn restore"
one_fn "heap.rs sizes a vector" \
    "$(echo crates/djvm/src/heap.rs | fns_naming 'vec!\\[[^]]*;|with_capacity\\(|resize\\(|reserve')" \
    "crates/djvm/src/heap.rs: fn commit
crates/djvm/src/heap.rs: fn mem_snapshot"
# One affine fingerprint chain: the per-step mix is advanced by the dispatch
# cursor and composed by the closed-loop compiler, nowhere else.
one_fn "the Full fingerprint's per-step mix is named" \
    "$(find crates src -name '*.rs' -path '*/src/*' | fns_naming 'mix_step' |
        grep -v '^crates/djvm/src/fingerprint\.rs: fn mix_step$' || true)" \
    "crates/djvm/src/compile.rs: fn compile_loop
crates/djvm/src/interp.rs: fn mix"
if grep -rnE 'Fingerprint::step\(|fn step\(&mut self, tid' crates src tests examples --include=*.rs; then
    echo "verify: the old per-step fingerprint mixer is back" >&2
    fail=1
fi
if grep -rnE 'TraceFormat::Flat|Trace::decode|fn (root_values|frame_refs|push_children)\b' \
    crates src tests examples --include=*.rs; then
    echo "verify: the flat trace reader, or a per-collector copy of the reference walk, is back" >&2
    fail=1
fi
# One event door (DESIGN §4b): a VM event site makes one `Vm::note` call.
# Only `note` folds an event into the fingerprint or writes a sink; beside
# it, only the per-dispatch QOp counter, `run_quick`'s hoisted flag and the
# profiler's arming (which seeds it from the frame chains) reach the
# profiler.
one_fn "a VM event is folded or written to a sink" \
    "$(find crates/djvm/src -name '*.rs' |
        fns_naming 'fingerprint\\.(event|thread_switch)\\(|telem\\.event\\(|EventKind::|ProfKind')" \
    "crates/djvm/src/vm.rs: fn note"
one_fn "the profiler is reached" \
    "$(find crates/djvm/src -name '*.rs' | fns_naming 'telem\\.profile')" \
    "crates/djvm/src/interp.rs: fn profile_qop
crates/djvm/src/interp.rs: fn run_quick
crates/djvm/src/vm.rs: fn enable_profiler
crates/djvm/src/vm.rs: fn note"
# One reference read: the guest tiers, the remote reflector and the mirrors
# decode headers, test subclassing and index vtables through djvm::objref
# only, and one function resolves a virtual call's target (the verifier's
# and the devirtualiser's static lookups and the builder's table are not
# dispatch).
outside=$(find crates src examples -name '*.rs' ! -path 'crates/djvm/src/*' ! -path '*/tests/*' |
    fns_naming 'vtable\\[|is_subclass\\(|Header::decode\\(')
if [ -n "$outside" ]; then
    echo "verify: an object header is decoded, a subclass tested or a vtable indexed outside crates/djvm/src:" >&2
    printf '%s\n' "$outside" >&2
    fail=1
fi
one_fn "a virtual call's target is resolved" \
    "$(djvm_fns 'vtable(\\[|\\.get\\()' | grep -vE '/(compile|builder|dis)\.rs:' || true)" \
    "crates/djvm/src/objref.rs: fn virtual_target"
# One door to a hosted run: the fleet server binds the only listener and
# runs the only accept loop, the fleet frame is the only wire between
# processes, and one function answers a frame.
one_fn "a listener is bound" \
    "$(find crates src -name '*.rs' ! -path '*/tests/*' | fns_naming 'TcpListener::bind')" \
    "crates/fleet/src/server.rs: fn start"
one_fn "connections are accepted" \
    "$(find crates src -name '*.rs' ! -path '*/tests/*' | fns_naming '\\.accept\\(\\)')" \
    "crates/fleet/src/server.rs: fn acceptor_loop"
if grep -rnE 'tcpmem|TcpMemory|serve_one|SHARDS|dispatch_inner|try_dispatch|DebugSession::new_indexed|from_trace_bytes' \
    crates src tests examples --include=*.rs; then
    echo "verify: the second listener, the sharded session map, a nested dispatch or a second DebugSession constructor is back" >&2
    fail=1
fi
# One fleet driver: benchmark/'s fleet_mix measures a fleet and
# fleet_service.rs checks its parity; the deleted load driver, its latency
# report and the knobs and registry calls only it kept alive stay deleted,
# and the manager's rpc.* histograms are the fleet's one timing site.
if grep -rnE 'fleet[-]bench|fleet::ben[c]h|Drive[R]eport|p99_request[_]ns|with_idle[_]ttl|set[_]gauge' \
    crates src tests examples scripts; then
    echo "verify: the second fleet driver, or a knob or registry call only it used, is back" >&2
    fail=1
fi
clocks=$(find crates/fleet/src -name '*.rs' | fns_naming 'Instant::now' |
    grep -vE '^crates/fleet/src/(manager\.rs: fn (dispatch|with_session|evict_idle)|session\.rs: fn new)$' || true)
if [ -n "$clocks" ]; then
    echo "verify: a fleet function other than the manager's request timing and idle clock reads Instant::now:" >&2
    printf '%s\n' "$clocks" >&2
    fail=1
fi
# One request vocabulary: a debugger command and its response are typed
# messages of the fleet's binary codec. JSON is only the CLI's door (it
# parses a command and prints a response), and the commands that
# duplicated `SeekLogical` and `DivergenceCheck` stay deleted.
if grep -rnE 'SeekTime|"seek_time"|Response::SeekStats|^[[:space:]]*SeekStats \{|BadDebugCommand|impl ToJson for Command|impl FromJson for (Response|StopReason|FrameInfo|ThreadInfo)' \
    crates src tests examples --include=*.rs; then
    echo "verify: a debugger JSON codec path, or a command duplicating a fleet RPC, is back" >&2
    fail=1
fi
one_fn "a debugger command is parsed from JSON" \
    "$(find crates src examples -name '*.rs' ! -path '*/tests/*' | fns_naming 'Command::from_json_str')" \
    "src/bin/dejavu-cli.rs: fn debug"
# One trace spelling: a trace is written as DJVB and sized by
# `Trace::stats`'s varint model (E5). The flat `DJV1` encoder nobody read
# back stays deleted, and a varint's size is defined once, beside
# `put_varint`, for DejaVu and the §5 baselines alike.
flat=$(find crates src examples -name '*.rs' ! -path '*/tests/*' | fns_naming 'DJV1|(\\.|::|fn )encoded\\(')
if [ -n "$flat" ]; then
    echo "verify: the flat DJV1 trace encoding is spelled, defined or called:" >&2
    printf '%s\n' "$flat" >&2
    fail=1
fi
one_fn "a varint's size is defined" \
    "$(grep -rnE 'fn varint_len\b' crates src examples tests --include=*.rs | cut -d: -f1)" \
    "crates/codec/src/bin.rs"
[ "$fail" -eq 0 ]
echo "surface: $(git ls-files '*.rs' '*.sh' ':!benchmark' | xargs cat | wc -l) lines of .rs/.sh outside benchmark/"
# Lines before the first `#[cfg(test)]` (all of a file that has none), summed.
nontest() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/{print NR-1; t=1; exit} END{if(!t) print NR}' "$f"
    done | awk '{s+=$1} END{print s}'
}
d=crates/djvm/src
echo "surface: $(nontest $d/interp.rs $d/compile.rs $d/dis.rs) non-test lines in djvm's interp.rs + compile.rs + dis.rs, $(nontest $d/*.rs) in all of $d"
echo "surface: $(nontest $d/interp.rs $d/compile.rs) non-test lines in interp.rs + compile.rs"
echo "surface: $(nontest $d/gc.rs $d/vm.rs $d/heap.rs) non-test lines in gc.rs + vm.rs + heap.rs"
echo "surface: $(nontest crates/dejavu/src/blocktrace.rs crates/store/src/*.rs) non-test lines in dejavu's blocktrace.rs + crates/store/src/*.rs"
echo "surface: $(nontest crates/store/src/*.rs) non-test lines in crates/store/src"
echo "surface: $(nontest $d/interp.rs crates/dejavu/src/timetravel.rs crates/debugger/src/engine.rs crates/fleet/src/session.rs) non-test lines in interp.rs + dejavu's timetravel.rs + debugger's engine.rs + fleet's session.rs"
echo "surface: $(nontest crates/reflect/src/*.rs crates/fleet/src/*.rs crates/debugger/src/*.rs) non-test lines in crates/{reflect,fleet,debugger}/src"
echo "surface: $(nontest crates/fleet/src/*.rs) non-test lines in crates/fleet/src"
echo "surface: $(nontest crates/fleet/src/rpc.rs crates/debugger/src/protocol.rs crates/fleet/src/manager.rs) non-test lines in fleet's rpc.rs + debugger's protocol.rs + fleet's manager.rs, $(nontest crates/fleet/src/*.rs crates/debugger/src/*.rs) in crates/{fleet,debugger}/src"
echo "surface: $(nontest crates/reflect/src/remote.rs) non-test lines in reflect's remote.rs, $(nontest $d/*.rs crates/reflect/src/*.rs) in crates/{djvm,reflect}/src"
echo "surface: $(nontest $d/*.rs crates/telemetry/src/*.rs) non-test lines in crates/{djvm,telemetry}/src"

echo "verify: OK"
