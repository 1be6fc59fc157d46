#!/bin/sh
# serve_chaos.sh — durable-registry torture drill for the owld daemon,
# also available as `make serve-chaos`: classify corpora, SIGKILL the
# daemon (no drain), restart it under `-chaos err=1` — a reasoner that
# fails every call, so serving again PROVES re-adoption ran zero
# reclassification — and finally restart with a resident-memory budget
# small enough to force eviction, checking demand reloads still answer
# byte-identical to `owlclass`. The third corpus has a partial EL
# fragment, so classifying it calls the plug-in even with the cheap-first
# pipeline on, and the proof never rests on corpora alone that the EL
# prepass decides without one.
set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
OWLD_PID=""
cleanup() {
    if [ -n "$OWLD_PID" ]; then
        kill -KILL "$OWLD_PID" 2>/dev/null || true
        wait "$OWLD_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building owld, owlclass, ontogen"
go build -o "$WORK/owld" ./cmd/owld
go build -o "$WORK/owlclass" ./cmd/owlclass
go build -o "$WORK/ontogen" ./cmd/ontogen

echo "== generating three corpora"
"$WORK/ontogen" -profile WBbt.obo -scale 80 -seed 21 -o "$WORK/one.obo"
"$WORK/ontogen" -profile WBbt.obo -scale 80 -seed 22 -o "$WORK/two.obo"
# 60 concepts, 26 non-EL constructors: under the default pipeline
# `owlclass -stats` still makes 57 sat? and 5 subs? calls on it.
"$WORK/ontogen" -profile rnao_functional -scale 12 -seed 21 -o "$WORK/three.ofn"

CKDIR="$WORK/ck"

start_owld() {
    # start_owld [extra flags...] — sets OWLD_PID and BASE.
    rm -f "$WORK/ready"
    "$WORK/owld" -addr 127.0.0.1:0 -ready-file "$WORK/ready" \
        -checkpoint-dir "$CKDIR" "$@" >>"$WORK/owld.log" 2>&1 &
    OWLD_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$WORK/ready" ] && break
        kill -0 "$OWLD_PID" 2>/dev/null || { cat "$WORK/owld.log"; echo "serve-chaos: owld died at startup"; exit 1; }
        sleep 0.1
    done
    BASE=$(cat "$WORK/ready")
    # Wait for readiness: 503 while boot re-adoption is in progress.
    for _ in $(seq 1 600); do
        code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
        [ "$code" = 200 ] && return 0
        sleep 0.1
    done
    echo "serve-chaos: /readyz never turned 200"
    exit 1
}

kill_owld() {
    kill -KILL "$OWLD_PID" 2>/dev/null || true
    wait "$OWLD_PID" 2>/dev/null || true
    OWLD_PID=""
}

submit_and_wait() {
    # submit_and_wait <id> <file>; .ofn files go as format=functional.
    case "$2" in *.ofn) format=functional ;; *) format=obo ;; esac
    code=$(curl -s -o "$WORK/submit.json" -w '%{http_code}' \
        --data-binary @"$2" "$BASE/ontologies?format=$format&id=$1")
    [ "$code" = 202 ] || { cat "$WORK/submit.json"; echo "serve-chaos: submit $1: HTTP $code"; exit 1; }
    for _ in $(seq 1 600); do
        status=$(curl -s "$BASE/ontologies/$1" | sed -n 's/.*"status":"\([a-z]*\)".*/\1/p')
        case "$status" in
        classified) return 0 ;;
        failed) curl -s "$BASE/ontologies/$1"; echo; echo "serve-chaos: $1 failed"; exit 1 ;;
        esac
        sleep 0.1
    done
    echo "serve-chaos: $1 never classified"
    exit 1
}

entry_field() {
    # entry_field <id> <field>: a scalar field (bare or quoted) from the
    # status JSON.
    curl -s "$BASE/ontologies/$1" | sed -n "s/.*\"$2\":\"\{0,1\}\([a-z0-9]*\)\"\{0,1\}[,}].*/\1/p"
}

check_answers() {
    # check_answers <id> <file> <label>; the two concepts queried are the
    # first two declared (OBO `id:` or functional `Declaration(Class(...))`).
    set -- "$1" "$2" "$3" $(grep -e '^id: ' -e '^Declaration(Class(' "$2" | head -n 2 |
        sed -e 's/^id: //' -e 's/^Declaration(Class(\(.*\)))$/\1/')
    SPEC="subsumes:$4,$5;ancestors:$4;descendants:$5;lca:$4,$5;depth:$5"
    "$WORK/owlclass" -query "$SPEC" "$2" >"$WORK/$1.cli" 2>/dev/null
    curl -sG --data-urlencode "q=$SPEC" "$BASE/ontologies/$1/query" >"$WORK/$1.http"
    if ! cmp -s "$WORK/$1.cli" "$WORK/$1.http"; then
        echo "serve-chaos: $1 ($3): daemon answers differ from owlclass -query:"
        diff "$WORK/$1.cli" "$WORK/$1.http" || true
        exit 1
    fi
    echo "   $1: answers byte-identical to owlclass ($3)"
}

echo "== phase 1: classify every corpus, then SIGKILL the daemon"
start_owld -workers 4
submit_and_wait one "$WORK/one.obo"
submit_and_wait two "$WORK/two.obo"
submit_and_wait three "$WORK/three.ofn"
check_answers one "$WORK/one.obo" "before kill"
check_answers three "$WORK/three.ofn" "before kill"
# Wait until the manifest has every entry durably classified before the kill.
for _ in $(seq 1 100); do
    n=$(grep -c '"status": "classified"' "$CKDIR/registry.json" 2>/dev/null || true)
    [ "${n:-0}" = 3 ] && break
    sleep 0.1
done
kill_owld
echo "   killed (no drain)"

echo "== phase 2: restart under -chaos err=1 — re-adoption must run zero reasoner calls"
start_owld -workers 4 -chaos err=1,seed=1
for id in one two three; do
    status=$(entry_field "$id" readopted)
    [ "$status" = true ] || { curl -s "$BASE/ontologies/$id"; echo; echo "serve-chaos: $id not readopted after SIGKILL restart"; exit 1; }
done
check_answers one "$WORK/one.obo" "after kill + chaos restart"
check_answers two "$WORK/two.obo" "after kill + chaos restart"
check_answers three "$WORK/three.ofn" "after kill + chaos restart"
kill_owld

echo "== phase 3: restart with a tight memory budget — eviction + demand reload"
# One classified kernel at this scale is well over 4 KiB, so a 4 KiB
# budget forces everything but the working set out of memory.
start_owld -workers 4 -max-resident-bytes 4096
evictions=$(curl -s "$BASE/healthz" | sed -n 's/.*"evictions":\([0-9]*\).*/\1/p')
[ "${evictions:-0}" -ge 1 ] || { curl -s "$BASE/healthz"; echo; echo "serve-chaos: no evictions under a 4 KiB budget"; exit 1; }
for id in one two three; do
    status=$(entry_field "$id" status)
    [ "$status" = classified ] || { echo "serve-chaos: evicted $id lists as $status, want classified"; exit 1; }
done
check_answers one "$WORK/one.obo" "after eviction, demand reload"
check_answers two "$WORK/two.obo" "after eviction, demand reload"
check_answers three "$WORK/three.ofn" "after eviction, demand reload"
reloads=$(curl -s "$BASE/healthz" | sed -n 's/.*"reloads":\([0-9]*\).*/\1/p')
[ "${reloads:-0}" -ge 1 ] || { curl -s "$BASE/healthz"; echo; echo "serve-chaos: queries never paid a demand reload"; exit 1; }

echo "== graceful shutdown"
kill -TERM "$OWLD_PID"
wait "$OWLD_PID" || { cat "$WORK/owld.log"; echo "serve-chaos: owld exited non-zero on SIGTERM"; exit 1; }
OWLD_PID=""

echo "serve-chaos: OK"
