#!/usr/bin/env bash
# macawd end-to-end (DESIGN.md §17), as an operator drives it:
#
#   1. a submitted campaign runs to completion over the worker pool
#   2. SIGKILL mid-campaign loses nothing that finished: the restarted
#      daemon re-schedules the persisted campaign and serves every
#      completed job from the content-addressed cache (cache_hits > 0)
#   3. the resumed result stream is byte-identical to an uninterrupted
#      daemon's stream of the same campaign
#   4. a torn append is cut off: with bytes chopped off the ledger inside
#      its last record, a restart serves every other job from the cache,
#      re-runs that one, and streams byte-identical results
#   5. resubmitting the campaign under a new name is a new campaign served
#      entirely from cache (the >= 90% cache-hit acceptance bar, at 100%)
#   6. a single-table campaign's text stream byte-matches macawsim below
#      its header, and its metrics document byte-matches macawsim -metrics
#   7. SIGTERM drains: readiness flips 503, new submissions are refused,
#      the in-flight run finishes and flushes its ledger entry, exit 0
set -euo pipefail
cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
cleanup() {
  local p
  for p in $(jobs -p); do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/macawd" ./cmd/macawd
go build -o "$dir/macawsim" ./cmd/macawsim

# wait_line FILE PATTERN TIMEOUT_S: poll until PATTERN appears in FILE.
wait_line() {
  local i
  for i in $(seq 1 $((10 * $3))); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "timeout waiting for '$2' in $1" >&2
  cat "$1" >&2 || true
  return 1
}

# start_daemon LOGFILE STATEDIR [ARGS...]: sets $pid and $base.
start_daemon() {
  local log="$1" state="$2"
  shift 2
  "$dir/macawd" -listen 127.0.0.1:0 -state "$state" "$@" 2> "$log" &
  pid=$!
  wait_line "$log" "listening on" 10
  base="http://$(sed -n 's/^macawd: listening on \([^ ]*\).*/\1/p' "$log" | head -1)"
}

# field URL JQ_EXPR: one field of a JSON endpoint.
field() { curl -sf "$1" | jq -r "$2"; }

# wait_completed BASE ID TIMEOUT_S: poll until the campaign completes.
wait_completed() {
  local i
  for i in $(seq 1 $((2 * $3))); do
    [ "$(field "$1/campaigns/$2" .state)" = completed ] && return 0
    sleep 0.5
  done
  echo "timeout: campaign $2 did not complete:" >&2
  curl -s "$1/campaigns/$2" >&2 && echo >&2
  return 1
}

# The campaign: seven jobs at one shared run length, heavy enough that a
# kill lands mid-campaign on one worker, cheap enough for CI. The
# ext-loadsweep job runs last and longest, holding the kill window open.
cat > "$dir/campaign.json" <<'EOF'
{
  "name": "e2e",
  "total_s": 500,
  "warmup_s": 50,
  "runs": [
    {"table": "table6", "seeds": [1, 2, 3]},
    {"table": "table9", "seeds": [1, 2]},
    {"sweep": "backoff.max=16,32", "seeds": [1]},
    {"table": "ext-loadsweep", "seeds": [1]}
  ]
}
EOF

echo "== 1. submit a campaign, kill -9 mid-flight =="
start_daemon "$dir/a.log" "$dir/state" -jobs 1
pid_a=$pid base_a=$base
curl -sf "$base_a/healthz" > /dev/null
[ "$(curl -s -o /dev/null -w '%{http_code}' "$base_a/readyz")" = 200 ]
id="$(curl -sf -X POST --data-binary @"$dir/campaign.json" "$base_a/campaigns" | jq -r .id)"
jobs_total="$(field "$base_a/campaigns/$id" .jobs)"
done_before=0
for i in $(seq 1 600); do
  done_before="$(field "$base_a/campaigns/$id" .done)"
  [ "$done_before" -ge 2 ] && break
  sleep 0.1
done
[ "$done_before" -ge 2 ] || { echo "campaign never reached 2 completed jobs" >&2; exit 1; }
kill -9 "$pid_a"
wait "$pid_a" 2>/dev/null || true
echo "killed daemon with $done_before/$jobs_total jobs done"

echo "== 2. restart resumes past completed runs from the ledger =="
start_daemon "$dir/b.log" "$dir/state"
pid_b=$pid base_b=$base
wait_completed "$base_b" "$id" 120
hits="$(field "$base_b/campaigns/$id" .cache_hits)"
[ "$hits" -ge "$done_before" ] && [ "$hits" -ge 1 ] ||
  { echo "resume cache_hits=$hits, want >= $done_before" >&2; exit 1; }
echo "resumed: $hits/$jobs_total jobs served from cache"
curl -sf "$base_b/campaigns/$id/results?wait=1" > "$dir/resumed.jsonl"

echo "== 3. resumed stream is byte-identical to an uninterrupted run =="
start_daemon "$dir/c.log" "$dir/state-fresh"
pid_c=$pid base_c=$base
id_c="$(curl -sf -X POST --data-binary @"$dir/campaign.json" "$base_c/campaigns" | jq -r .id)"
[ "$id_c" = "$id" ] || { echo "campaign ID moved across daemons: $id_c != $id" >&2; exit 1; }
wait_completed "$base_c" "$id_c" 120
curl -sf "$base_c/campaigns/$id_c/results?wait=1" > "$dir/fresh.jsonl"
cmp "$dir/resumed.jsonl" "$dir/fresh.jsonl"
kill "$pid_c" && wait "$pid_c" 2>/dev/null || true
echo "resumed and uninterrupted streams match ($(wc -c < "$dir/fresh.jsonl") bytes)"

echo "== 4. a torn append is cut off and only its job re-runs =="
# Every record ends in an 8-byte CRC and holds a result line of hundreds of
# bytes, so a 20-byte chop lands inside the last record.
size="$(stat -c %s "$dir/state-fresh/cache.bin")"
truncate -s $((size - 20)) "$dir/state-fresh/cache.bin"
start_daemon "$dir/t.log" "$dir/state-fresh"
pid_t=$pid base_t=$base
wait_completed "$base_t" "$id" 120
hits_t="$(field "$base_t/campaigns/$id" .cache_hits)"
[ "$hits_t" = $((jobs_total - 1)) ] ||
  { echo "after a torn append cache_hits=$hits_t, want $((jobs_total - 1))" >&2; exit 1; }
curl -sf "$base_t/campaigns/$id/results?wait=1" > "$dir/torn.jsonl"
cmp "$dir/torn.jsonl" "$dir/fresh.jsonl"
kill "$pid_t" && wait "$pid_t" 2>/dev/null || true
echo "torn append dropped: $hits_t/$jobs_total served from cache, stream unchanged"

echo "== 5. a renamed resubmission is served entirely from cache =="
jq '.name = "e2e-again"' "$dir/campaign.json" > "$dir/renamed.json"
id2="$(curl -sf -X POST --data-binary @"$dir/renamed.json" "$base_b/campaigns" | jq -r .id)"
[ "$id2" != "$id" ] || { echo "renamed campaign kept the old ID" >&2; exit 1; }
wait_completed "$base_b" "$id2" 60
hits2="$(field "$base_b/campaigns/$id2" .cache_hits)"
[ "$hits2" = "$jobs_total" ] ||
  { echo "renamed campaign cache_hits=$hits2, want $jobs_total" >&2; exit 1; }
echo "renamed campaign: $hits2/$jobs_total cache hits (100%)"

echo "== 6. text stream and metrics byte-match macawsim =="
cat > "$dir/single.json" <<'EOF'
{"total_s": 30, "warmup_s": 5, "runs": [{"table": "table6", "seeds": [1]}]}
EOF
id3="$(curl -sf -X POST --data-binary @"$dir/single.json" "$base_b/campaigns" | jq -r .id)"
wait_completed "$base_b" "$id3" 60
curl -sf "$base_b/campaigns/$id3/results?wait=1&format=text" > "$dir/got.txt"
"$dir/macawsim" -table table6 -total 30 -warmup 5 -seed 1 | tail -n +3 > "$dir/want.txt"
cmp "$dir/got.txt" "$dir/want.txt"
curl -sf "$base_b/campaigns/$id3/metrics?spec=table:table6&seed=1" > "$dir/got_metrics.json"
"$dir/macawsim" -table table6 -total 30 -warmup 5 -seed 1 -metrics "$dir/want_metrics.json" > /dev/null
cmp "$dir/got_metrics.json" "$dir/want_metrics.json"
kill "$pid_b" && wait "$pid_b" 2>/dev/null || true
echo "text and metrics documents byte-match macawsim"

echo "== 7. SIGTERM drains: in-flight run finishes and flushes =="
cat > "$dir/slow.json" <<'EOF'
{"total_s": 500, "warmup_s": 50, "runs": [{"table": "ext-loadsweep", "seeds": [9]}]}
EOF
start_daemon "$dir/d.log" "$dir/state-drain" -jobs 1
pid_d=$pid base_d=$base
id4="$(curl -sf -X POST --data-binary @"$dir/slow.json" "$base_d/campaigns" | jq -r .id)"
sleep 0.5 # let the run enter the worker
kill -TERM "$pid_d"
wait_line "$dir/d.log" "draining" 5
[ "$(curl -s -o /dev/null -w '%{http_code}' "$base_d/readyz")" = 503 ]
[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$dir/slow.json" "$base_d/campaigns")" = 503 ]
curl -sf "$base_d/healthz" > /dev/null
rc=0; wait "$pid_d" || rc=$?
[ "$rc" -eq 0 ] || { echo "drained daemon exited $rc, want 0" >&2; cat "$dir/d.log" >&2; exit 1; }
grep -q "drained" "$dir/d.log"
# The in-flight run flushed its ledger entry: a restart serves it from cache.
start_daemon "$dir/e.log" "$dir/state-drain" -jobs 1
pid_e=$pid base_e=$base
wait_completed "$base_e" "$id4" 60
hits4="$(field "$base_e/campaigns/$id4" .cache_hits)"
[ "$hits4" = 1 ] || { echo "drained run not served from cache (hits=$hits4)" >&2; exit 1; }
kill "$pid_e" && wait "$pid_e" 2>/dev/null || true
echo "drain refused new work, finished the in-flight run, and flushed it"

echo "macawd e2e: OK"
