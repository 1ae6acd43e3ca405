#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): configure, build and run the full test suite
# exactly the way the driver does.  Usage:
#
#   tools/run_tier1.sh           # default preset (RelWithDebInfo, build/)
#   tools/run_tier1.sh asan      # address+UB sanitizer preset (build-asan/)
#   tools/run_tier1.sh ubsan     # UB sanitizer alone (build-ubsan/)
#   tools/run_tier1.sh tsan      # thread sanitizer preset (build-tsan/);
#                                # ctest runs the concurrency-relevant subset
#   tools/run_tier1.sh scalar    # SPEX_NO_SIMD build (build-scalar/): SIMD
#                                # lanes compiled out AND runtime dispatch
#                                # forced scalar; full suite
#
# Exits non-zero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
preset="${1:-default}"

# The scalar preset compiles the SWAR/SIMD scanner lanes out; force the
# runtime dispatch to scalar as well so the smokes below cover the same
# configuration the ctest preset pins via its environment.
if [ "$preset" = "scalar" ]; then export SPEX_NO_SIMD=1; fi

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset"

# Observability smoke: the metrics exposition must be produced (and be
# non-trivial) on a real query over the bundled example document.
binary_dir="build"
if [ "$preset" != "default" ]; then binary_dir="build-$preset"; fi
metrics_out="$("$binary_dir/tools/spexquery" --count --metrics=json \
  '_*.book[author].title' examples/data/catalog.xml 2>&1 >/dev/null)"
grep -q '"spex_transducer_messages_in"' <<<"$metrics_out" || {
  echo "tier1: spexquery --metrics=json smoke failed:" >&2
  echo "$metrics_out" >&2
  exit 1
}
echo "tier1: metrics smoke OK"

# Variable GC smoke: once a document is complete no condition-variable
# binding survives it, order-axis queries included (their FO/PR formulas are
# rewritten as determinations pass, so the end-of-sweep GC erases every
# retired binding).
for query in '_*.book[author].>>title' '_*.title.<<book[author]'; do
  metrics_out="$("$binary_dir/tools/spexquery" --count --metrics=json \
    "$query" examples/data/catalog.xml 2>&1 >/dev/null)"
  grep -q '"name": "spex_assignment_live_vars", "type": "gauge", "value": 0}' \
    <<<"$metrics_out" || {
    echo "tier1: variable GC smoke failed on $query:" >&2
    grep 'spex_assignment_live_vars' <<<"$metrics_out" >&2
    exit 1
  }
done
echo "tier1: variable GC smoke OK"

# EXPLAIN/PROFILE smoke: the static plan and the timed report must render.
"$binary_dir/tools/spexquery" --explain '_*.book[author].title' \
  examples/data/catalog.xml | grep -q 'EXPLAIN' || {
  echo "tier1: spexquery --explain smoke failed" >&2
  exit 1
}
"$binary_dir/tools/spexquery" --profile '_*.book[author].title' \
  examples/data/catalog.xml | grep -q 'TOTAL' || {
  echo "tier1: spexquery --profile smoke failed" >&2
  exit 1
}
echo "tier1: explain/profile smoke OK"

# Batch-granularity parity smoke (DESIGN.md §11): every batch size feeds the
# network's one delivery path, so plain, order-axis and qualifier queries
# (nested, on a wildcard base, joined by '&', under '>>') give byte-identical
# results at 1, 7 and 64 events per batch — and every node reads and writes
# the same tapes: the per-node message counts of --profile=json agree too.
parity_dir="$(mktemp -d)"
for query in '_*.book[author].title' '_*.author.>>title' '_*.title.<<author' \
    '_*.book[title.<<author].price' '_*.book[author.>>price]' \
    '_*.catalog[book[author]].journal' '_*._[author].title' \
    '(_*.book[author] & _*._[price]).title' '_*.author.>>book[price]'; do
  for batch in 1 7 64; do
    "$binary_dir/tools/spexquery" --batch-size="$batch" "$query" \
      examples/data/catalog.xml >"$parity_dir/$batch.out" &&
    "$binary_dir/tools/spexquery" --batch-size="$batch" --profile=json \
      "$query" examples/data/catalog.xml |
      grep -o '"id": [0-9]*, "name": "[^"]*"\|"messages_[a-z]*": [0-9]*' \
      >"$parity_dir/$batch.tapes" || {
      echo "tier1: batch parity smoke: spexquery failed on $query" >&2
      rm -rf "$parity_dir"
      exit 1
    }
  done
  if [ ! -s "$parity_dir/1.out" ] || [ ! -s "$parity_dir/1.tapes" ] ||
      ! cmp -s "$parity_dir/1.out" "$parity_dir/7.out" ||
      ! cmp -s "$parity_dir/1.out" "$parity_dir/64.out" ||
      ! cmp -s "$parity_dir/1.tapes" "$parity_dir/7.tapes" ||
      ! cmp -s "$parity_dir/1.tapes" "$parity_dir/64.tapes"; then
    echo "tier1: batch parity smoke failed on $query" >&2
    rm -rf "$parity_dir"
    exit 1
  fi
done
rm -rf "$parity_dir"
echo "tier1: batch parity smoke OK"

# Profile accounting smoke: the timed report's self-time shares partition
# the run, and every node's deliveries equal its messages_in.
profile_json="$("$binary_dir/tools/spexquery" --profile=json \
  '_*.book[author].title' examples/data/catalog.xml)"
echo "$profile_json" | python3 -c '
import json, sys
nodes = json.load(sys.stdin)["nodes"]
share = sum(n["time_share"] for n in nodes)
bad = [n["name"] for n in nodes if n["deliveries"] != n["messages_in"]]
if abs(share - 1.0) > 0.01 or bad:
    sys.exit("shares sum to %.4f; deliveries != messages_in on %s"
             % (share, bad))
' || {
  echo "tier1: profile accounting smoke failed" >&2
  exit 1
}
echo "tier1: profile accounting smoke OK"

# Concurrent-runtime smoke: fan the bundled example document across a small
# engine pool and check the serving summary (under asan/tsan this also puts
# the worker queues and the shared query cache through sanitized traffic).
serve_dir="$(mktemp -d)"
mkdir "$serve_dir/docs"
cp examples/data/catalog.xml "$serve_dir/docs/"
printf '_*.book[author].title\n_*.title\n' > "$serve_dir/queries.txt"
# (capture, don't pipe into grep -q: under pipefail an early grep exit
# would SIGPIPE the server mid-write and fail the pipeline spuriously)
serve_out="$("$binary_dir/tools/spexserve" --queries="$serve_dir/queries.txt" \
  --threads=2 "$serve_dir/docs" 2>&1)" || {
  echo "tier1: spexserve smoke failed:" >&2
  echo "$serve_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
# The serving summary is a structured logfmt line now:
#   ts=... level=info msg="run complete" documents=1 queries=2 sessions=2 threads=2
grep -q 'msg="run complete".*sessions=2 threads=2' <<<"$serve_out" || {
  echo "tier1: spexserve smoke failed:" >&2
  echo "$serve_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
grep -q 'msg=latency feed_to_result_p50_us=' <<<"$serve_out" || {
  echo "tier1: spexserve smoke missing latency summary:" >&2
  echo "$serve_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
echo "tier1: spexserve smoke OK"

# Admin-plane smoke: serve with --admin-port=0 (ephemeral), scrape /metrics
# and /healthz off the logged port while the server lingers, then SIGTERM
# and require a clean (exit 0) drain.  Scraping uses bash /dev/tcp so the
# smoke needs no curl on tier-1 machines.
admin_log="$serve_dir/admin.log"
"$binary_dir/tools/spexserve" --queries="$serve_dir/queries.txt" \
  --threads=2 --admin-port=0 "$serve_dir/docs" \
  >"$serve_dir/admin.out" 2>"$admin_log" &
admin_pid=$!
admin_port=""
for _ in $(seq 1 100); do
  admin_port="$(sed -n 's/.*msg="admin plane listening" port=\([0-9]*\).*/\1/p' \
    "$admin_log" | head -1)"
  [ -n "$admin_port" ] && break
  kill -0 "$admin_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$admin_port" ]; then
  echo "tier1: admin smoke: no listening port logged" >&2
  cat "$admin_log" >&2
  kill "$admin_pid" 2>/dev/null || true
  rm -rf "$serve_dir"
  exit 1
fi
scrape() {
  # Minimal HTTP GET via /dev/tcp; prints the response (headers + body).
  exec 3<>"/dev/tcp/127.0.0.1/$admin_port" || return 1
  printf 'GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' \
    "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}
metrics_scrape="$(scrape /metrics)"
grep -q '# TYPE spex_pool_events_processed counter' <<<"$metrics_scrape" || {
  echo "tier1: admin smoke: /metrics scrape missing pool counters" >&2
  echo "$metrics_scrape" | head -20 >&2
  kill "$admin_pid" 2>/dev/null || true
  rm -rf "$serve_dir"
  exit 1
}
healthz_scrape="$(scrape /healthz)"
grep -q '"status": "ok"' <<<"$healthz_scrape" || {
  echo "tier1: admin smoke: /healthz scrape unhealthy" >&2
  echo "$healthz_scrape" >&2
  kill "$admin_pid" 2>/dev/null || true
  rm -rf "$serve_dir"
  exit 1
}
grep -q '"simd_backend"' <<<"$healthz_scrape" || {
  echo "tier1: admin smoke: /healthz missing simd_backend" >&2
  echo "$healthz_scrape" >&2
  kill "$admin_pid" 2>/dev/null || true
  rm -rf "$serve_dir"
  exit 1
}
queries_scrape="$(scrape '/queries?sort=events&k=5')"
grep -q 'QUERIES (sort=events' <<<"$queries_scrape" || {
  echo "tier1: admin smoke: /queries scrape missing table" >&2
  echo "$queries_scrape" | head -20 >&2
  kill "$admin_pid" 2>/dev/null || true
  rm -rf "$serve_dir"
  exit 1
}
flight_scrape="$(scrape /flight)"
grep -q '"flights"' <<<"$flight_scrape" || {
  echo "tier1: admin smoke: /flight scrape missing flights array" >&2
  echo "$flight_scrape" | head -20 >&2
  kill "$admin_pid" 2>/dev/null || true
  rm -rf "$serve_dir"
  exit 1
}
kill -TERM "$admin_pid"
admin_rc=0
wait "$admin_pid" || admin_rc=$?
if [ "$admin_rc" -ne 0 ]; then
  echo "tier1: admin smoke: server exited $admin_rc after SIGTERM" >&2
  cat "$admin_log" >&2
  rm -rf "$serve_dir"
  exit 1
fi
grep -q 'catalog.xml' "$serve_dir/admin.out" || {
  echo "tier1: admin smoke: no results on stdout" >&2
  rm -rf "$serve_dir"
  exit 1
}
echo "tier1: admin plane smoke OK (port $admin_port)"

# Chaos smoke: the same serving run with every session faulted (seeded
# corruption / truncation / tiny limits / worker stalls).  The server must
# answer every frame — result line or structured ERROR line — and exit
# cleanly; under the sanitizer presets this also proves the failure paths
# are asan/tsan clean.
chaos_out="$("$binary_dir/tools/spexserve" --queries="$serve_dir/queries.txt" \
  --threads=2 --chaos=7 --chaos-rate=100 "$serve_dir/docs" 2>&1)" || {
  echo "tier1: spexserve chaos smoke failed:" >&2
  echo "$chaos_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
grep -q 'msg="chaos injection on" seed=7' <<<"$chaos_out" || {
  echo "tier1: spexserve chaos smoke missing chaos banner:" >&2
  echo "$chaos_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
echo "tier1: spexserve chaos smoke OK"

# Slow-query / flight-dump smoke: throttle every session into a governor
# breach (--max-events=1) and require the structured post-mortem trail —
# one msg="slow query" and one msg="flight dump" record per failed session
# (failed runs always log, regardless of thresholds).
throttled_out="$("$binary_dir/tools/spexserve" \
  --queries="$serve_dir/queries.txt" --threads=2 --max-events=1 \
  "$serve_dir/docs" 2>&1)" || {
  echo "tier1: spexserve throttled smoke failed:" >&2
  echo "$throttled_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
grep -q 'msg="slow query"' <<<"$throttled_out" || {
  echo "tier1: throttled smoke missing slow-query record:" >&2
  echo "$throttled_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
grep -q 'msg="flight dump"' <<<"$throttled_out" || {
  echo "tier1: throttled smoke missing flight dump:" >&2
  echo "$throttled_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
echo "tier1: slow-query/flight smoke OK"

# Subscription-mode smoke (DESIGN.md §14): a standing population of 50
# generated subscriptions evaluated as one shared CSE-merged DAG per
# document.  The run must admit the population (digest + sharing degrees
# logged), route every document (a sub#<slot> match line or the `-` no-match
# line), and finish ERROR-free.
subs_out="$("$binary_dir/tools/spexserve" --subscription-count=50 \
  --threads=2 "$serve_dir/docs" 2>&1)" || {
  echo "tier1: spexserve subscription smoke failed:" >&2
  echo "$subs_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
grep -q 'msg="subscription population admitted"' <<<"$subs_out" || {
  echo "tier1: subscription smoke missing population banner:" >&2
  echo "$subs_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
grep -qE $'catalog.xml\t(sub#[0-9]+\t[0-9]+|-\t0)' <<<"$subs_out" || {
  echo "tier1: subscription smoke missing routing line:" >&2
  echo "$subs_out" >&2
  rm -rf "$serve_dir"
  exit 1
}
if grep -q 'ERROR(' <<<"$subs_out"; then
  echo "tier1: subscription smoke routed with ERROR lines:" >&2
  echo "$subs_out" >&2
  rm -rf "$serve_dir"
  exit 1
fi
rm -rf "$serve_dir"
echo "tier1: subscription smoke OK"

# TCP serving tier smoke (DESIGN.md §15): spexserve --port=0 (ephemeral),
# PREPARE+STREAM through spexclient, a hostile mid-document kill the server
# must absorb, then SIGTERM and require a graceful drain (exit 0).
net_dir="$(mktemp -d)"
net_log="$net_dir/net.log"
"$binary_dir/tools/spexserve" --port=0 --threads=2 \
  >"$net_dir/net.out" 2>"$net_log" &
net_pid=$!
net_port=""
for _ in $(seq 1 100); do
  net_port="$(sed -n 's/.*msg="tcp serving tier listening" port=\([0-9]*\).*/\1/p' \
    "$net_log" | head -1)"
  [ -n "$net_port" ] && break
  kill -0 "$net_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$net_port" ]; then
  echo "tier1: net smoke: no listening port logged" >&2
  cat "$net_log" >&2
  kill "$net_pid" 2>/dev/null || true
  rm -rf "$net_dir"
  exit 1
fi
net_out="$("$binary_dir/tools/spexclient" --port="$net_port" \
  --query='_*.book[author].title' examples/data/catalog.xml 2>&1)" || {
  echo "tier1: net smoke: spexclient stream failed:" >&2
  echo "$net_out" >&2
  kill "$net_pid" 2>/dev/null || true
  rm -rf "$net_dir"
  exit 1
}
grep -q $'\tOK\tcertain=' <<<"$net_out" || {
  echo "tier1: net smoke: no OK terminal:" >&2
  echo "$net_out" >&2
  kill "$net_pid" 2>/dev/null || true
  rm -rf "$net_dir"
  exit 1
}
# Hostile client: stream a prefix and vanish; the server must absorb it
# and keep serving the next well-behaved client.
"$binary_dir/tools/spexclient" --port="$net_port" \
  --query='_*.title' --kill-after=200 examples/data/catalog.xml \
  >/dev/null 2>&1 || true
net_out2="$("$binary_dir/tools/spexclient" --port="$net_port" \
  --query='_*.title' examples/data/catalog.xml 2>&1)" || {
  echo "tier1: net smoke: server unhealthy after hostile client:" >&2
  echo "$net_out2" >&2
  kill "$net_pid" 2>/dev/null || true
  rm -rf "$net_dir"
  exit 1
}
kill -TERM "$net_pid"
net_rc=0
wait "$net_pid" || net_rc=$?
if [ "$net_rc" -ne 0 ]; then
  echo "tier1: net smoke: server exited $net_rc after SIGTERM" >&2
  cat "$net_log" >&2
  rm -rf "$net_dir"
  exit 1
fi
grep -q 'msg="drain complete"' "$net_log" || {
  echo "tier1: net smoke: no drain-complete record" >&2
  cat "$net_log" >&2
  rm -rf "$net_dir"
  exit 1
}
rm -rf "$net_dir"
echo "tier1: net serving smoke OK (port $net_port)"

# Wire-chaos smoke: the seeded 256-session ChaosProxy soak (truncations,
# splits, stalls, mid-stream RSTs) straight from the test binary — under
# the sanitizer presets this re-proves the fault paths are clean.
"$binary_dir/tests/net_server_test" \
  --gtest_filter='NetServerChaos.*' >/dev/null || {
  echo "tier1: wire-chaos smoke failed" >&2
  exit 1
}
echo "tier1: wire-chaos smoke OK"

# Perf-regression report (informational here — tier-1 machines are too
# noisy to gate on; the CI bench-smoke job gates for real with
# bench_compare's exit code against the committed baseline).
if [ "$preset" = "default" ]; then
  latest_baseline="$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1)"
  if [ -n "$latest_baseline" ]; then
    bench_json="$(mktemp)"
    "$binary_dir/bench/micro_benchmarks" --json "$bench_json" --observe=off \
      2>/dev/null
    "$binary_dir/tools/bench_compare" --report-only \
      "$latest_baseline" "$bench_json" || true
    rm -f "$bench_json"
  fi
fi
