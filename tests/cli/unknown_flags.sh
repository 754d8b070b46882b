#!/bin/sh
# distcache_sim must refuse a flag it does not know — a retired flag
# (--dense-routes) or a typo (--shard=4) — a misspelled value of a flag it
# does know (--routing=frist), a flag the chosen mode never reads (--shards on
# the sequential engine, --requests without --backend, --uncapped outside the
# saturation figure, --fault-seed without --fault-plan), a --fail-spines count
# above the spine count and a --service-rates list that fits no layer count,
# with exit code 1 and an error naming the flag, instead of running without it
# or with the default. It also checks the note printed when --realloc-at meets
# a dynamic --cache-policy, and pins the summary text of a fixed set of runs.
#
#   tests/cli/unknown_flags.sh path/to/distcache_sim
sim="$1"
# expect_refused "FLAGS" "WANT": a sequential run with FLAGS (split on spaces)
# must exit 1 and print WANT. expect_refused_fluid: the same for a run without
# --backend.
expect_refused() {
  expect_refused_fluid "--backend=sequential --requests=1000 $1" "$2"
}
expect_refused_fluid() {
  flags="$1"
  want="$2"
  # shellcheck disable=SC2086
  err=$("$sim" $flags 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: distcache_sim $flags exited $status, want 1"
    exit 1
  fi
  case "$err" in
    *"$want"*) ;;
    *) echo "FAIL: distcache_sim $flags printed: $err"; exit 1 ;;
  esac
}
expect_refused --dense-routes "error: unknown flag --dense-routes"
expect_refused --shard=4 "error: unknown flag --shard"
expect_refused --routing=frist "unknown --routing=frist (want pot|random|first)"
expect_refused --mechanism=replicaton \
  "unknown --mechanism=replicaton (want distcache|replication|partition|nocache)"
echo "ok: unknown flags and values rejected"

# A word that is neither --name[=value] nor the value of the flag before it
# (a single-dash or dashless flag), and a boolean flag given a value other than
# true|false|1|0, whether as --name=value or as --name value.
expect_refused -requests=1000 "error: unexpected argument '-requests=1000'"
expect_refused requests=1000 "error: unexpected argument 'requests=1000'"
expect_refused "--two-level extra" \
  "error: --two-level takes no value or true|false|1|0, not 'extra'"
expect_refused --two-level=extra \
  "error: --two-level takes no value or true|false|1|0, not 'extra'"
if ! "$sim" --backend sequential --requests 1000 --two-level true --seed 3 \
    >/dev/null 2>&1; then
  echo "FAIL: distcache_sim refused --name value flags"
  exit 1
fi
echo "ok: stray words and non-boolean values of boolean flags rejected"

# Flags the chosen mode never reads.
expect_refused --offered=512 "--offered is a fluid-model option"
expect_refused --load=0.5 "--load is a fluid-model option"
expect_refused "--backend=fluid --offered=512" "--offered is a fluid-model option"
expect_refused --shards=8 "--shards needs --backend=sharded|multiproc"
expect_refused --batch=64 "--batch needs --backend=sharded|multiproc"
expect_refused --epoch=1024 "--epoch needs --backend=sharded|multiproc"
expect_refused "--backend=sharded --shards=2 --epoch=0" \
  "--epoch=0: want an integer in [1, 2^32)"
expect_refused "--backend=fluid --shards=2" "--shards needs --backend=sharded|multiproc"
expect_refused "--backend=sharded --huge-pages" "--huge-pages needs --backend=multiproc"
for knob in --respawn-limit=5 --heartbeat-warn-ms=3 --heartbeat-dead-ms=3; do
  expect_refused "--backend=sharded $knob" "${knob%%=*} needs --backend=multiproc"
done
expect_refused --fault-seed=2 "--fault-seed needs --backend=multiproc"
expect_refused "--backend=multiproc --fault-seed=2" "--fault-seed needs --fault-plan"
expect_refused "--backend=multiproc --respawn-limit=2" "--respawn-limit needs --respawn"
expect_refused "--backend=multiproc --numa-interleave" \
  "error: unknown flag --numa-interleave"
for knob in --fail-at=100 --remap-at=200 --recover-at=300; do
  expect_refused "$knob" "${knob%%=*} needs --fail-spines"
done
for knob in --requests=1000 --sample=100 --shift-at=500 --arrival-rate=5; do
  expect_refused_fluid "$knob" "${knob%%=*} needs --backend"
done
expect_refused_fluid --offered=5 "--offered needs --fail-spines"
expect_refused_fluid --load=0.5 "--load needs --latency"
# Each fluid-model figure reads only its own flags; --fail-spines selects the
# failure figure over --latency.
expect_refused_fluid "--fail-spines=2 --latency --load=0.3" \
  "--latency cannot be combined with --fail-spines"
expect_refused_fluid "--uncapped --latency" \
  "--uncapped cannot be combined with --latency"
expect_refused_fluid "--uncapped --fail-spines=2" \
  "--uncapped cannot be combined with --fail-spines"
expect_refused_fluid "--backend=fluid --requests=1000 --two-level" \
  "--two-level needs --backend=sequential|sharded|multiproc"
# The queue knobs shape an open-loop arrival process, which a zero rate is not.
for knob in --burst=2:200:50 --service-rates=6 --server-rate=2 --hop-cost=0.1; do
  expect_refused "$knob" "${knob%%=*} needs --arrival-rate"
done
expect_refused "--arrival-rate=0 --hop-cost=0.1" "--arrival-rate=0: want a finite"
echo "ok: flags the mode never reads rejected"

# --fail-spines above the spine count, in the failure figure and the timeline.
expect_refused --fail-spines=40 "--fail-spines=40: the cluster has only 32 spines"
expect_refused_fluid "--spines=8 --fail-spines=9" \
  "--fail-spines=9: the cluster has only 8 spines"
echo "ok: --fail-spines bounded by the spine count"

# A drop fault with no telemetry publish left after it arms: past the shard's
# last epoch boundary, or on one shard (no peers to publish to).
drop_run="--backend=multiproc --requests=200000 --spines=8 --racks=8"
drop_run="$drop_run --servers-per-rack=4 --keys=1000000 --epoch=4096"
expect_refused "$drop_run --shards=2 --fault-plan=drop:0@199000:3" \
  "--fault-plan: fault term drop:0@199000:3 can never fire"
expect_refused "$drop_run --shards=1 --fault-plan=drop:0@1000:3" \
  "--fault-plan: fault term drop:0@1000:3 can never fire"
echo "ok: drop faults that cannot fire rejected"

if ! "$sim" --help >/dev/null; then
  echo "FAIL: distcache_sim --help exited nonzero"
  exit 1
fi

# --service-rates takes one value (broadcast) or one per cache layer.
expect_refused "--arrival-rate=500 --service-rates=6,6,6,6" \
  "--service-rates: want 1 value or one per cache layer (2 layers), got 4"
expect_refused "--layers=3 --arrival-rate=500 --service-rates=60,70" \
  "--service-rates: want 1 value or one per cache layer (3 layers), got 2"
for rates in 6 60,70,80; do
  if ! "$sim" --backend=sequential --requests=1000 --layers=3 --arrival-rate=500 \
      --service-rates=$rates >/dev/null 2>&1; then
    echo "FAIL: distcache_sim --layers=3 --service-rates=$rates refused"
    exit 1
  fi
done
echo "ok: --service-rates lengths checked against the layer count"

# --realloc-at under a dynamic cache policy is a note, not an error: the policy
# manages its own contents, so the run goes ahead without the step.
out=$("$sim" --backend=sequential --requests=1000 --cache-policy=lru \
  --realloc-at=500 2>&1)
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: distcache_sim --cache-policy=lru --realloc-at exited $status, want 0"
  exit 1
fi
want="note: --realloc-at skipped: cache policy lru manages its own contents"
case "$out" in
  *"$want"*) ;;
  *) echo "FAIL: no skip note for --realloc-at under lru: $out"; exit 1 ;;
esac
out=$("$sim" --backend=sequential --requests=1000 --realloc-at=500 2>&1)
case "$out" in
  *"--realloc-at skipped"*)
    echo "FAIL: skip note printed under the static distcache policy"; exit 1 ;;
esac
echo "ok: --realloc-at skip note under a dynamic policy only"

# Summary text golden: the deterministic lines of a fixed set of runs must
# match tests/cli/golden_output.txt byte for byte. The wall-clock part of the
# backend line (" in X s (Y Mreq/s)") and the memory line vary run to run and
# are filtered out.
golden="$(dirname "$0")/golden_output.txt"
golden_runs() {
  for args in \
    "--mechanism=distcache --uncapped" \
    "--mechanism=replication --uncapped" \
    "--mechanism=partition --uncapped" \
    "--mechanism=nocache --uncapped" \
    "--latency --load=0.5" \
    "--fail-spines=4 --offered=512" \
    "--backend=fluid --requests=200000 --fail-spines=2 --sample=20000" \
    "--backend=fluid --requests=200000 --shift-at=50000 --realloc-at=100000 --write-ratio=0.1" \
    "--backend=sequential --requests=20000 --sample=5000"; do
    echo "\$ distcache_sim $args"
    # shellcheck disable=SC2086
    "$sim" $args 2>&1 | sed -e 's/ in [0-9.]*s ([0-9.]* Mreq\/s)//' -e '/  memory: /d'
  done
}
if ! golden_runs | diff "$golden" - ; then
  echo "FAIL: distcache_sim summaries differ from $golden (diff above: < golden, > now)"
  exit 1
fi
echo "ok: summaries match $golden"
