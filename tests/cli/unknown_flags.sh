#!/bin/sh
# distcache_sim must refuse a flag it does not know — a retired flag
# (--dense-routes) or a typo (--shard=4) — and a misspelled value of a flag it
# does know (--routing=frist) with exit code 1 and an error naming the flag,
# instead of running without it or with the default. It also checks the note
# printed when --realloc-at meets a dynamic --cache-policy.
#
#   tests/cli/unknown_flags.sh path/to/distcache_sim
sim="$1"
expect_refused() {
  flag="$1"
  want="$2"
  err=$("$sim" --backend=sequential --requests=1000 "$flag" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: distcache_sim $flag exited $status, want 1"
    exit 1
  fi
  case "$err" in
    *"$want"*) ;;
    *) echo "FAIL: distcache_sim $flag printed: $err"; exit 1 ;;
  esac
}
expect_refused --dense-routes "error: unknown flag --dense-routes"
expect_refused --shard=4 "error: unknown flag --shard"
expect_refused --routing=frist "unknown --routing=frist (want pot|random|first)"
expect_refused --mechanism=replicaton \
  "unknown --mechanism=replicaton (want distcache|replication|partition|nocache)"
echo "ok: unknown flags and values rejected"

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
