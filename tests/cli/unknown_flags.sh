#!/bin/sh
# distcache_sim must refuse a flag it does not know — a retired flag
# (--dense-routes) or a typo (--shard=4) — and a misspelled value of a flag it
# does know (--routing=frist) with exit code 1 and an error naming the flag,
# instead of running without it or with the default.
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
