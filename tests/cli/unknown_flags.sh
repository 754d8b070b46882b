#!/bin/sh
# distcache_sim must refuse a flag it does not know — a retired flag
# (--dense-routes) or a typo (--shard=4) — with exit code 1 and an error naming
# the flag, instead of running without it.
#
#   tests/cli/unknown_flags.sh path/to/distcache_sim
sim="$1"
for flag in --dense-routes --shard=4; do
  err=$("$sim" --backend=sequential --requests=1000 "$flag" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: distcache_sim $flag exited $status, want 1"
    exit 1
  fi
  name=${flag%%=*}
  case "$err" in
    *"error: unknown flag $name"*) ;;
    *) echo "FAIL: distcache_sim $flag printed: $err"; exit 1 ;;
  esac
done
echo "ok: unknown flags rejected"
