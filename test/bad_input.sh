#!/bin/sh
# Usage: bad_input.sh EDGESIM
# Every bad input below must exit non-zero with a clean message, never as
# an uncaught exception (cmdliner's "internal error").
edgesim=$1
status=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# check ARGS...: edgesim ARGS must fail cleanly.
check() {
  if out=$("$edgesim" "$@" 2>&1); then
    echo "edgesim $*: exited 0"
    status=1
  else
    case $out in
    *"internal error"*)
      echo "edgesim $*: $out"
      status=1
      ;;
    esac
  fi
}

for args in "--timeout-factor nan" "--devices 0" "--ap-mbps 0" "--ap-mbps nan" \
  "--duration 2" "--breaker x" "--brownout 1:2:z"; do
  # shellcheck disable=SC2086 # the flag and its value are two words
  check run $args
done

# Non-finite capacities and load multipliers, rejected before any solve or
# run starts.
check solve --ap-mbps inf --devices 4
check sweep --param rate --values nan --devices 4 --duration 8
check sweep --param rate --values inf --devices 4 --duration 8

# Files: a directory as a model, output paths in a missing directory, and
# an exported model whose first conv has stride 0 or groups 0.
check models --load "$tmp"
check models --export "alexnet:$tmp/no/such/dir/x.txt"
"$edgesim" models --export "alexnet:$tmp/alexnet.txt" >/dev/null || status=1
sed 's/s=4/s=0/' "$tmp/alexnet.txt" >"$tmp/stride0.txt"
sed 's/g=1/g=0/' "$tmp/alexnet.txt" >"$tmp/groups0.txt"
check models --load "$tmp/stride0.txt"
check models --load "$tmp/groups0.txt"
check sweep --param devices --values 4 --duration 8 --csv "$tmp/no/such/dir/x.csv"

# A replayed trace with an infinite arrival time.
printf 'time_s,device\n1.0,0\ninf,0\n' >"$tmp/inf.csv"
check trace --replay "$tmp/inf.csv"
exit $status
