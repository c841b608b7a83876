#!/bin/sh
# Usage: bad_input.sh EDGESIM
# Every bad `edgesim run` input below must exit non-zero with a clean
# message, never as an uncaught exception (cmdliner's "internal error").
edgesim=$1
status=0
for args in "--timeout-factor nan" "--devices 0" "--ap-mbps 0" "--duration 2" \
  "--breaker x" "--brownout 1:2:z"; do
  # shellcheck disable=SC2086 # the flag and its value are two words
  if out=$("$edgesim" run $args 2>&1); then
    echo "edgesim run $args: exited 0"
    status=1
  else
    case $out in
    *"internal error"*)
      echo "edgesim run $args: $out"
      status=1
      ;;
    esac
  fi
done
exit $status
