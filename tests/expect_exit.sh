#!/usr/bin/env bash
# Runs a command and passes only when it exits with the expected status.
#
# Usage: expect_exit.sh STATUS COMMAND [ARGS...]
#
# ctest's WILL_FAIL accepts any non-zero status, a crash included; this
# pins the exact one (1 for a rejected argument, 2 for a usage error).
want=$1
shift
"$@"
got=$?
if [ "$got" -ne "$want" ]; then
  echo "FAIL: expected exit status $want, got $got: $*"
  exit 1
fi
echo "exit status $got as expected"
