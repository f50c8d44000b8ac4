#!/bin/sh
# The CLI's exit-2 contract: a malformed argument value, from a flag or
# from an environment variable, makes coopcheck exit 2 with a one-line
# diagnostic starting "coopcheck: invalid" — never cmdliner's exit 124
# and never an uncaught exception.
#
# usage: exit2_contract.sh PATH/TO/coopcheck.exe
exe=$1
case $exe in */*) ;; *) exe=./$exe ;; esac
failed=0

expect_invalid() {
  err=$("$@" 2>&1 >/dev/null)
  code=$?
  case "$code:$err" in
    "2:coopcheck: invalid"*) ;;
    *)
      echo "exit-2 contract broken: $* exited $code with: $err" >&2
      failed=1
      ;;
  esac
}

expect_invalid "$exe" infer philo --jobs 0
expect_invalid "$exe" infer philo --jobs abc
# Attached, so cmdliner hands -1 to the validator instead of reading it
# as an unknown option.
expect_invalid "$exe" check philo --max-steps=-1
expect_invalid "$exe" trace philo --format xml
expect_invalid "$exe" check philo --witness foo
expect_invalid env COOP_JOBS=abc "$exe" check philo
# The DPOR budgets without --dpor: the stateful explorer has no use for
# them, so asking for one is malformed rather than silently ignored.
expect_invalid "$exe" explore philo -t 2 -s 1 --max-executions 5
expect_invalid "$exe" explore philo -t 2 -s 1 --max-depth 5
# More domains than the runtime can start: the pool must fail cleanly.
expect_invalid "$exe" infer philo --jobs 100000

exit $failed
