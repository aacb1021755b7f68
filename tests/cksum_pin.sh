#!/bin/sh
# Golden pin for a CLI run: runs COMMAND, then checks its exit status and
# the cksum ("CRC SIZE") of every artifact it wrote.
#
#   cksum_pin.sh STATUS FILE=CKSUM... -- COMMAND [ARGS...]
#
# A FILE ending in .json is checksummed without its "git" line, the tree
# stamp that changes with every commit. Artifacts are removed before the
# run, so a stale file from an earlier run cannot pass for a new one.
status=$1
shift
pins=""
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  pins="$pins
$1"
  rm -f "${1%%=*}"
  shift
done
shift

"$@" > /dev/null
actual=$?
failed=0
if [ "$actual" -ne "$status" ]; then
  echo "exit status $actual, expected $status"
  failed=1
fi
echo "$pins" | while IFS= read -r pin; do
  [ -z "$pin" ] && continue
  file=${pin%%=*}
  want=${pin#*=}
  case "$file" in
    *.json) got=$(grep -v '"git"' "$file" | cksum) ;;
    *) got=$(cksum < "$file") ;;
  esac
  if [ "$got" != "$want" ]; then
    echo "$file: cksum '$got', expected '$want'"
    exit 1
  fi
  echo "$file: $got"
done || failed=1
exit $failed
