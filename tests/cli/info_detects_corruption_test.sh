#!/usr/bin/env bash
# `walrus_cli info` must report a corrupt index and exit 1. A paged index
# whose tree pages past the header are corrupt is refused at open (every
# tree page's CRC is checked when the tree is loaded), and info reports
# that open error.
#
# Usage: info_detects_corruption_test.sh <walrus_cli>
set -euo pipefail

CLI="${1:?usage: $0 <walrus_cli>}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate "$DIR/imgs" 6 64 > /dev/null
"$CLI" index "$DIR/imgs" "$DIR/idx" paged > /dev/null

out="$("$CLI" info "$DIR/idx")"
grep -q '^validation: *ok$' <<< "$out" || {
  echo "clean index did not validate:"; echo "$out"; exit 1; }

# Flip 8 bytes inside page 1 (the header is page 0).
page_size=4096
size=$(stat -c %s "$DIR/idx.ptree")
if (( size < 2 * page_size )); then
  echo "expected at least two pages in idx.ptree, got $size bytes"; exit 1
fi
printf '\xde\xad\xbe\xef\xde\xad\xbe\xef' |
  dd of="$DIR/idx.ptree" bs=1 seek=$((page_size + 904)) conv=notrunc \
     status=none

set +e
out="$("$CLI" info "$DIR/idx" 2>&1)"
code=$?
set -e
if (( code != 1 )); then
  echo "info exited $code on a corrupt page, want 1:"; echo "$out"; exit 1
fi
grep -q 'Corruption' <<< "$out" || {
  echo "info did not report the corruption:"; echo "$out"; exit 1; }
echo "ok"
