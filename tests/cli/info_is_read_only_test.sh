#!/usr/bin/env bash
# `walrus_cli info` only reads an index: on a paged and on an in-memory
# index it leaves every index file's bytes and mtime as they were.
#
# Usage: info_is_read_only_test.sh <walrus_cli>
set -euo pipefail

CLI="${1:?usage: $0 <walrus_cli>}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate "$DIR/imgs" 6 64 > /dev/null
"$CLI" index "$DIR/imgs" "$DIR/paged" paged > /dev/null
"$CLI" index "$DIR/imgs" "$DIR/mem" > /dev/null

# md5 and mtime (seconds since the epoch) of each file, one line each.
snapshot() {
  for file in "$@"; do
    printf '%s %s %s\n' "$file" "$(md5sum < "$file" | cut -d' ' -f1)" \
      "$(stat -c %Y "$file")"
  done
}

for prefix in paged mem; do
  if [[ "$prefix" == paged ]]; then
    files=("$DIR/paged.catalog" "$DIR/paged.pmeta" "$DIR/paged.ptree")
  else
    files=("$DIR/mem.catalog" "$DIR/mem.index")
  fi
  # A fixed past mtime, so a rewrite within the same second still shows.
  touch -d '2001-02-03 04:05:06' "${files[@]}"
  before="$(snapshot "${files[@]}")"
  out="$("$CLI" info "$DIR/$prefix")"
  grep -q '^validation: *ok$' <<< "$out" || {
    echo "$prefix: info did not validate:"; echo "$out"; exit 1; }
  after="$(snapshot "${files[@]}")"
  if [[ "$before" != "$after" ]]; then
    echo "$prefix: info changed the index files"
    echo "before:"; echo "$before"; echo "after:"; echo "$after"
    exit 1
  fi
done
echo "ok"
