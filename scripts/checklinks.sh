#!/usr/bin/env bash
# checklinks.sh — validate relative markdown links in the repo's documents.
#
# For every inline link in the checked docs it verifies that the referenced
# file exists, and — when the link carries a #fragment into a markdown file —
# that some heading in the target slugifies to that anchor under GitHub's
# rules (lowercase, formatting stripped, punctuation dropped, spaces to
# hyphens). External http(s)/mailto links are skipped: CI must not depend on
# network reachability.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md"
fail=0

slug() {
  printf '%s\n' "$1" |
    tr '[:upper:]' '[:lower:]' |
    sed -e 's/`//g' -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g'
}

has_anchor() { # file slug
  local f="$1" want="$2" h
  while IFS= read -r h; do
    if [ "$(slug "$h")" = "$want" ]; then
      return 0
    fi
  done < <(sed -nE 's/^#{1,6} +(.*)$/\1/p' "$f")
  return 1
}

checked=0
for doc in $DOCS; do
  if [ ! -f "$doc" ]; then
    echo "missing document: $doc" >&2
    fail=1
    continue
  fi
  while IFS= read -r link; do
    [ -n "$link" ] || continue
    case "$link" in
      http://* | https://* | mailto:*) continue ;;
    esac
    checked=$((checked + 1))
    path="${link%%#*}"
    anchor=""
    case "$link" in
      *'#'*) anchor="${link#*#}" ;;
    esac
    target="$doc"
    if [ -n "$path" ]; then
      target="$path"
      if [ ! -e "$target" ]; then
        echo "$doc: broken link ($link): no such file '$path'" >&2
        fail=1
        continue
      fi
    fi
    if [ -n "$anchor" ]; then
      case "$target" in
        *.md)
          if ! has_anchor "$target" "$anchor"; then
            echo "$doc: broken link ($link): no heading in $target slugifies to '#$anchor'" >&2
            fail=1
          fi
          ;;
      esac
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' | sed -E 's/ ".*"$//')
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "checklinks: $checked relative links OK across: $DOCS"
