#!/usr/bin/env bash
# Vectorization gate for the tagged kernels (ci.yml "Vectorization report").
#
# Every src/**/*.cc file that carries a `VEC-KERNEL <name>` comment is compiled
# alone with the same optimization-relevant flags the Release build uses, and
# GCC writes its vectorizer decisions (-fopt-info-vec-*) for that file to a log
# of its own. The tag sits directly above its kernel loop; the gate fails if
# any tagged loop has no "loop vectorized" record within the next few source
# lines of its file — i.e. if a refactor silently knocks a kernel back to
# scalar.
#
# Usage: tools/check_vectorization.sh [compiler]   (default: g++)
set -u

CXX="${1:-g++}"
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mapfile -t TUS < <(grep -rl --include='*.cc' 'VEC-KERNEL [a-z]' src | sort)
if [ "${#TUS[@]}" -eq 0 ]; then
  echo "FAIL: no VEC-KERNEL tag under src/" >&2
  exit 1
fi

fail=0
# A kernel's tag sits at most this many lines above its loop.
WINDOW=8
for TU in "${TUS[@]}"; do
  # One log per file for both decisions: GCC ignores a second -fopt-info file,
  # so the optimized and missed records must share it.
  VEC_LOG="$WORK/${TU//\//_}.log"
  if ! "$CXX" -O3 -std=c++20 -fno-math-errno -Isrc -c "$TU" -o "$WORK/tu.o" \
      -fopt-info-vec-all="$VEC_LOG"; then
    echo "FAIL: $TU does not compile standalone" >&2
    fail=1
    continue
  fi
  TU_RE=${TU//./\\.}
  while read -r lineno name; do
    hit=""
    for ((l = lineno; l <= lineno + WINDOW; ++l)); do
      if grep -q "^$TU_RE:$l:[0-9]*: optimized: loop vectorized" "$VEC_LOG"; then
        hit=$l
        break
      fi
    done
    if [ -n "$hit" ]; then
      echo "OK:   $TU $name (line $hit vectorized)"
    else
      echo "FAIL: $name — no 'loop vectorized' within $WINDOW lines of $TU:$lineno" >&2
      echo "      vectorizer 'missed' records near the kernel:" >&2
      awk -F: -v tu="$TU" -v lo="$lineno" -v hi=$((lineno + WINDOW)) \
        '$1 == tu && $0 ~ / missed: / && $2 >= lo && $2 <= hi' "$VEC_LOG" | head -5 >&2
      fail=1
    fi
  done < <(grep -n 'VEC-KERNEL [a-z-]*' "$TU" | sed 's/:.*VEC-KERNEL /\t/' | awk -F'\t' '{split($2, a, " "); print $1, a[1]}')
done

if [ "$fail" -ne 0 ]; then
  echo "Tagged kernels fell back to scalar — see missed records above." >&2
  exit 1
fi
echo "All tagged kernels vectorized (${TUS[*]})."
