#!/usr/bin/env bash
# Byte-identity matrix for `softborg simulate`: runs the same 76
# configurations through two builds of the CLI and prints every
# configuration whose output differs.
#
#   tools/identity_matrix.sh BASE_BIN NEW_BIN
#
# BASE_BIN and NEW_BIN are softborg_cli.exe binaries, e.g. the
# _build/default/bin/softborg_cli.exe of two checkouts, each built with
# `dune build bin/softborg_cli.exe`.  The matrix is
#   - 5 programs x 11 flag sets at --pods 12 --duration 240 --seed 3
#     (gen:4's symbolic exploration truncates, so its gap verdicts
#     include Unknown);
#   - chaos seeds {1,2,3,4,5,77,1337} x shards {1,2,3} at
#     --duration 1200 --pods 10 --seed 5 --chaos --rollout canary parser.
# Set KEEP=DIR to keep both outputs of every configuration in DIR.
# Exits 0 when all 76 outputs are byte-identical, 1 otherwise.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_BIN NEW_BIN" >&2
  exit 2
fi
base=$1
new=$2
for bin in "$base" "$new"; do
  [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 2; }
done

out=${KEEP:-$(mktemp -d)}
mkdir -p "$out"

programs="parser checksum worker-pool fig2-write gen:4"
flag_sets=(
  ""
  "--chaos"
  "--overload"
  "--shards 2"
  "--shards 3 --chaos"
  "--rollout canary"
  "--shards 2 --rollout canary --batch 8"
  "--batch 8 --chaos --overload"
  "--mode cbi"
  "--mode wer --shards 2"
  "--shards 2 --overload --chaos --rollout canary --batch 4 --no-delta"
)

configs=()
for program in $programs; do
  for flags in "${flag_sets[@]}"; do
    configs+=("--pods 12 --duration 240 --seed 3 $flags $program")
  done
done
for chaos_seed in 1 2 3 4 5 77 1337; do
  for shards in 1 2 3; do
    configs+=("--duration 1200 --pods 10 --seed 5 --chaos --chaos-seed $chaos_seed --shards $shards --rollout canary parser")
  done
done

differ=0
i=0
for config in "${configs[@]}"; do
  i=$((i + 1))
  # shellcheck disable=SC2086 # the flags are meant to word-split
  "$base" simulate $config >"$out/$i.base" 2>&1
  # shellcheck disable=SC2086
  "$new" simulate $config >"$out/$i.new" 2>&1
  if ! cmp -s "$out/$i.base" "$out/$i.new"; then
    differ=$((differ + 1))
    echo "DIFFERS [$i]: simulate $config"
    diff "$out/$i.base" "$out/$i.new" | sed 's/^/    /'
  fi
done

echo "$((i - differ))/$i configurations byte-identical"
[ -z "${KEEP:-}" ] && rm -rf "$out"
[ "$differ" -eq 0 ]
