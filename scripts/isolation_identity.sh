#!/usr/bin/env bash
# End-to-end isolation-mode determinism check: the same supervised sweep
# run {in-process, process-isolated} x {--jobs 1, --jobs 4} must produce
# byte-identical manifests and byte-identical --report-json documents.
# --report-json turns telemetry on, so the manifests carry serialized
# instrument registries and the comparison also proves the registry
# crossed the worker process boundary bit-exactly.
#
# Usage: isolation_identity.sh <path-to-dftmsn_cli> [workdir]
set -u

CLI="${1:?usage: isolation_identity.sh <dftmsn_cli> [workdir]}"
WORK="${2:-isolation_identity.tmp}"

rm -rf "$WORK"
mkdir -p "$WORK"

ARGS=(--protocol OPT --reps 4
      scenario.seed=5150 scenario.num_sensors=15 scenario.num_sinks=2
      scenario.field_m=150 scenario.duration_s=1500
      --checkpoint-every 300)

fail() { echo "FAIL: $*" >&2; exit 1; }

run_variant() { # name isolate jobs
  local name="$1" isolate="$2" jobs="$3"
  "$CLI" "${ARGS[@]}" --isolate "$isolate" --jobs "$jobs" \
      --checkpoint-dir "$WORK/$name" --report-json "$WORK/$name.json" \
      > "$WORK/$name.txt" \
    || fail "$name run exited $?"
  grep -q 'retries=0' "$WORK/$name.txt" || fail "$name had unexpected retries"
}

run_variant in1 in-process 1
run_variant in4 in-process 4
run_variant pr1 process 1
run_variant pr4 process 4

for v in in4 pr1 pr4; do
  cmp "$WORK/in1/manifest.dcc" "$WORK/$v/manifest.dcc" \
    || fail "manifest of $v differs from in-process --jobs 1"
  cmp "$WORK/in1.json" "$WORK/$v.json" \
    || fail "report of $v differs from in-process --jobs 1"
done

# The manifests must actually carry telemetry, or the equality above
# proves less than it claims: a stored registry holds its instrument
# names verbatim.
grep -qaF 'mac.rts_tx' "$WORK/pr4/manifest.dcc" \
  || fail "process-isolated manifest has no registries"

echo "PASS: manifests + reports byte-identical across isolation modes and jobs"
rm -rf "$WORK"
