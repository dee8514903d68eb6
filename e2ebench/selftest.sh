#!/bin/sh
# Runs every workload with the default seed (outputs checked against
# reference.txt) and with a second seed (shapes and repeats checked), each
# untraced and traced (traced outputs must equal untraced ones). Run from
# the repository root; exits 1 if any run fails a check.
set -u
status=0
for w in audio_fig6 http_fig8 audio_adapt_fleet; do
  for seed in 42 7; do
    for trace in 0 1; do
      line=$(sh e2ebench/run.sh --workload "$w" --seed "$seed" --seconds 1 \
        --trace "$trace" 2>/dev/null | tail -n 1)
      case "$line" in
        '{"correct": true'*) echo "ok   $w seed $seed trace $trace" ;;
        *) echo "FAIL $w seed $seed trace $trace: $line"; status=1 ;;
      esac
    done
  done
done
exit $status
