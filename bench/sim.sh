# Stub simulator for the wait_bound workload: sh and coreutils only.
# usage: sh sim.sh CODE_FILE STAGE_LOG
# Sleeps a modelled 10 ms (jitter 0.8-1.2, about one design in ten 3x
# slower) keyed on the design's content, prints a testbench verdict (a
# design carrying a BUG marker fails) and appends "sim US" (modelled microseconds) to STAGE_LOG.
code=$1
stage_log=$2
sum=$(cksum < "$code")
h=${sum%% *}
us=$(( 10000 * (80 + h % 41) / 100 ))
if [ $(( h / 41 % 10 )) -eq 0 ]; then us=$(( us * 3 )); fi
sleep "$(printf '%d.%06d' $(( us / 1000000 )) $(( us % 1000000 )))"
verdict="all tests passed"
while IFS= read -r line || [ -n "$line" ]; do
  case $line in *BUG*) verdict="FAILED: sum mismatch at a=3 b=1" ;; esac
done < "$code"
echo "sim $us" >> "$stage_log"
echo "Simulation finished: $verdict"
