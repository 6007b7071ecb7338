# Stub synthesizer for the wait_bound workload: sh and coreutils only.
# usage: sh synth.sh CODE_FILE REPORT_FILE STAGE_LOG
# Sleeps a modelled 40 ms (jitter 0.8-1.2, about one design in ten 3x
# slower) keyed on the design's content, writes a report with Chip area,
# Power and Worst slack taken from the design's "// PPA:" marker and
# appends "synth US" to STAGE_LOG. Slack is reported as minus the marker's
# period, so the effective period is the clock period plus the marker's.
code=$1
report=$2
stage_log=$3
sum=$(cksum < "$code")
h=${sum%% *}
us=$(( 40000 * (80 + h / 7 % 41) / 100 ))
if [ $(( h / 287 % 10 )) -eq 0 ]; then us=$(( us * 3 )); fi
sleep "$(printf '%d.%06d' $(( us / 1000000 )) $(( us % 1000000 )))"
power=
while IFS= read -r line || [ -n "$line" ]; do
  case $line in
    *"// PPA: power="*)
      rest=${line#*power=}; power=${rest%% *}
      rest=${rest#*area=}; area=${rest%% *}
      rest=${rest#*period=}; period=${rest%% *}
      ;;
  esac
done < "$code"
echo "synth $us" >> "$stage_log"
if [ -z "$power" ]; then
  echo "ERROR: no PPA marker in design" > "$report"
  exit 1
fi
{
  echo "Chip area for module 'add2': $area"
  echo "Total power: $power"
  echo "Worst slack: -$period"
} > "$report"
