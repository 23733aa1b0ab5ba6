#!/usr/bin/env bash
# Paired benchmark runs: the rule ROADMAP's standing invariant demands of a
# perf claim (choosing-metrics §8). Runs one benchmark/ workload for 20 s in
# two checkouts, PAIRS times, alternating which checkout goes first, and
# prints per end-to-end metric both medians, both quartile pairs and how
# many pairs the change won.
#
#   scripts/paired.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [FIRST_SEED]
#
# Pair i runs both sides at --seed FIRST_SEED+i-1 (default 1..PAIRS). Each
# checkout builds its own benchmark/ through its own benchmark/run.sh; this
# script changes nothing in either. Every run's JSON line is kept in
# $PAIRED_OUT (default: a fresh temporary directory, printed at the end), so
# "report every run made" is a cat away. Run nothing else on the host
# meanwhile: on 2 CPUs a second process is the measurement.
#
# A run that exits non-zero (a build error, a failed round's exit 1, the
# watchdog backstop's exit 3) does not end the session. Every run's exit
# status and stderr tail go to runs.tsv (pair, side, seed, exit, stderr tail);
# a failed run's line i of SIDE.jsonl is a placeholder carrying the same, its
# output is kept as SIDE.i.stdout / SIDE.i.stderr, "pair i side S: exit N" is
# printed, the remaining pairs run, and the summary leaves the pair out and
# says so.
#
# The last column is the verdict, with each metric's direction and bound read
# from CHANGE_DIR/BENCHMARK.json ("-" for a metric it does not list):
#   gain        the change won >= 9/10 of the pairs and the medians differ, its
#               way, by more than the parent's interquartile range
#   unresolved  the parent's IQR exceeds the bound (relative to its median),
#               unless every change run reads better than every parent run
#   WORSE       the change's median is worse than the parent's by more than
#               the bound
#   in bound    otherwise
set -euo pipefail

if [ $# -lt 4 ]; then
	sed -n '2,33p' "$0" >&2
	exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
first="${5:-1}"
out="${PAIRED_OUT:-$(mktemp -d)}"
mkdir -p "$out"

run() { # pair side dir seed
	local base="$out/$2.$1" line tail status=0
	bash "$3/benchmark/run.sh" --workload "$workload" --seed "$4" --seconds 20 --trace 0 >"$base.stdout" 2>"$base.stderr" || status=$?
	line="$(tail -n 1 "$base.stdout")"
	tail="$(tail -n 3 "$base.stderr" | tr '\n\t"\\' '  ..' | cut -c1-300)"
	printf '%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$4" "$status" "$tail" >>"$out/runs.tsv"
	if [ "$status" -eq 0 ] && [ "${line:0:1}" = "{" ]; then
		rm -f "$base.stdout" "$base.stderr"
	else
		echo "pair $1 side $2: exit $status" >&2
		line="{\"pair\": $1, \"exit\": $status, \"stderr_tail\": \"$tail\"}"
	fi
	echo "$line" >>"$out/$2.jsonl"
}

: >"$out/runs.tsv"
: >"$out/parent.jsonl"
: >"$out/change.jsonl"
for i in $(seq 1 "$pairs"); do
	seed=$((first + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		run "$i" parent "$parent" "$seed"
		run "$i" change "$change" "$seed"
	else
		run "$i" change "$change" "$seed"
		run "$i" parent "$parent" "$seed"
	fi
	echo "pair $i/$pairs (seed $seed) done" >&2
done

# One line per run, flattened to "side pair metric value failed", then one
# row per metric over the pairs both sides completed.
for side in parent change; do
	awk -v side="$side" '{
		failed = 0
		if (match($0, /"failed": *[0-9]+/)) { f = substr($0, RSTART, RLENGTH); sub(/.*: */, "", f); failed = f }
		s = $0
		while (match(s, /"[a-z0-9_]+": *\{"unit": *"[^"]*", *"value": *[-0-9.e+]+/)) {
			m = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
			name = m; sub(/^"/, "", name); sub(/".*/, "", name)
			val = m; sub(/.*"value": */, "", val)
			print side, NR, name, val, failed
		}
	}' "$out/$side.jsonl"
done | awk -v workload="$workload" -v pairs="$pairs" -v spec="$(tr -d ' \t\n' <"$change/BENCHMARK.json")" '
function q(a, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
function sorted(side, name, arr,    i, j, k, t, n) {
	n = 0
	for (k = 1; k <= nc; k++) arr[++n] = v[side, complete[k], name]
	for (i = 2; i <= n; i++) { t = arr[i]; for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]; arr[j + 1] = t }
	return n
}
# verdict applies the rule in the header to one metric over n complete pairs,
# given the sorted runs p[1..n] and c[1..n] and their medians; d * (x - y) > 0
# means x is better.
function verdict(name, wins, n, p, c, pm, cm,    d, iqr, apart) {
	if (!(name in bound)) return "-"
	d = higher[name] ? 1 : -1
	iqr = q(p, n, 0.75) - q(p, n, 0.25)
	apart = d > 0 ? c[1] > p[n] : c[n] < p[1] # every change run beats every parent run
	if (wins >= 0.9 * n && d * (cm - pm) > iqr) return "gain"
	if (iqr > bound[name] * pm && !apart) return "unresolved"
	if (-d * (cm - pm) > bound[name] * pm) return "WORSE"
	return "in bound"
}
BEGIN {
	# BENCHMARK.json, whitespace removed: each end_to_end entry is one {...}.
	s = spec; sub(/.*"end_to_end":\[/, "", s); sub(/\].*/, "", s)
	ne = split(s, e, "}")
	for (i = 1; i <= ne; i++) {
		if (!match(e[i], /"name":"[^"]*"/)) continue
		m = substr(e[i], RSTART + 8, RLENGTH - 9)
		higher[m] = e[i] ~ /"better":"higher"/
		if (match(e[i], /"bound":[-0-9.eE+]+/)) bound[m] = substr(e[i], RSTART + 8, RLENGTH - 8) + 0
	}
}
{ v[$1, $2, $3] = $4; ran[$1, $2] = 1; if (!($3 in seen)) { seen[$3] = 1; names[++nn] = $3 }; fails[$1, $2] = $5 }
END {
	for (i = 1; i <= pairs; i++) {
		if ((("parent", i) in ran) && (("change", i) in ran)) complete[++nc] = i
		else missing = missing " " i
	}
	printf "%s: parent vs change over %d complete pairs, median [q1, q3]\n", workload, nc
	if (missing != "") printf "INCOMPLETE pairs (a run exited non-zero; see the .stderr files), left out:%s\n", missing
	if (nc == 0) exit 1
	printf "%-20s %-34s %-34s %-8s %-20s %s\n", "metric", "parent", "change", "delta", "change wins", "verdict"
	for (k = 1; k <= nn; k++) {
		name = names[k]
		n = sorted("parent", name, p); sorted("change", name, c)
		wins = 0; ties = 0
		for (i = 1; i <= nc; i++) {
			a = v["parent", complete[i], name]; b = v["change", complete[i], name]
			if (a == b) ties++
			else if (higher[name] ? (b > a) : (b < a)) wins++
		}
		pm = q(p, n, 0.5); cm = q(c, n, 0.5)
		printf "%-20s %-34s %-34s %+6.1f%%  %-20s %s\n", name,
			sprintf("%.4g [%.4g, %.4g]", pm, q(p, n, 0.25), q(p, n, 0.75)),
			sprintf("%.4g [%.4g, %.4g]", cm, q(c, n, 0.25), q(c, n, 0.75)),
			pm ? 100 * (cm - pm) / pm : 0,
			sprintf("%d of %d%s", wins, n, ties ? sprintf(" (%d ties)", ties) : ""),
			verdict(name, wins, n, p, c, pm, cm)
	}
	for (i = 1; i <= nc; i++) { fp += fails["parent", complete[i]]; fc += fails["change", complete[i]] }
	printf "failed operations: parent %d, change %d\n", fp, fc
}'
echo "runs kept in $out" >&2
